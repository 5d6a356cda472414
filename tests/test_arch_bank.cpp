#include "arch/computation_bank.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "arch/design_context.hpp"
#include "nn/topologies.hpp"

namespace mnsim::arch {
namespace {

AcceleratorConfig base() {
  AcceleratorConfig c;
  c.cmos_node_nm = 45;
  c.crossbar_size = 256;
  c.interconnect_node_nm = 45;
  return c;
}

TEST(Bank, FullyConnectedSingleIteration) {
  auto net = nn::make_large_bank_layer();
  auto rep = simulate_bank(net.layers[0], nullptr, nullptr, net, base());
  EXPECT_EQ(rep.iterations, 1);
  EXPECT_EQ(rep.mapping.unit_count, 36);
  EXPECT_GT(rep.area, rep.units_total.area);  // peripherals add area
  EXPECT_GT(rep.pass_latency, rep.unit.pass_latency);
  EXPECT_DOUBLE_EQ(rep.sample_latency, rep.pass_latency);
  EXPECT_GT(rep.energy_per_sample, 0.0);
}

TEST(Bank, ConvIterationsAreOutputPixels) {
  auto net = nn::make_vgg16();
  // conv1_1 output is 224x224.
  auto rep = simulate_bank(net.layers[0], nullptr, nullptr, net, base());
  EXPECT_EQ(rep.iterations, 224l * 224l);
  EXPECT_NEAR(rep.sample_latency, rep.pass_latency * 224 * 224, 1e-9);
}

TEST(Bank, PoolingAttachmentAddsModules) {
  auto net = nn::make_vgg16();
  const nn::Layer& conv = net.layers[1];   // conv1_2, followed by pool1
  const nn::Layer& pool = net.layers[2];
  ASSERT_EQ(pool.kind, nn::LayerKind::kPooling);
  auto with = simulate_bank(conv, &pool, nullptr, net, base());
  auto without = simulate_bank(conv, nullptr, nullptr, net, base());
  EXPECT_GT(with.pooling.area, 0.0);
  EXPECT_GT(with.pooling_buffer.area, 0.0);
  EXPECT_DOUBLE_EQ(without.pooling.area, 0.0);
  EXPECT_GT(with.area, without.area);
  EXPECT_GT(with.pass_latency, without.pass_latency);
}

TEST(Bank, ConvToConvUsesLineBuffer) {
  auto net = nn::make_vgg16();
  const nn::Layer& conv1 = net.layers[0];
  const nn::Layer& conv2 = net.layers[1];
  auto chained = simulate_bank(conv1, nullptr, &conv2, net, base());
  auto last = simulate_bank(conv1, nullptr, nullptr, net, base());
  // The Eq. 6 line buffer is far smaller than a full-feature-map register
  // bank (224*224*64 outputs).
  EXPECT_LT(chained.output_buffer.area, last.output_buffer.area);
}

TEST(Bank, EdgeUnitsAccounted) {
  auto net = nn::make_large_bank_layer();  // 2049 rows -> edge row block
  auto rep = simulate_bank(net.layers[0], nullptr, nullptr, net, base());
  // 32 full units + 4 edge units; total area must be below 36 full units.
  const double full_area = 36.0 * rep.unit.area;
  EXPECT_LT(rep.units_total.area, full_area);
  EXPECT_GT(rep.units_total.area, 0.8 * full_area);
}

TEST(Bank, AdderTreeMergesRowBlocks) {
  auto net = nn::make_large_bank_layer();
  auto rep = simulate_bank(net.layers[0], nullptr, nullptr, net, base());
  EXPECT_GT(rep.adder_tree.area, 0.0);
  // Single-block layers need no tree.
  auto small = nn::make_autoencoder_64_16_64();
  auto srep = simulate_bank(small.layers[0], nullptr, nullptr, small, base());
  EXPECT_EQ(srep.mapping.row_blocks, 1);
  EXPECT_DOUBLE_EQ(srep.adder_tree.area, 0.0);
}

TEST(Bank, ErrorRatesComeFromUsedExtent) {
  auto net = nn::make_large_bank_layer();
  auto cfg = base();
  auto rep = simulate_bank(net.layers[0], nullptr, nullptr, net, cfg);
  EXPECT_GT(rep.epsilon_worst, 0.0);
  EXPECT_LT(rep.epsilon_worst, 1.0);
  // Finer wires worsen the bank's epsilon.
  cfg.interconnect_node_nm = 18;
  auto fine = simulate_bank(net.layers[0], nullptr, nullptr, net, cfg);
  EXPECT_GT(fine.epsilon_worst, rep.epsilon_worst);
}

TEST(Bank, RejectsPoolingAsMainLayer) {
  auto net = nn::make_vgg16();
  const nn::Layer& pool = net.layers[2];
  EXPECT_THROW(simulate_bank(pool, nullptr, nullptr, net, base()),
               std::invalid_argument);
}

TEST(Bank, RejectsAnInvalidConfig) {
  auto net = nn::make_large_bank_layer();
  auto cfg = base();
  cfg.crossbar_size = 100;  // not a power of two
  EXPECT_THROW(simulate_bank(net.layers[0], nullptr, nullptr, net, cfg),
               std::invalid_argument);
}

// A one-layer FC network of `in` inputs (plus the bias row) and `out`
// outputs.
nn::Network fc_network(int in, int out) {
  nn::Network net;
  net.name = "fc";
  net.layers.push_back(nn::Layer::fully_connected("fc", in, out));
  return net;
}

double activation_energy(const circuit::Ppa& p) {
  return p.dynamic_power * p.latency;
}

// Each unit-variant shape of a bank against its units summed by hand from
// the public simulate_unit, in the bank's variant order (full, full-height
// edge-column units, edge-row full-width units, corner), bit for bit.
TEST(Bank, UnitVariantsSumTheirUnitsBitForBit) {
  const auto cfg = base();
  struct Shape {
    const char* name;
    int in, out;
    bool edge_rows, edge_cols;
  };
  for (const Shape& shape : {Shape{"full only", 511, 512, false, false},
                             Shape{"edge rows", 600, 512, true, false},
                             Shape{"edge columns", 511, 300, false, true},
                             Shape{"corner", 600, 300, true, true}}) {
    SCOPED_TRACE(shape.name);
    const auto net = fc_network(shape.in, shape.out);
    const auto rep = simulate_bank(net.layers[0], nullptr, nullptr, net, cfg);
    const LayerMapping& m = rep.mapping;
    ASSERT_EQ(m.rows_used_edge != m.rows_used_full, shape.edge_rows);
    ASSERT_EQ(m.cols_used_edge != m.cols_used_full, shape.edge_cols);
    ASSERT_GT(m.row_blocks, 1);
    ASSERT_GT(m.col_blocks, 1);

    const auto unit = [&](int r, int c) {
      return simulate_unit(r, c, net.input_bits, net.weight_bits, cfg);
    };
    const long full_rows = m.row_blocks - 1;
    const long full_cols = m.col_blocks - 1;
    std::vector<std::pair<long, UnitReport>> variants;
    const UnitReport full = unit(m.rows_used_full, m.cols_used_full);
    if (!shape.edge_rows && !shape.edge_cols) {
      variants.emplace_back(m.unit_count, full);
    } else if (!shape.edge_cols) {
      variants.emplace_back(full_rows * m.col_blocks, full);
      variants.emplace_back(m.col_blocks,
                            unit(m.rows_used_edge, m.cols_used_full));
    } else if (!shape.edge_rows) {
      variants.emplace_back(m.row_blocks * full_cols, full);
      variants.emplace_back(m.row_blocks,
                            unit(m.rows_used_full, m.cols_used_edge));
    } else {
      variants.emplace_back(full_rows * full_cols, full);
      variants.emplace_back(full_rows,
                            unit(m.rows_used_full, m.cols_used_edge));
      variants.emplace_back(full_cols,
                            unit(m.rows_used_edge, m.cols_used_full));
      variants.emplace_back(1, unit(m.rows_used_edge, m.cols_used_edge));
    }
    circuit::Ppa units;
    double unit_energy = 0.0;
    for (const auto& [count, u] : variants) {
      units.area += count * u.area;
      units.leakage_power += count * u.leakage_power;
      unit_energy += count * u.dynamic_energy_per_pass;
      units.latency = std::max(units.latency, u.pass_latency);
    }
    EXPECT_EQ(rep.units_total.area, units.area);
    EXPECT_EQ(rep.units_total.leakage_power, units.leakage_power);
    EXPECT_EQ(rep.units_total.dynamic_power, units.dynamic_power);
    EXPECT_EQ(rep.units_total.latency, units.latency);
    EXPECT_EQ(rep.pass_latency,
              units.latency + rep.adder_tree.latency + rep.pooling.latency +
                  rep.neurons.latency + rep.output_buffer.latency);
    const double peripherals =
        activation_energy(rep.adder_tree) + activation_energy(rep.pooling) +
        activation_energy(rep.pooling_buffer) +
        activation_energy(rep.neurons) +
        activation_energy(rep.output_buffer);
    EXPECT_EQ(rep.dynamic_energy_per_sample,
              (unit_energy + peripherals) * rep.iterations);
    EXPECT_EQ(rep.unit.area, full.area);
    EXPECT_EQ(rep.unit.dynamic_energy_per_pass, full.dynamic_energy_per_pass);
  }
}

// DesignContext::unit hands out references into its memo: one taken
// first must read the same report after many later geometries are
// inserted (under the sanitizers, a reference into storage that moved
// is reported here), and after the context itself is moved.
TEST(Bank, UnitReferenceOutlivesLaterInsertions) {
  const auto cfg = base();
  DesignContext context(cfg);
  const UnitReport& first = context.unit(256, 256, 8, 4);
  const UnitReport copy = first;
  for (int r = 1; r <= 64; ++r) (void)context.unit(r, 256 - r, 8, 4);
  EXPECT_EQ(&context.unit(256, 256, 8, 4), &first);
  EXPECT_EQ(first.area, copy.area);
  EXPECT_EQ(first.pass_latency, copy.pass_latency);
  EXPECT_EQ(first.dynamic_energy_per_pass, copy.dynamic_energy_per_pass);
  EXPECT_EQ(first.adcs.area, copy.adcs.area);

  std::vector<DesignContext> moved;
  moved.push_back(std::move(context));
  for (int r = 65; r <= 128; ++r) (void)moved.back().unit(r, r, 8, 4);
  EXPECT_EQ(&moved.back().unit(256, 256, 8, 4), &first);
  EXPECT_EQ(first.leakage_power, copy.leakage_power);
  EXPECT_EQ(first.read_cycles, copy.read_cycles);
}

TEST(Bank, OutputLanesFollowParallelism) {
  auto net = nn::make_large_bank_layer();
  auto cfg = base();
  cfg.parallelism = 8;
  auto rep = simulate_bank(net.layers[0], nullptr, nullptr, net, cfg);
  EXPECT_EQ(rep.output_lanes, rep.mapping.col_blocks * 8);
  // One neuron per output neuron (paper Sec. III-B.5), independent of p.
  EXPECT_EQ(rep.neuron_count, 1024);
}

}  // namespace
}  // namespace mnsim::arch
