// Golden values of the cycle engine.
//
// simulate_cycles is a pure integer function of its inputs, so its whole
// result is pinned bit for bit: a 64-bit FNV-1a digest over a canonical
// dump (every CycleSimResult scalar, every CycleBankStats field, every
// recorded event, the diagnostic codes) per network, scratchpad sizing
// and dataflow, plus a few readable literals. Any change to the tile walk
// that moves a cycle, reorders a byte sum or records one event too many
// shows up here instead of silently shifting results/ and the DSE stall
// and traffic objectives.
//
// The grid covers both kinds of bank schedule: streamed banks (weight
// stationary, and input-/output-stationary banks whose sample does not
// fit, MN-CYC-005) and resident-ifmap / resident-ofmap banks, each under
// both fill policies, at a starved (0.05 GB/s) and an unconstrained
// backing bandwidth. The event caps 100 and 256 are not multiples of the
// three events a streamed tile records, so a cap overshoot would show.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "arch/cycle_sim.hpp"
#include "nn/generator.hpp"
#include "nn/topologies.hpp"

namespace mnsim::arch {
namespace {

class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(long v) { add(static_cast<std::uint64_t>(v)); }
  void add(int v) { add(static_cast<long>(v)); }
  void add(bool v) { add(static_cast<long>(v)); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const std::string& s) {
    add(static_cast<long>(s.size()));
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void add_result(Fnv1a& h, const CycleSimResult& r) {
  h.add(r.clock_hz);
  h.add(static_cast<int>(r.dataflow));
  h.add(static_cast<int>(r.fill_policy));
  h.add(r.makespan_cycles);
  h.add(r.makespan_seconds);
  h.add(r.total_tiles);
  h.add(r.total_busy_cycles);
  h.add(r.total_stall_cycles);
  h.add(r.backing_traffic_bytes);
  h.add(r.weight_image_bytes);
  h.add(r.pe_scheduled_fraction);
  h.add(r.pe_active_fraction);
  h.add(r.stall_fraction);
  h.add(static_cast<long>(r.banks.size()));
  for (const auto& s : r.banks) {
    h.add(s.tiles);
    h.add(s.compute_cycles_per_tile);
    h.add(s.start_cycle);
    h.add(s.finish_cycle);
    h.add(s.busy_cycles);
    h.add(s.dependency_stall_cycles);
    h.add(s.fill_stall_cycles);
    h.add(s.drain_stall_cycles);
    h.add(s.idle_cycles);
    h.add(s.utilization);
    h.add(s.ifmap_capacity_tiles);
    h.add(s.ofmap_capacity_tiles);
    h.add(s.ifmap_bytes);
    h.add(s.ofmap_bytes);
    h.add(s.filter_bytes);
    h.add(s.bus_busy_cycles);
    h.add(s.bus_utilization);
    h.add(s.resident_ifmap);
    h.add(s.resident_ofmap);
  }
  h.add(static_cast<long>(r.events.size()));
  for (const auto& e : r.events) {
    h.add(e.bank);
    h.add(e.tile);
    h.add(static_cast<int>(e.phase));
    h.add(e.start_cycle);
    h.add(e.end_cycle);
  }
  h.add(static_cast<long>(r.diagnostics.size()));
  for (const auto& d : r.diagnostics) h.add(d.code);
}

AcceleratorConfig base() {
  AcceleratorConfig c;
  c.cmos_node_nm = 45;
  c.crossbar_size = 128;
  c.interconnect_node_nm = 45;
  c.cycle_enabled = true;
  return c;
}

enum class Sizing {
  kDefault,        // 32 / 256 / 32 KB: most IS/OS samples stream
  kUnconstrained,  // 1e5 KB everywhere: every sample is resident
  kSmallOfmap,     // 1e5 KB ifmap and filter, 32 KB ofmap: IS drain stalls
};

AcceleratorConfig sized(Sizing sizing) {
  AcceleratorConfig c = base();
  if (sizing != Sizing::kDefault) {
    c.cycle_ifmap_kb = 1e5;
    c.cycle_filter_kb = 1e5;
    c.cycle_ofmap_kb = sizing == Sizing::kSmallOfmap ? 32.0 : 1e5;
  }
  return c;
}

nn::Network generated(std::uint32_t seed) {
  nn::GeneratorOptions opt;
  opt.seed = seed;
  opt.min_layers = 3;
  opt.max_width = 512;
  return nn::random_network(opt);
}

struct Golden {
  const char* name;
  std::uint64_t digest;
};

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llxull",
                static_cast<unsigned long long>(v));
  return buf;
}

// One digest per network / sizing / dataflow over both fill policies,
// both bandwidths and the three event caps (12 simulations each).
std::uint64_t digest(const AcceleratorReport& rep, Sizing sizing,
                     Dataflow dataflow) {
  Fnv1a h;
  for (FillPolicy policy : {FillPolicy::kPrefetch, FillPolicy::kDemand}) {
    for (double gbps : {0.05, 1e6}) {
      for (long cap : {0L, 100L, 256L}) {
        AcceleratorConfig cfg = sized(sizing);
        cfg.cycle_dataflow = dataflow;
        cfg.cycle_fill_policy = policy;
        cfg.cycle_bandwidth_gbps = gbps;
        cfg.cycle_max_events = cap;
        add_result(h, simulate_cycles(rep, cfg));
      }
    }
  }
  return h.value();
}

// On a mismatch the message lists every digest of the network in the
// literal syntax of the tables below.
void expect_digests(const nn::Network& net, const char* tag,
                    const std::vector<Golden>& goldens) {
  const AcceleratorReport rep = simulate_accelerator(net, base());
  const char* sizing_names[] = {"default", "unconstrained", "small-ofmap"};
  const char* dataflow_names[] = {"WS", "IS", "OS"};
  std::vector<std::string> names;
  std::vector<std::uint64_t> got;
  std::string table;
  for (Sizing sizing :
       {Sizing::kDefault, Sizing::kUnconstrained, Sizing::kSmallOfmap}) {
    for (Dataflow dataflow :
         {Dataflow::kWeightStationary, Dataflow::kInputStationary,
          Dataflow::kOutputStationary}) {
      names.push_back(std::string(tag) + "/" +
                      sizing_names[static_cast<int>(sizing)] + "/" +
                      dataflow_names[static_cast<int>(dataflow)]);
      got.push_back(digest(rep, sizing, dataflow));
      table += "{\"" + names.back() + "\", " + hex64(got.back()) + "},\n";
    }
  }
  ASSERT_EQ(goldens.size(), got.size()) << table;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(names[i], goldens[i].name);
    EXPECT_EQ(got[i], goldens[i].digest) << names[i] << "\n" << table;
  }
}

TEST(CycleGolden, Vgg16) {
  expect_digests(nn::make_vgg16(), "vgg16",
                 {
                     {"vgg16/default/WS", 0x3b0eca3562ba9c49ull},
                     {"vgg16/default/IS", 0x13583a2fa5d242f1ull},
                     {"vgg16/default/OS", 0x716b06e617342001ull},
                     {"vgg16/unconstrained/WS", 0x034fbcb416e00cb1ull},
                     {"vgg16/unconstrained/IS", 0x894a18ec1a426005ull},
                     {"vgg16/unconstrained/OS", 0x1e1ae00c53ab2b1cull},
                     {"vgg16/small-ofmap/WS", 0x6037ad6c2e9aede1ull},
                     {"vgg16/small-ofmap/IS", 0xe2c15b40e6c12c55ull},
                     {"vgg16/small-ofmap/OS", 0x64dd4fb5db9d54a1ull},
                 });
}

TEST(CycleGolden, CaffeNet) {
  expect_digests(nn::make_caffenet(), "caffenet",
                 {
                     {"caffenet/default/WS", 0x5d27952ce831b3fdull},
                     {"caffenet/default/IS", 0xf146fddb2b1b480dull},
                     {"caffenet/default/OS", 0x7f73af33da1bec7dull},
                     {"caffenet/unconstrained/WS", 0x50aadafb947db959ull},
                     {"caffenet/unconstrained/IS", 0xb790784c575a6549ull},
                     {"caffenet/unconstrained/OS", 0x8a795af98404b169ull},
                     {"caffenet/small-ofmap/WS", 0x365c88a1e67c2b79ull},
                     {"caffenet/small-ofmap/IS", 0x58b9de94757525a1ull},
                     {"caffenet/small-ofmap/OS", 0x89d1564eecab1001ull},
                 });
}

TEST(CycleGolden, GeneratedSeed4) {
  expect_digests(generated(4), "gen4",
                 {
                     {"gen4/default/WS", 0xd936a208da63a6c9ull},
                     {"gen4/default/IS", 0x9649d7baf364c005ull},
                     {"gen4/default/OS", 0x8d24b0b114852212ull},
                     {"gen4/unconstrained/WS", 0xeeebcee27a30ca85ull},
                     {"gen4/unconstrained/IS", 0x78306f2f137f8711ull},
                     {"gen4/unconstrained/OS", 0x343eab2bba356ef2ull},
                     {"gen4/small-ofmap/WS", 0xeeebcee27a30ca85ull},
                     {"gen4/small-ofmap/IS", 0x78306f2f137f8711ull},
                     {"gen4/small-ofmap/OS", 0x343eab2bba356ef2ull},
                 });
}

TEST(CycleGolden, GeneratedSeed14) {
  expect_digests(generated(14), "gen14",
                 {
                     {"gen14/default/WS", 0x033fa3fc7e6b32edull},
                     {"gen14/default/IS", 0x6a6afd553b681ba1ull},
                     {"gen14/default/OS", 0x3b937a0f9ac856f4ull},
                     {"gen14/unconstrained/WS", 0x89e74c7b0d138729ull},
                     {"gen14/unconstrained/IS", 0xf3a7da7dc5197791ull},
                     {"gen14/unconstrained/OS", 0x92f51653e1e8b604ull},
                     {"gen14/small-ofmap/WS", 0x13a78d9acc283ce5ull},
                     {"gen14/small-ofmap/IS", 0x7829122ae354e125ull},
                     {"gen14/small-ofmap/OS", 0xc03f43eed48c16c8ull},
                 });
}

// Readable anchors for the digests above: CaffeNet at 0.05 GB/s behind a
// 32 KB ofmap. Weight stationary streams every tile (no drain stalls);
// input stationary holds the whole ifmap, so only drains can stall.
TEST(CycleGolden, CaffeNetStarvedSmallOfmap) {
  const AcceleratorReport rep =
      simulate_accelerator(nn::make_caffenet(), base());
  AcceleratorConfig cfg = sized(Sizing::kSmallOfmap);
  cfg.cycle_bandwidth_gbps = 0.05;
  cfg.cycle_max_events = 100;

  const auto ws = simulate_cycles(rep, cfg);
  EXPECT_EQ(ws.makespan_cycles, 254114336);
  EXPECT_EQ(ws.makespan_seconds, 0x1.66fc5c2c8d95dp-5);
  EXPECT_EQ(ws.total_stall_cycles, 864074500);
  EXPECT_EQ(ws.backing_traffic_bytes, 0x1.362c18p+22);
  long dep = 0, fill = 0, drain = 0;
  for (const auto& bank : ws.banks) {
    dep += bank.dependency_stall_cycles;
    fill += bank.fill_stall_cycles;
    drain += bank.drain_stall_cycles;
  }
  EXPECT_EQ(dep, 296814209);
  EXPECT_EQ(fill, 567260291);
  EXPECT_EQ(drain, 0);
  EXPECT_EQ(ws.events.size(), 100u);

  cfg.cycle_dataflow = Dataflow::kInputStationary;
  cfg.cycle_max_events = 256;
  const auto is = simulate_cycles(rep, cfg);
  EXPECT_EQ(is.makespan_cycles, 589389064);
  EXPECT_EQ(is.total_stall_cycles, 52064812);
  EXPECT_TRUE(is.diagnostics.empty());
  drain = 0;
  for (const auto& bank : is.banks) {
    EXPECT_TRUE(bank.resident_ifmap);
    EXPECT_EQ(bank.dependency_stall_cycles, 0);
    EXPECT_EQ(bank.fill_stall_cycles, 0);
    drain += bank.drain_stall_cycles;
  }
  EXPECT_EQ(drain, 52064812);
  EXPECT_EQ(is.events.size(), 256u);
}

}  // namespace
}  // namespace mnsim::arch
