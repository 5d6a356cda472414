#include <gtest/gtest.h>

#include "circuit/adc.hpp"
#include "circuit/buffer.hpp"
#include "circuit/dac.hpp"
#include "circuit/decoder.hpp"
#include "circuit/logic.hpp"
#include "circuit/neuron.hpp"

namespace mnsim::circuit {
namespace {

using namespace mnsim::units;
using namespace mnsim::units::literals;

const tech::CmosTech kCmos = tech::cmos_tech(45);

void expect_sane(const Ppa& p) {
  EXPECT_GT(p.area, 0.0);
  EXPECT_GT(p.dynamic_power, 0.0);
  EXPECT_GE(p.leakage_power, 0.0);
  EXPECT_GT(p.latency, 0.0);
}

// ---- decoder ----------------------------------------------------------------

TEST(Decoder, ComputationOrientedAddsNorPerLine) {
  DecoderModel mem{128, DecoderKind::kMemoryOriented, kCmos};
  DecoderModel cmp{128, DecoderKind::kComputationOriented, kCmos};
  EXPECT_EQ(cmp.gate_count(), mem.gate_count() + 128);
  EXPECT_GT(cmp.ppa().area, mem.ppa().area);
  EXPECT_GT(cmp.ppa().latency, mem.ppa().latency);
  expect_sane(cmp.ppa());
}

TEST(Decoder, AddressBitsCeilLog) {
  EXPECT_EQ((DecoderModel{128, DecoderKind::kMemoryOriented, kCmos})
                .address_bits(),
            7);
  EXPECT_EQ(
      (DecoderModel{100, DecoderKind::kMemoryOriented, kCmos}).address_bits(),
      7);
  EXPECT_EQ(
      (DecoderModel{2, DecoderKind::kMemoryOriented, kCmos}).address_bits(),
      1);
}

TEST(Decoder, InvalidLinesThrow) {
  DecoderModel d{0, DecoderKind::kMemoryOriented, kCmos};
  EXPECT_THROW(d.validate(), std::invalid_argument);
}

// ---- DAC --------------------------------------------------------------------

TEST(Dac, AreaGrowsExponentiallyWithBits) {
  DacModel d4{4, kCmos};
  DacModel d8{8, kCmos};
  EXPECT_GT(d8.ppa().area, 8.0 * d4.ppa().area);
  expect_sane(d8.ppa());
}

TEST(Dac, EnergyPerConversionScalesWithLevels) {
  DacModel d6{6, kCmos};
  DacModel d8{8, kCmos};
  EXPECT_NEAR(d8.conversion_energy() / d6.conversion_energy(), 4.0, 1e-9);
}

TEST(Dac, ValidatesBits) {
  DacModel d{0, kCmos};
  EXPECT_THROW(d.validate(), std::invalid_argument);
  d.bits = 20;
  EXPECT_THROW(d.validate(), std::invalid_argument);
}

// ---- ADC --------------------------------------------------------------------

TEST(Adc, RequiredBitsRule) {
  // input + weight + log2(rows), capped by the algorithm.
  EXPECT_EQ(AdcModel::required_bits(8, 4, 256, 8), 8);   // capped
  EXPECT_EQ(AdcModel::required_bits(2, 2, 4, 16), 6);    // 2+2+2
  EXPECT_EQ(AdcModel::required_bits(1, 1, 1, 16), 2);    // log2(1)=0
}

TEST(Adc, BitSerialSaLatency) {
  AdcModel sa{AdcKind::kMultiLevelSA, 8, 50_MHz, kCmos};
  EXPECT_NEAR(sa.conversion_latency().value(), 8.0 / 50e6, 1e-15);
  AdcModel flash{AdcKind::kFlash, 8, 50_MHz, kCmos};
  EXPECT_NEAR(flash.conversion_latency().value(), 1.0 / 50e6, 1e-15);
}

TEST(Adc, SarIsMostEnergyEfficient) {
  AdcModel sa{AdcKind::kMultiLevelSA, 8, 50_MHz, kCmos};
  AdcModel sar{AdcKind::kSar, 8, 50_MHz, kCmos};
  AdcModel flash{AdcKind::kFlash, 8, 50_MHz, kCmos};
  EXPECT_LT(sar.conversion_energy(), sa.conversion_energy());
  EXPECT_LT(sa.conversion_energy(), flash.conversion_energy());
}

TEST(Adc, FlashAreaExplodesWithBits) {
  AdcModel f6{AdcKind::kFlash, 6, 50_MHz, kCmos};
  AdcModel f8{AdcKind::kFlash, 8, 50_MHz, kCmos};
  EXPECT_NEAR(f8.ppa().area / f6.ppa().area, 4.0, 1e-9);
  expect_sane(f8.ppa());
}

TEST(Adc, Validation) {
  AdcModel a{AdcKind::kSar, 0, 50_MHz, kCmos};
  EXPECT_THROW(a.validate(), std::invalid_argument);
  a.bits = 8;
  a.sample_clock = 0_Hz;
  EXPECT_THROW(a.validate(), std::invalid_argument);
}

// ---- logic ------------------------------------------------------------------

TEST(Logic, AdderScalesWithBits) {
  auto a8 = adder_ppa(8, kCmos);
  auto a16 = adder_ppa(16, kCmos);
  EXPECT_NEAR(a16.area / a8.area, 2.0, 1e-9);
  EXPECT_NEAR(a16.latency / a8.latency, 2.0, 1e-9);  // ripple carry
  expect_sane(a8);
}

TEST(Logic, SubtractorSlightlyBiggerThanAdder) {
  EXPECT_GT(subtractor_ppa(8, kCmos).area, adder_ppa(8, kCmos).area);
}

TEST(Logic, MuxDepthLogarithmic) {
  auto m2 = mux_ppa(2, 1, kCmos);
  auto m16 = mux_ppa(16, 1, kCmos);
  EXPECT_NEAR(m16.latency / m2.latency, 4.0, 1e-9);
  expect_sane(m16);
}

TEST(Logic, InvalidArgsThrow) {
  EXPECT_THROW(adder_ppa(0, kCmos), std::invalid_argument);
  EXPECT_THROW(mux_ppa(0, 1, kCmos), std::invalid_argument);
  EXPECT_THROW(shifter_ppa(8, -1, kCmos), std::invalid_argument);
  EXPECT_THROW(counter_ppa(0, kCmos), std::invalid_argument);
}

TEST(AdderTree, CountsAndDepth) {
  AdderTreeModel t{8, 8, false, 0, kCmos};
  EXPECT_EQ(t.depth(), 3);
  EXPECT_EQ(t.output_bits(), 11);
  expect_sane(t.ppa());
}

TEST(AdderTree, SingleInputNeedsNoAdders) {
  AdderTreeModel t{1, 8, false, 0, kCmos};
  EXPECT_DOUBLE_EQ(t.ppa().area, 0.0);
}

TEST(AdderTree, ShiftMergeAddsLeafShifters) {
  AdderTreeModel plain{4, 8, false, 0, kCmos};
  AdderTreeModel merged{4, 8, true, 7, kCmos};
  EXPECT_GT(merged.ppa().area, plain.ppa().area);
  EXPECT_GT(merged.ppa().latency, plain.ppa().latency);
}

TEST(AdderTree, NonPowerOfTwoInputs) {
  AdderTreeModel t{5, 8, false, 0, kCmos};
  EXPECT_EQ(t.depth(), 3);
  expect_sane(t.ppa());
}

// ---- neurons / pooling --------------------------------------------------------

TEST(Neuron, SigmoidLutDominatesRelu) {
  NeuronModel sig{NeuronKind::kSigmoid, 8, kCmos};
  NeuronModel relu{NeuronKind::kRelu, 8, kCmos};
  EXPECT_GT(sig.ppa().area, 10.0 * relu.ppa().area);
  expect_sane(sig.ppa());
  expect_sane(relu.ppa());
}

TEST(Neuron, IntegrateFireHasStateRegister) {
  NeuronModel ifn{NeuronKind::kIntegrateFire, 8, kCmos};
  NeuronModel relu{NeuronKind::kRelu, 8, kCmos};
  EXPECT_GT(ifn.ppa().area, relu.ppa().area);
  expect_sane(ifn.ppa());
}

TEST(Pooling, ComparatorTreeScalesWithWindow) {
  PoolingModel p2{2, 8, kCmos};
  PoolingModel p3{3, 8, kCmos};
  EXPECT_GT(p3.ppa().area, p2.ppa().area);
  expect_sane(p2.ppa());
}

TEST(NeuronPooling, Validation) {
  NeuronModel n{NeuronKind::kRelu, 0, kCmos};
  EXPECT_THROW(n.validate(), std::invalid_argument);
  PoolingModel p{0, 8, kCmos};
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

// ---- buffers / IO ---------------------------------------------------------------

TEST(LineBuffer, Equation6Length) {
  // L = W_next (h - 1) + w.
  EXPECT_EQ(line_buffer_length(28, 3, 3), 28 * 2 + 3);
  EXPECT_EQ(line_buffer_length(14, 2, 2), 16);
  EXPECT_EQ(line_buffer_length(7, 1, 1), 1);
  EXPECT_THROW(line_buffer_length(0, 3, 3), std::invalid_argument);
}

TEST(LineBuffer, AreaScalesWithLengthBitsChannels) {
  LineBufferModel a{10, 8, 1, kCmos};
  LineBufferModel b{10, 8, 4, kCmos};
  EXPECT_NEAR(b.ppa().area / a.ppa().area, 4.0, 1e-9);
  expect_sane(a.ppa());
}

TEST(RegisterBank, WritesOneWordPerEvent) {
  RegisterBankModel r{1024, 8, kCmos};
  RegisterBankModel small{1, 8, kCmos};
  EXPECT_NEAR(r.ppa().area / small.ppa().area, 1024.0, 1e-6);
  // Dynamic power is per-write, independent of capacity.
  EXPECT_DOUBLE_EQ(r.ppa().dynamic_power, small.ppa().dynamic_power);
}

TEST(IoInterface, TransferCyclesCeil) {
  IoInterfaceModel io;
  io.wires = 128;
  io.sample_bits = 2048 * 8;
  io.tech = kCmos;
  EXPECT_EQ(io.transfer_cycles(), 128);
  io.sample_bits = 129;
  EXPECT_EQ(io.transfer_cycles(), 2);
  expect_sane(io.ppa());
}

TEST(IoInterface, MoreWiresFasterTransfer) {
  IoInterfaceModel narrow;
  narrow.wires = 64;
  narrow.sample_bits = 4096;
  narrow.tech = kCmos;
  IoInterfaceModel wide = narrow;
  wide.wires = 256;
  EXPECT_GT(narrow.transfer_latency(), wide.transfer_latency());
}

TEST(Buffers, Validation) {
  RegisterBankModel r{0, 8, kCmos};
  EXPECT_THROW(r.validate(), std::invalid_argument);
  LineBufferModel l{0, 8, 1, kCmos};
  EXPECT_THROW(l.validate(), std::invalid_argument);
  IoInterfaceModel io;
  io.wires = 0;
  EXPECT_THROW(io.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace mnsim::circuit
