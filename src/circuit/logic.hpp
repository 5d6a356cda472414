// Digital glue modules: adders, the adder tree (paper Sec. III-B.2),
// subtractors (signed-weight merging, Sec. III-C.1/4), shifters
// (multi-cell weight-bit merging), column MUXes for shared read circuits
// (Sec. III-C.4), and the counter-based MUX controller.
//
// Gate-count models: ripple-carry arithmetic (the reference design is
// throughput-limited by the ADC, so a ripple adder's latency is never the
// critical path at these widths).
#pragma once

#include "circuit/module.hpp"
#include "tech/cmos_tech.hpp"

namespace mnsim::circuit {

// n-bit ripple-carry adder.
Ppa adder_ppa(int bits, const tech::CmosTech& tech);

// n-bit subtractor (adder + operand inverters).
Ppa subtractor_ppa(int bits, const tech::CmosTech& tech);

// Fixed n-bit logical shifter used when merging weight-bit slices.
Ppa shifter_ppa(int bits, int max_shift, const tech::CmosTech& tech);

// inputs-to-1 analog/digital MUX of `bits` lanes.
Ppa mux_ppa(int inputs, int bits, const tech::CmosTech& tech);

// Digital counter (the reference MUX controller, paper Sec. III-C.4).
Ppa counter_ppa(int bits, const tech::CmosTech& tech);

// Binary adder tree merging `inputs` operands of `bits` bits each
// (paper Fig. 1c): inputs-1 adders, ceil(log2 inputs) levels, operand
// width growing one bit per level. With `shift_merge` true each leaf also
// gets a shifter (the multi-crossbar weight-bit merge of Sec. III-B.2).
struct AdderTreeModel {
  int inputs = 2;
  int bits = 8;
  bool shift_merge = false;
  int max_shift = 0;
  tech::CmosTech tech;

  [[nodiscard]] int depth() const;
  [[nodiscard]] int output_bits() const { return bits + depth(); }
  [[nodiscard]] Ppa ppa() const;

  void validate() const;
};

}  // namespace mnsim::circuit
