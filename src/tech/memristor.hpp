// Memristor device models (paper Sec. II-A, V-A, VI-A, VI-D).
//
// A memristor cell is a passive two-port element with a programmable
// resistance state. MNSIM treats each cell as a fixed multi-level weight
// during computation. The model covers:
//   * the resistance range [r_min, r_max] (Table I: default [500, 500k] ohm),
//   * multi-level storage (7-bit reference device, conductance-linear levels),
//   * the nonlinear V-I characteristic I = A*sinh(V / v_t), calibrated in
//     the low-voltage (linear) limit so R_act(V -> 0) = R_state — the
//     deviation R_act(V) < R_state at operating voltage is exactly the
//     non-ideal factor the accuracy model (Eq. 11) charges against small
//     crossbars,
//   * lognormal-free bounded device variation (Eq. 16: (1 +/- sigma)*R_act),
//   * cell geometry for the two cell types (Eq. 7: MOS-accessed 1T1R,
//     Eq. 8: cross-point 0T1R).
#pragma once

#include <string>

#include "util/quantity.hpp"

namespace mnsim::tech {

enum class DeviceKind { kRram, kPcm, kSttMram };
enum class CellType { k1T1R, k0T1R };

// Saturation bound on the sinh argument |v| / v_t. sinh overflows a
// double near an argument of ~710, and Newton iterates routinely
// overshoot the physical operating range mid-solve; every evaluation of
// the device law (current, actual_resistance and the MNA linearization
// that DC and transient solves share) clamps to this bound so an
// overshoot saturates instead of turning into inf conductance. 40 keeps
// the model exact over the entire representable operating range
// (sinh(40) ~ 1e17, far beyond any physical bias) while leaving 600x
// headroom to overflow.
inline constexpr double kMaxSinhArg = 40.0;

struct MemristorModel {
  DeviceKind kind = DeviceKind::kRram;
  std::string name = "RRAM";
  units::Ohms r_min{500.0};   // lowest resistance state
  units::Ohms r_max{500e3};   // highest resistance state
  int level_bits = 7;         // bits per cell (2^bits resistance levels)
  units::Volts v_read{0.05};  // full-scale input (read) voltage
  units::Volts v_write{2.0};  // programming voltage
  units::Volts nonlinearity_vt{0.05};  // sinh scale; larger = more linear
  double sigma = 0.0;         // max relative resistance deviation (0..0.3)
  double feature_nm = 45;     // memristor feature size F in nm (node label)
  units::Seconds write_latency{10e-9};  // per-level programming pulse
  units::Seconds read_latency{5e-9};    // cell read settling
  double transistor_wl = 3.0;     // W/L of the access transistor (1T1R)
  double endurance = 1e9;         // programming cycles before wear-out

  // Energy of one programming pulse: v_write^2 / R over the pulse width,
  // at the harmonic-mean resistance (the average-case rule of Sec. V-A).
  [[nodiscard]] units::Joules write_pulse_energy() const;

  [[nodiscard]] int levels() const { return 1 << level_bits; }

  // Resistance of level `level` in [0, levels-1]; levels are linear in
  // conductance (level 0 = g_min = 1/r_max, max level = g_max = 1/r_min),
  // the standard programming target for matrix storage.
  [[nodiscard]] units::Ohms resistance_for_level(int level) const;

  // Conductance-space inverse of resistance_for_level: the nearest level
  // for a desired conductance (clamped to the device range).
  [[nodiscard]] int level_for_conductance(units::Siemens g) const;

  // Harmonic mean of r_min and r_max; the paper uses it as the
  // average-case cell resistance for power estimation (Sec. V-A).
  [[nodiscard]] units::Ohms harmonic_mean_resistance() const;

  // Device current at cell voltage v for a cell programmed to r_state.
  [[nodiscard]] units::Amps current(units::Ohms r_state, units::Volts v) const;

  // Effective (chord) resistance V/I at operating voltage v. Equals
  // r_state in the linear limit v -> 0 and monotonically decreases with
  // |v| (sinh super-linearity).
  [[nodiscard]] units::Ohms actual_resistance(units::Ohms r_state,
                                              units::Volts v) const;

  // Validates invariants (0 < r_min < r_max, bits in [1, 10], ...).
  // Throws std::invalid_argument when violated.
  void validate() const;

  bool operator==(const MemristorModel&) const = default;
};

// Reference devices. The RRAM parameters follow Table I and the 7-bit
// device the case studies cite; PCM is coarser (4-bit) with a narrower
// resistance window and slower writes; STT-MRAM is binary (1-bit) with a
// small high/low ratio (~2x TMR) but near-unlimited endurance and fast,
// highly linear switching — the substrate for binary-CNN mappings.
MemristorModel default_rram();
MemristorModel default_pcm();
MemristorModel default_stt_mram();
MemristorModel memristor_by_name(const std::string& name);

// Cell area per Eq. 7 / Eq. 8. For 1T1R: 3*(W/L + 1)*F^2 with the
// access transistor W/L; for 0T1R (cross-point): 4*F^2.
units::Area cell_area(const MemristorModel& device, CellType cell);

}  // namespace mnsim::tech
