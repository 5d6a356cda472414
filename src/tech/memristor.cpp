#include "tech/memristor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/units.hpp"

namespace mnsim::tech {

using namespace mnsim::units;
using namespace mnsim::units::literals;

Ohms MemristorModel::resistance_for_level(int level) const {
  if (level < 0 || level >= levels())
    throw std::out_of_range("MemristorModel: level out of range");
  const Siemens g_min = 1.0 / r_max;
  const Siemens g_max = 1.0 / r_min;
  const double t = levels() > 1
                       ? static_cast<double>(level) / (levels() - 1)
                       : 0.0;
  return 1.0 / (g_min + t * (g_max - g_min));
}

int MemristorModel::level_for_conductance(Siemens g) const {
  const Siemens g_min = 1.0 / r_max;
  const Siemens g_max = 1.0 / r_min;
  const Siemens clamped = std::clamp(g, g_min, g_max);
  const double t = (clamped - g_min) / (g_max - g_min);
  return static_cast<int>(std::lround(t * (levels() - 1)));
}

Ohms MemristorModel::harmonic_mean_resistance() const {
  return 2.0 / (1.0 / r_min + 1.0 / r_max);
}

Joules MemristorModel::write_pulse_energy() const {
  return v_write * v_write / harmonic_mean_resistance() * write_latency;
}

Amps MemristorModel::current(Ohms r_state, Volts v) const {
  // I = A*sinh(v / vt), with A = vt / r_state so that dI/dV at V=0 is
  // 1/r_state (linear-limit calibration). The argument saturates at
  // kMaxSinhArg: beyond it sinh would overflow double long before any
  // physical bias is reached (see memristor.hpp).
  const Amps a = nonlinearity_vt / r_state;
  const double u = std::clamp(v / nonlinearity_vt, -kMaxSinhArg, kMaxSinhArg);
  return a * std::sinh(u);
}

Ohms MemristorModel::actual_resistance(Ohms r_state, Volts v) const {
  const double u = std::min(abs(v) / nonlinearity_vt, kMaxSinhArg);
  if (u < 1e-9) return r_state;
  return r_state * u / std::sinh(u);
}

void MemristorModel::validate() const {
  if (!(r_min > 0_Ohm) || !(r_max > r_min))
    throw std::invalid_argument("MemristorModel: need 0 < r_min < r_max");
  if (level_bits < 1 || level_bits > 10)
    throw std::invalid_argument("MemristorModel: level_bits outside [1,10]");
  if (!(v_read > 0_V) || !(nonlinearity_vt > 0_V))
    throw std::invalid_argument("MemristorModel: voltages must be positive");
  if (sigma < 0 || sigma > 0.3)
    throw std::invalid_argument("MemristorModel: sigma outside [0, 0.3]");
  if (feature_nm <= 0)
    throw std::invalid_argument("MemristorModel: feature size");
  if (!(endurance > 0))
    throw std::invalid_argument("MemristorModel: endurance");
}

MemristorModel default_rram() {
  MemristorModel m;
  m.kind = DeviceKind::kRram;
  m.name = "RRAM";
  // Defaults already match Table I / the 7-bit reference device.
  m.validate();
  return m;
}

MemristorModel default_pcm() {
  MemristorModel m;
  m.kind = DeviceKind::kPcm;
  m.name = "PCM";
  m.r_min = 5_kOhm;
  m.r_max = 1_MOhm;
  m.level_bits = 4;
  m.v_read = 50_mV;
  m.v_write = 3_V;
  m.nonlinearity_vt = 80_mV;
  m.write_latency = 100_ns;  // SET/RESET pulses are slower than RRAM
  m.read_latency = 10_ns;
  m.endurance = 1e8;  // PCM wears out earlier than RRAM
  m.validate();
  return m;
}

MemristorModel default_stt_mram() {
  MemristorModel m;
  m.kind = DeviceKind::kSttMram;
  m.name = "STT-MRAM";
  m.r_min = 2_kOhm;  // parallel state
  m.r_max = 5_kOhm;  // anti-parallel: ~2.5x TMR ratio
  m.level_bits = 1;
  m.v_read = 50_mV;
  m.v_write = 0.6_V;         // spin-torque switching voltage
  m.nonlinearity_vt = 0.5_V; // MTJs are close to ohmic at read bias
  m.write_latency = 3_ns;    // fast switching
  m.read_latency = 2_ns;
  m.endurance = 1e15;        // effectively unlimited
  m.validate();
  return m;
}

MemristorModel memristor_by_name(const std::string& name) {
  if (name == "RRAM" || name == "rram") return default_rram();
  if (name == "PCM" || name == "pcm") return default_pcm();
  if (name == "STT-MRAM" || name == "stt-mram" || name == "STTMRAM")
    return default_stt_mram();
  throw std::invalid_argument("memristor_by_name: unknown device '" + name +
                              "'");
}

Area cell_area(const MemristorModel& device, CellType cell) {
  const Metres f = device.feature_nm * 1.0_nm;
  const Area f2 = f * f;
  switch (cell) {
    case CellType::k1T1R:
      return 3.0 * (device.transistor_wl + 1.0) * f2;  // Eq. 7
    case CellType::k0T1R:
      return 4.0 * f2;  // Eq. 8
  }
  throw std::logic_error("cell_area: unreachable");
}

}  // namespace mnsim::tech
