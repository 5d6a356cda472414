#include "accuracy/noise.hpp"

#include <cmath>
#include <stdexcept>

namespace mnsim::accuracy {

using namespace mnsim::units;
using namespace mnsim::units::literals;

namespace {
constexpr double kBoltzmann = 1.380649e-23;  // [J/K]

// Standard normal upper-tail probability via the complementary error
// function: P(X > x).
double gaussian_tail(double x) { return 0.5 * std::erfc(x / std::sqrt(2.0)); }
}  // namespace

void ReadNoiseInputs::validate() const {
  if (rows <= 0) throw std::invalid_argument("ReadNoiseInputs: rows");
  if (!(sense_resistance > 0_Ohm) || !(bandwidth > 0_Hz) ||
      !(temperature > 0))
    throw std::invalid_argument("ReadNoiseInputs: parameters");
  if (output_bits < 1 || output_bits > 16)
    throw std::invalid_argument("ReadNoiseInputs: output bits");
  device.validate();
}

ReadNoiseResult estimate_read_noise(const ReadNoiseInputs& in) {
  in.validate();
  ReadNoiseResult r;

  // The noise-relevant resistance at the sense node: the column parallel
  // resistance (harmonic-mean cells) in parallel with R_s.
  const Ohms r_par = in.device.harmonic_mean_resistance() / in.rows;
  const Ohms r_eff =
      r_par * (in.sense_resistance / (r_par + in.sense_resistance));
  // v_n = sqrt(4 k T R B); the sqrt leaves the typed algebra, so the
  // R * B product crosses into raw doubles here.
  r.thermal_noise_rms = std::sqrt(4.0 * kBoltzmann * in.temperature *
                                  r_eff.value() * in.bandwidth.value());

  // Full scale at the sense node is the maximum column output.
  const Volts full_scale = in.device.v_read * (in.sense_resistance /
                                               (r_par + in.sense_resistance));
  r.lsb = (full_scale / ((1 << in.output_bits) - 1)).value();
  r.quantization_noise_rms = r.lsb / std::sqrt(12.0);
  r.total_noise_rms =
      std::hypot(r.thermal_noise_rms, r.quantization_noise_rms);
  r.snr_db = 20.0 * std::log10(full_scale.value() / r.total_noise_rms);
  r.code_flip_probability =
      r.thermal_noise_rms > 0
          ? 2.0 * gaussian_tail(0.5 * r.lsb / r.thermal_noise_rms)
          : 0.0;
  return r;
}

}  // namespace mnsim::accuracy
