// Read-path noise analysis.
//
// Beyond the deterministic non-idealities of Eq. 9-16, the analog read
// path adds stochastic noise: thermal (Johnson) noise of the column
// resistance network integrated over the sense bandwidth, and the
// quantizer's own uniform noise. This module sizes both against the
// read-circuit LSB, yielding the signal-to-noise ratio and the
// probability that noise alone flips an output code — a floor on the
// achievable computing accuracy that the interconnect/nonlinearity model
// sits on top of.
#pragma once

#include "tech/memristor.hpp"
#include "util/quantity.hpp"

namespace mnsim::accuracy {

struct ReadNoiseInputs {
  int rows = 128;
  tech::MemristorModel device;
  units::Ohms sense_resistance{60.0};
  units::Hertz bandwidth{50e6};  // sense amplifier bandwidth
  int output_bits = 8;       // quantizer resolution
  double temperature = 300;  // [K]

  void validate() const;
};

struct ReadNoiseResult {
  double thermal_noise_rms = 0.0;   // [V] at the sense node
  double quantization_noise_rms = 0.0;  // [V] (LSB / sqrt(12))
  double total_noise_rms = 0.0;     // [V] (RSS)
  double lsb = 0.0;                 // [V] quantizer step
  double snr_db = 0.0;              // full-scale signal vs total noise
  // Probability that thermal noise moves a mid-tread sample across a
  // code boundary (Gaussian tail beyond LSB/2).
  double code_flip_probability = 0.0;
};

ReadNoiseResult estimate_read_noise(const ReadNoiseInputs& inputs);

}  // namespace mnsim::accuracy
