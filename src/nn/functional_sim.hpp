// Functional fixed-point inference with analog error injection.
//
// Cross-checks the analytic accuracy model empirically (paper Sec. VII-A:
// "Average Relative Accuracy" of Table II and the JPEG autoencoder
// validation): a network is executed in fixed point (the ideal reference
// of Sec. VI), then re-executed with each weighted layer's
// pre-quantization analog output perturbed by the crossbar error rate,
// and the two runs are compared at the output.
//
// One Monte-Carlo driver and one forward pass (conv / pooling / FC) serve
// all three entry points. The pass is layer-major: per weight draw, a
// batch of samples goes through the network one layer at a time, each
// weighted layer as one blocked GEMM over im2col panels (conv) or the
// samples' activations (FC). Its results are bit-identical to a direct
// per-sample, per-output loop (docs/PERFORMANCE.md, "Functional
// Monte-Carlo"). The entry points:
//  * `run_monte_carlo_network` — any supported network, per-output
//    relative error drawn uniformly from [-eps_layer, +eps_layer];
//  * `run_monte_carlo` — the same driver on the bias-free MLP view of an
//    FC-only network (every layer's bias row dropped, so each draw is an
//    out x in weight matrix per layer);
//  * `run_monte_carlo_faulted` — the bias-free MLP view with the
//    perturbed run's weights rewritten through hard-defect maps
//    (fault::apply_to_signed_weights).
// `electrical_layer_outputs` instead evaluates one layer through the full
// circuit-level crossbar solve with the weights actually programmed as
// cell conductances (slow, used for small validation nets).
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_model.hpp"
#include "nn/network.hpp"
#include "nn/quantization.hpp"
#include "spice/crossbar_netlist.hpp"

namespace mnsim::nn {

struct MonteCarloConfig {
  int samples = 100;          // input samples per weight draw
  int weight_draws = 20;      // random weight matrices (paper: 20)
  std::uint32_t seed = 42;
  int signal_bits = 8;        // activation quantization
  // Worker threads over the weight draws: 1 = serial, 0 = hardware
  // concurrency. Each draw runs on its own (seed, draw)-derived RNG
  // stream and the partial statistics reduce in draw order, so results
  // are bit-identical for every thread count.
  int threads = 1;
};

struct MonteCarloResult {
  // 1 - mean(|actual - ideal|) / full_scale at the network output.
  double relative_accuracy = 0.0;
  // Largest observed per-output digital deviation, normalized.
  double max_error_rate = 0.0;
  // Mean observed per-output digital deviation, normalized (compare
  // against accuracy::avg_error_rate of the propagated epsilon).
  double avg_error_rate = 0.0;
  // Echo of the RNG seed the run used, for exact reproducibility.
  std::uint32_t seed = 0;
  // Hard defects applied across all layers (run_monte_carlo_faulted).
  int faults_injected = 0;
  // Worker threads actually used for the draw sweep.
  int threads = 1;
};

// `layer_eps[i]` is the analog error rate of the i-th weighted layer
// (from accuracy::estimate_voltage_error). The network must be fully
// connected (MLP); throws otherwise. Layer biases are ignored: the result
// equals run_monte_carlo_network on the network with has_bias = false on
// every layer. A layer whose in_features differs from the previous
// layer's outputs throws (MN-NN-001).
MonteCarloResult run_monte_carlo(const Network& network,
                                 const std::vector<double>& layer_eps,
                                 const MonteCarloConfig& config);

// General variant supporting conv / pooling / FC networks: each conv
// output pixel is one perturbed matrix-vector product (the accelerator's
// dataflow), max pooling follows its attached conv bank. A conv layer's
// input map must be the previous layer's output map (or, after an FC
// layer, hold as many values); a mismatch throws (MN-NN-001). Keep input
// maps modest (<= 32x32) — the functional conv is O(pixels * channels *
// k^2).
MonteCarloResult run_monte_carlo_network(const Network& network,
                                         const std::vector<double>& layer_eps,
                                         const MonteCarloConfig& config);

// Fault-injected variant of run_monte_carlo (bias-free MLP view): each
// layer gets two seed-deterministic defect maps (positive / negative cell
// array) drawn from `faults`, the effective weights are rewritten through
// fault::apply_to_signed_weights, and the perturbed run additionally
// carries the per-layer analog error like run_monte_carlo. The ideal
// reference stays defect-free, so the result measures the end-to-end
// inference accuracy loss caused by the defects (+ analog error).
MonteCarloResult run_monte_carlo_faulted(const Network& network,
                                         const std::vector<double>& layer_eps,
                                         const MonteCarloConfig& config,
                                         const fault::FaultConfig& faults);

// Evaluates one FC layer electrically: programs the signed weights into
// positive/negative cell matrices, drives the quantized inputs as DAC
// voltages, solves both crossbars circuit-level, and returns the
// subtracted, renormalized analog outputs alongside the ideal fixed-point
// ones. `segment_resistance`/`sense_resistance` configure the arrays.
struct ElectricalLayerResult {
  std::vector<double> analog;  // reconstructed outputs (weight-scale units)
  std::vector<double> ideal;   // fixed-point reference
  double mean_relative_error = 0.0;
};

// mnsim-analyze: allow(unreferenced-api, coming caller: the ROADMAP item "A functional oracle that does not restate the model" starts from it)
ElectricalLayerResult electrical_layer_outputs(
    const IntMatrix& weights, const std::vector<int>& inputs, int weight_bits,
    int input_bits, const tech::MemristorModel& device,
    double segment_resistance, double sense_resistance);

}  // namespace mnsim::nn
