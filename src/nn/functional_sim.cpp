#include "nn/functional_sim.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <random>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace mnsim::nn {

namespace {

// A feature map in channel-major layout.
struct Tensor {
  int channels = 0;
  int height = 0;
  int width = 0;
  std::vector<double> data;

  double& at(int c, int y, int x) {
    return data[(static_cast<std::size_t>(c) * height + y) * width + x];
  }
  [[nodiscard]] double get(int c, int y, int x) const {
    if (x < 0 || y < 0 || x >= width || y >= height) return 0.0;  // padding
    return data[(static_cast<std::size_t>(c) * height + y) * width + x];
  }
  static Tensor zeros(int c, int h, int w) {
    Tensor t;
    t.channels = c;
    t.height = h;
    t.width = w;
    t.data.assign(static_cast<std::size_t>(c) * h * w, 0.0);
    return t;
  }
};

// Forward pass with optional per-output multiplicative perturbation of
// each weighted layer's pre-activation (`rng` null = the ideal run).
// `weights` holds one matrix per weighted layer: conv [out_ch][in_ch*k*k],
// FC [out][in (+ bias)]. Activations are ReLU, so both runs share scales.
Tensor forward_network(const Network& net, const std::vector<Matrix>& weights,
                       const Tensor& input,
                       const std::vector<double>& layer_eps,
                       std::mt19937* rng) {
  Tensor x = input;
  std::size_t w_index = 0;
  for (const auto& layer : net.layers) {
    if (layer.kind == LayerKind::kPooling) {
      const int p = layer.pool_size;
      if (p <= 0 || x.height % p != 0 || x.width % p != 0)
        throw std::invalid_argument(
            "forward_network: pooling window " + std::to_string(p) +
            " does not divide feature map " + std::to_string(x.height) +
            "x" + std::to_string(x.width) + " at layer '" + layer.name +
            "' (MN-NN-003): trailing rows/cols would be silently dropped");
      Tensor y = Tensor::zeros(x.channels, x.height / p, x.width / p);
      for (int c = 0; c < y.channels; ++c)
        for (int oy = 0; oy < y.height; ++oy)
          for (int ox = 0; ox < y.width; ++ox) {
            double m = -1e300;
            for (int dy = 0; dy < p; ++dy)
              for (int dx = 0; dx < p; ++dx)
                m = std::max(m, x.get(c, oy * p + dy, ox * p + dx));
            y.at(c, oy, ox) = m;
          }
      x = std::move(y);
      continue;
    }

    const auto& w = weights.at(w_index);
    const double eps = layer_eps.at(w_index);
    ++w_index;
    std::uniform_real_distribution<double> err(-eps, eps);

    if (layer.kind == LayerKind::kConvolution) {
      const int k = layer.kernel;
      const int pad = layer.padding;
      Tensor y = Tensor::zeros(layer.out_channels, layer.out_height(),
                               layer.out_width());
      for (int oy = 0; oy < y.height; ++oy)
        for (int ox = 0; ox < y.width; ++ox)
          for (int oc = 0; oc < y.channels; ++oc) {
            double acc = 0.0;
            int row = 0;
            for (int ic = 0; ic < layer.in_channels; ++ic)
              for (int dy = 0; dy < k; ++dy)
                for (int dx = 0; dx < k; ++dx)
                  acc += w[oc][row++] *
                         x.get(ic, oy * layer.stride + dy - pad,
                               ox * layer.stride + dx - pad);
            if (rng) acc *= 1.0 + err(*rng);
            y.at(oc, oy, ox) = std::max(acc, 0.0);  // ReLU
          }
      x = std::move(y);
    } else {
      // The layer's weight rows are the flattened feature map plus, when
      // the layer has one, a trailing bias weight driven by a constant 1
      // (matrix_rows() = in_features + bias). Anything else is a fan-in
      // mismatch: computing a truncated dot product would silently skew
      // exactly the accuracy statistics this simulator exists to measure.
      const std::size_t flat = x.data.size();
      const std::size_t fan_in = w.empty() ? 0 : w.front().size();
      const bool biased = layer.has_bias && fan_in == flat + 1;
      if (!biased && fan_in != flat)
        throw std::invalid_argument(
            "forward_network: FC layer '" + layer.name + "' expects " +
            std::to_string(fan_in) + " inputs" +
            (layer.has_bias ? " (incl. bias)" : "") + " but receives a " +
            std::to_string(flat) +
            "-element feature map (MN-NN-001): fan-in mismatch");
      Tensor y = Tensor::zeros(static_cast<int>(w.size()), 1, 1);
      for (std::size_t o = 0; o < w.size(); ++o) {
        double acc = biased ? w[o][flat] : 0.0;
        for (std::size_t i = 0; i < flat; ++i) acc += w[o][i] * x.data[i];
        if (rng) acc *= 1.0 + err(*rng);
        y.data[o] = std::max(acc, 0.0);
      }
      x = std::move(y);
    }
  }
  return x;
}

// Partial deviation statistics of one weight draw; reduced in draw order
// so the parallel sweep aggregates exactly like the serial loop.
struct DrawStats {
  double deviation_sum = 0.0;
  long deviation_count = 0;
  double max_rate = 0.0;
};

// Rewrites the perturbed run's copy of weighted layer `layer`'s weights.
using WeightRewrite = std::function<void(std::size_t layer, Matrix&)>;

// The one functional Monte-Carlo driver behind all three entry points:
// per weight draw, random signed weights quantized to the network's
// precision, then per input sample an ideal and a perturbed forward pass
// (the perturbed one on the `rewrite`-d weights, when given), scored
// through one output quantizer and reduced in draw order.
MonteCarloResult monte_carlo(const Network& network,
                             const std::vector<double>& layer_eps,
                             const MonteCarloConfig& config,
                             const char* span, const std::string& who,
                             const WeightRewrite& rewrite = {}) {
  network.validate();
  std::vector<const Layer*> weighted;
  for (const auto& l : network.layers)
    if (l.is_weighted()) weighted.push_back(&l);
  if (layer_eps.size() != weighted.size())
    throw std::invalid_argument(who + ": one eps per weighted layer");
  if (config.samples <= 0 || config.weight_draws <= 0)
    throw std::invalid_argument(who + ": sample counts");
  // Quantizer level count for the deviation statistics. signal_bits = 0
  // would make k = 1 and the LSB below divide by zero — under FP traps a
  // SIGFPE, without them inf LSBs that quantize every output to bucket 0
  // and report a zero error rate for any perturbation; >= 31 overflows
  // the shift. Reject both instead of mis-reporting.
  if (config.signal_bits < 1 || config.signal_bits > 30)
    throw std::invalid_argument(who + ": signal_bits outside [1, 30]");
  const int k = 1 << config.signal_bits;

  const Layer& first = *weighted.front();
  const bool conv_input = first.kind == LayerKind::kConvolution;
  const int in_c = conv_input ? first.in_channels : first.in_features;
  const int in_h = conv_input ? first.in_height : 1;
  const int in_w = conv_input ? first.in_width : 1;

  obs::Span mc_span(span);
  util::ThreadPool pool(config.threads);
  // One task per weight draw, each on its own (seed, draw)-derived RNG
  // stream: the draw's weights, inputs and perturbations depend only on
  // the draw index, so any thread count produces the same statistics.
  const auto stats = util::parallel_map(
      pool, static_cast<std::size_t>(config.weight_draws),
      [&](std::size_t draw, std::size_t) {
        obs::Span draw_span("nn.mc_draw");
        std::mt19937 rng(util::derive_stream_seed(config.seed, draw));

        std::vector<Matrix> weights;
        std::uniform_real_distribution<double> wdist(-1.0, 1.0);
        for (const Layer* l : weighted) {
          Matrix w(static_cast<std::size_t>(l->matrix_cols()),
                   std::vector<double>(
                       static_cast<std::size_t>(l->matrix_rows())));
          for (auto& row : w)
            for (double& v : row) v = wdist(rng);
          double scale = 1.0;
          // Keep the integer codes; activations carry the scale implicitly.
          const IntMatrix q =
              quantize_symmetric(w, network.weight_bits, &scale);
          for (std::size_t o = 0; o < q.size(); ++o)
            std::copy(q[o].begin(), q[o].end(), w[o].begin());
          weights.push_back(std::move(w));
        }
        std::vector<Matrix> rewritten;
        if (rewrite) {
          rewritten = weights;
          for (std::size_t l = 0; l < rewritten.size(); ++l)
            rewrite(l, rewritten[l]);
        }
        const auto& perturbed = rewrite ? rewritten : weights;

        DrawStats st;
        std::uniform_real_distribution<double> xdist(0.0, 1.0);
        for (int s = 0; s < config.samples; ++s) {
          Tensor input = Tensor::zeros(in_c, in_h, in_w);
          for (double& v : input.data) v = xdist(rng);

          const Tensor ideal =
              forward_network(network, weights, input, layer_eps, nullptr);
          const Tensor actual =
              forward_network(network, perturbed, input, layer_eps, &rng);

          double max_out = 0.0;
          for (double v : ideal.data) max_out = std::max(max_out, v);
          if (max_out <= 0) continue;
          const double lsb = max_out / (k - 1);
          for (std::size_t o = 0; o < ideal.data.size(); ++o) {
            const long qi = std::lround(ideal.data[o] / lsb);
            const long qa = std::lround(
                std::clamp(actual.data[o], 0.0, max_out) / lsb);
            const double rate =
                static_cast<double>(std::labs(qa - qi)) / (k - 1);
            st.deviation_sum += rate;
            ++st.deviation_count;
            st.max_rate = std::max(st.max_rate, rate);
          }
        }
        return st;
      });

  double deviation_sum = 0.0;
  long deviation_count = 0;
  double max_rate = 0.0;
  for (const DrawStats& st : stats) {
    deviation_sum += st.deviation_sum;
    deviation_count += st.deviation_count;
    max_rate = std::max(max_rate, st.max_rate);
  }

  MonteCarloResult result;
  if (deviation_count > 0)
    result.avg_error_rate = deviation_sum / deviation_count;
  result.max_error_rate = max_rate;
  result.relative_accuracy = 1.0 - result.avg_error_rate;
  result.seed = config.seed;
  result.threads = static_cast<int>(pool.worker_count());
  obs::Registry::global().add("nn.mc_draws", config.weight_draws);
  obs::Registry::global().add(
      "nn.mc_samples",
      static_cast<long>(config.weight_draws) * config.samples);
  return result;
}

// The MLP entry points run the network driver on this view: every layer
// fully connected, with the bias row dropped, so each draw is an
// out x in weight matrix per layer.
Network bias_free_mlp(const Network& network, const std::string& who) {
  network.validate();
  Network mlp = network;
  for (auto& l : mlp.layers) {
    if (l.kind != LayerKind::kFullyConnected)
      throw std::invalid_argument(who + ": MLP networks only");
    l.has_bias = false;
  }
  return mlp;
}

}  // namespace

MonteCarloResult run_monte_carlo(const Network& network,
                                 const std::vector<double>& layer_eps,
                                 const MonteCarloConfig& config) {
  const std::string who = "run_monte_carlo";
  return monte_carlo(bias_free_mlp(network, who), layer_eps, config,
                     "nn.monte_carlo", who);
}

MonteCarloResult run_monte_carlo_network(const Network& network,
                                         const std::vector<double>& layer_eps,
                                         const MonteCarloConfig& config) {
  return monte_carlo(network, layer_eps, config, "nn.monte_carlo_network",
                     "run_monte_carlo_network");
}

MonteCarloResult run_monte_carlo_faulted(const Network& network,
                                         const std::vector<double>& layer_eps,
                                         const MonteCarloConfig& config,
                                         const fault::FaultConfig& faults) {
  const std::string who = "run_monte_carlo_faulted";
  const Network mlp = bias_free_mlp(network, who);

  // One defect map per layer and cell polarity, decorrelated under the
  // configured fault seed. Drawn once: the defects are a property of the
  // physical arrays, not of the Monte-Carlo weight draw, so every draw
  // sees identical (read-only) arrays regardless of scheduling.
  const auto device = tech::default_rram();
  std::vector<fault::DefectMap> pos_maps, neg_maps;
  int faults_injected = 0;
  for (std::size_t l = 0; l < mlp.layers.size(); ++l) {
    const Layer& fc = mlp.layers[l];
    pos_maps.push_back(fault::generate_defect_map(
        fc.in_features, fc.out_features, faults, device,
        static_cast<std::uint32_t>(2 * l)));
    neg_maps.push_back(fault::generate_defect_map(
        fc.in_features, fc.out_features, faults, device,
        static_cast<std::uint32_t>(2 * l + 1)));
    faults_injected +=
        pos_maps.back().fault_count() + neg_maps.back().fault_count();
  }

  // The ideal reference stays defect-free; only the perturbed run sees
  // the defects' effective weights.
  MonteCarloResult result = monte_carlo(
      mlp, layer_eps, config, "nn.monte_carlo_faulted", who,
      [&](std::size_t l, Matrix& w) {
        fault::apply_to_signed_weights(pos_maps[l], neg_maps[l],
                                       mlp.weight_bits, w);
      });
  result.faults_injected = faults_injected;
  obs::Registry::global().add("fault.faults_injected", faults_injected);
  return result;
}

ElectricalLayerResult electrical_layer_outputs(
    const IntMatrix& weights, const std::vector<int>& inputs, int weight_bits,
    int input_bits, const tech::MemristorModel& device,
    double segment_resistance, double sense_resistance) {
  if (weights.empty() || weights.front().empty())
    throw std::invalid_argument("electrical_layer_outputs: empty weights");
  const int outputs = static_cast<int>(weights.size());
  const int rows = static_cast<int>(weights.front().size());
  if (static_cast<int>(inputs.size()) != rows)
    throw std::invalid_argument("electrical_layer_outputs: input size");

  const CellMatrices cells = weights_to_cells(weights, weight_bits, device);

  // Crossbars are stored column-per-output: transpose the [out][in]
  // weight layout into [row=in][col=out] cell matrices.
  auto transpose = [&](const std::vector<std::vector<double>>& m) {
    std::vector<std::vector<double>> t(
        static_cast<std::size_t>(rows),
        std::vector<double>(static_cast<std::size_t>(outputs)));
    for (int o = 0; o < outputs; ++o)
      for (int i = 0; i < rows; ++i) t[i][o] = m[o][i];
    return t;
  };

  const int in_full_scale = (1 << input_bits) - 1;
  std::vector<double> v_in(static_cast<std::size_t>(rows));
  for (int i = 0; i < rows; ++i) {
    if (inputs[i] < 0 || inputs[i] > in_full_scale)
      throw std::invalid_argument("electrical_layer_outputs: input code");
    v_in[i] = device.v_read.value() * inputs[i] / in_full_scale;
  }

  auto make_spec = [&](const std::vector<std::vector<double>>& cell_r) {
    spice::CrossbarSpec spec;
    spec.rows = rows;
    spec.cols = outputs;
    spec.device = device;
    spec.segment_resistance = segment_resistance;
    spec.sense_resistance = sense_resistance;
    spec.input_voltages = v_in;
    spec.cell_resistance = cell_r;
    return spec;
  };

  const auto spec_pos = make_spec(transpose(cells.positive));
  const auto spec_neg = make_spec(transpose(cells.negative));

  // The positive and negative arrays share one topology, so solve them
  // as a two-entry batch: netlist build, preflight, and pattern priming
  // happen once instead of twice (spice::solve_crossbar_batch).
  std::vector<spice::CrossbarBatchEntry> batch(2);
  batch[1].cell_resistance = spec_neg.cell_resistance;
  const auto sols = spice::solve_crossbar_batch(spec_pos, batch);
  const auto& sol_pos = sols[0];
  const auto& sol_neg = sols[1];
  const auto idl_pos = spice::ideal_column_outputs(spec_pos);
  const auto idl_neg = spice::ideal_column_outputs(spec_neg);

  // Fixed-point reference dot products.
  ElectricalLayerResult result;
  result.ideal.resize(static_cast<std::size_t>(outputs), 0.0);
  for (int o = 0; o < outputs; ++o) {
    double acc = 0.0;
    for (int i = 0; i < rows; ++i)
      acc += static_cast<double>(weights[o][i]) * inputs[i];
    result.ideal[o] = acc;
  }

  // One global linear map from ideal voltage difference to the dot
  // product (least squares through the origin), then apply it to the
  // solved voltages: residuals are exactly the analog computing error.
  double num = 0.0;
  double den = 0.0;
  for (int o = 0; o < outputs; ++o) {
    const double dv = idl_pos[o] - idl_neg[o];
    num += dv * result.ideal[o];
    den += dv * dv;
  }
  const double map = den > 0 ? num / den : 0.0;

  result.analog.resize(static_cast<std::size_t>(outputs), 0.0);
  double err_sum = 0.0;
  double full_scale = 1e-300;
  for (int o = 0; o < outputs; ++o)
    full_scale = std::max(full_scale, std::fabs(result.ideal[o]));
  for (int o = 0; o < outputs; ++o) {
    const double dv =
        sol_pos.column_output_voltage[o] - sol_neg.column_output_voltage[o];
    result.analog[o] = map * dv;
    err_sum += std::fabs(result.analog[o] - result.ideal[o]) / full_scale;
  }
  result.mean_relative_error = err_sum / outputs;
  return result;
}

}  // namespace mnsim::nn
