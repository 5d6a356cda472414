#include "nn/functional_sim.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace mnsim::nn {

namespace {

// ---- Random stream ---------------------------------------------------------
//
// Every draw reads the stream std::uniform_real_distribution<double> makes
// from std::mt19937, word for word: libstdc++'s generate_canonical takes two
// 32-bit words (lo + hi * 2^32) * 2^-64, kept below 1, and the distribution
// scales that to [a, b). The engine twists and tempers a whole state block
// per refill, in loops the compiler vectorizes; std's per-call path cost
// several times more and was most of a draw's time.
class Mt19937 {
 public:
  using result_type = std::uint32_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return 0xffffffffu; }

  explicit Mt19937(result_type seed) {
    state_[0] = seed;
    for (std::uint32_t i = 1; i < kN; ++i)
      state_[i] = 1812433253u * (state_[i - 1] ^ (state_[i - 1] >> 30)) + i;
  }

  result_type operator()() {
    if (next_ == kN) refill();
    return out_[next_++];
  }

 private:
  static constexpr std::size_t kN = 624;
  static constexpr std::size_t kM = 397;

  static std::uint32_t twist(std::uint32_t x, std::uint32_t x_next,
                             std::uint32_t x_m) {
    const std::uint32_t y = (x & 0x80000000u) | (x_next & 0x7fffffffu);
    return x_m ^ (y >> 1) ^ ((0u - (y & 1u)) & 0x9908b0dfu);
  }

  void refill() {
    std::size_t i = 0;
    for (; i < kN - kM; ++i)
      state_[i] = twist(state_[i], state_[i + 1], state_[i + kM]);
    for (; i < kN - 1; ++i)
      state_[i] = twist(state_[i], state_[i + 1], state_[i + kM - kN]);
    state_[kN - 1] = twist(state_[kN - 1], state_[0], state_[kM - 1]);
    for (std::size_t j = 0; j < kN; ++j) {
      std::uint32_t y = state_[j];
      y ^= y >> 11;
      y ^= (y << 7) & 0x9d2c5680u;
      y ^= (y << 15) & 0xefc60000u;
      y ^= y >> 18;
      out_[j] = y;
    }
    next_ = 0;
  }

  std::uint32_t state_[kN];
  std::uint32_t out_[kN];
  std::size_t next_ = kN;
};

// std::uniform_real_distribution<double>(a, b)(rng).
double uniform(Mt19937& rng, double a, double b) {
  const double lo = rng();
  const double hi = rng();
  double u = (lo + hi * 0x1p32) * 0x1p-64;
  if (u >= 1.0) u = std::nextafter(1.0, 0.0);
  return u * (b - a) + a;
}

// ---- Layer-major forward pass -----------------------------------------------
//
// Each weight draw runs its samples through the network one layer at a
// time, a batch of samples at once. A weighted layer lowers its inputs
// into a panel, one column per output position of one sample (conv,
// im2col with the padding zeros written there) or per sample (FC), and
// multiplies the weight rows with it in one register-blocked GEMM. Each
// output still sums its terms in (ic, dy, dx) order from 0.0, or from the
// bias weight, exactly like a direct dot product: the blocking is over
// outputs and samples only, and k is never split or reordered, so results
// are bit-identical to the direct loops. A max pooling layer is folded into
// the layer before it, which writes each output straight into its pooling
// cell.

// Register block of the GEMM kernel: weight rows x panel columns.
constexpr std::size_t kBlockRows = 4;
constexpr std::size_t kBlockCols = 4;
// Columns of a lowered panel, and its row stride (a multiple of
// kBlockCols). A fixed stride this wide also steers the compiler to
// vectorize the kernel across columns rather than along k.
constexpr std::size_t kPanelColumns = 24;
// Doubles a sample batch's working set (inputs, perturbation factors and
// activations) may take: the batch size follows from it.
constexpr std::size_t kBatchValues = 8192;

// C(i, j) = sum_k a[i][k] * b[k * kPanelColumns + j] over a block of
// kBlockRows weight rows and kBlockCols panel columns, summed in ascending
// k from 0.0, or from a[i][k_len] (the bias weight) when `biased`.
// store(i, j, value) receives each entry.
template <typename Store>
void gemm_block(const double* const* a, const double* b, std::size_t k_len,
                bool biased, const Store& store) {
  const double* ar[kBlockRows];
  double acc[kBlockRows][kBlockCols];
  for (std::size_t i = 0; i < kBlockRows; ++i) {
    ar[i] = a[i];
    for (std::size_t j = 0; j < kBlockCols; ++j)
      acc[i][j] = biased ? ar[i][k_len] : 0.0;
  }
  for (std::size_t k = 0; k < k_len; ++k, b += kPanelColumns)
    for (std::size_t i = 0; i < kBlockRows; ++i) {
      const double av = ar[i][k];
      for (std::size_t j = 0; j < kBlockCols; ++j) acc[i][j] += av * b[j];
    }
  for (std::size_t i = 0; i < kBlockRows; ++i)
    for (std::size_t j = 0; j < kBlockCols; ++j) store(i, j, acc[i][j]);
}

// C = A B for the first m weight rows of `a` and the first n columns of
// the k_len-row panel `b`. `a` holds m rounded up to kBlockRows row
// pointers and b's columns up to the block edge are finite: the blocks
// past m and n are computed and dropped. store(i, j, value) receives each
// entry with i < m and j < n.
template <typename Store>
void gemm(const double* const* a, std::size_t m, const double* b,
          std::size_t n, std::size_t k_len, bool biased, const Store& store) {
  for (std::size_t j0 = 0; j0 < n; j0 += kBlockCols)
    for (std::size_t i0 = 0; i0 < m; i0 += kBlockRows)
      gemm_block(a + i0, b + j0, k_len, biased,
                 [&](std::size_t i, std::size_t j, double v) {
                   if (i0 + i < m && j0 + j < n) store(i0 + i, j0 + j, v);
                 });
}

// One weighted layer of the forward pass with its feature-map shapes
// resolved (channel-major; an FC layer's output is out x 1 x 1), and the
// max pooling that follows it folded in.
struct Step {
  const Layer* layer = nullptr;
  int in_c = 0, in_h = 0, in_w = 0;
  int out_c = 0, out_h = 0, out_w = 0;  // before pooling
  int pool = 1;  // pooling window folded into the layer (1 = none)
  // Terms summed per output: conv in_c * k * k, FC the flattened input.
  std::size_t fan_in = 0;
  // FC layer with a trailing bias weight (weight column `fan_in`), driven
  // by a constant 1.
  bool biased = false;

  [[nodiscard]] std::size_t in_size() const {
    return static_cast<std::size_t>(in_c) * in_h * in_w;
  }
  [[nodiscard]] std::size_t out_size() const {
    return static_cast<std::size_t>(out_c) * out_h * out_w;
  }
  [[nodiscard]] std::size_t positions() const {
    return static_cast<std::size_t>(out_h) * out_w;
  }
  // The pooled map the layer writes.
  [[nodiscard]] int map_h() const { return out_h / pool; }
  [[nodiscard]] int map_w() const { return out_w / pool; }
  [[nodiscard]] std::size_t map_size() const {
    return static_cast<std::size_t>(out_c) * map_h() * map_w();
  }
};

// Resolves every weighted layer's shapes from the first one's input,
// folds each pooling layer into the layer before it, and rejects a chain
// the forward pass cannot run.
std::vector<Step> plan_forward(const Network& net) {
  std::vector<Step> steps;
  int c = 0, h = 0, w = 0;  // current map; 0 channels = no map yet
  for (const auto& layer : net.layers) {
    if (layer.kind == LayerKind::kPooling) {
      // Network::validate puts a weighted layer before any pooling.
      const int p = layer.pool_size;
      if (p <= 0 || h % p != 0 || w % p != 0)
        throw std::invalid_argument(
            "forward_network: pooling window " + std::to_string(p) +
            " does not divide feature map " + std::to_string(h) + "x" +
            std::to_string(w) + " at layer '" + layer.name +
            "' (MN-NN-003): trailing rows/cols would be silently dropped");
      steps.back().pool *= p;
      h /= p, w /= p;
      continue;
    }
    Step st;
    st.layer = &layer;
    if (layer.kind == LayerKind::kConvolution) {
      // The input map is the previous layer's or, after an FC layer, its
      // flat outputs read as the declared map.
      const long declared = static_cast<long>(layer.in_channels) *
                            layer.in_height * layer.in_width;
      const bool spatial = h > 1 || w > 1;
      const bool matches =
          c == 0 || (spatial ? c == layer.in_channels &&
                                   h == layer.in_height && w == layer.in_width
                             : static_cast<long>(c) == declared);
      if (!matches)
        throw std::invalid_argument(
            "forward_network: conv layer '" + layer.name + "' expects a " +
            std::to_string(layer.in_channels) + "x" +
            std::to_string(layer.in_height) + "x" +
            std::to_string(layer.in_width) + " input map but receives " +
            std::to_string(c) + "x" + std::to_string(h) + "x" +
            std::to_string(w) + " (MN-NN-001): shape-chain mismatch");
      st.in_c = layer.in_channels, st.in_h = layer.in_height,
      st.in_w = layer.in_width;
      st.out_c = layer.out_channels, st.out_h = layer.out_height(),
      st.out_w = layer.out_width();
      st.fan_in = static_cast<std::size_t>(layer.matrix_rows());
    } else {
      // The weight rows are the flattened feature map plus, when the layer
      // has one, a trailing bias weight (matrix_rows() = in_features +
      // bias). Anything else is a fan-in mismatch: a truncated dot product
      // would silently skew exactly the accuracy statistics this simulator
      // exists to measure.
      if (c == 0) c = layer.in_features, h = 1, w = 1;
      const std::size_t flat = static_cast<std::size_t>(c) * h * w;
      const auto rows = static_cast<std::size_t>(layer.matrix_rows());
      st.biased = layer.has_bias && rows == flat + 1;
      if (!st.biased && rows != flat)
        throw std::invalid_argument(
            "forward_network: FC layer '" + layer.name + "' expects " +
            std::to_string(rows) + " inputs" +
            (layer.has_bias ? " (incl. bias)" : "") + " but receives a " +
            std::to_string(flat) +
            "-element feature map (MN-NN-001): fan-in mismatch");
      st.in_c = static_cast<int>(flat), st.in_h = 1, st.in_w = 1;
      st.out_c = layer.out_features, st.out_h = 1, st.out_w = 1;
      st.fan_in = flat;
    }
    c = st.out_c, h = st.out_h, w = st.out_w;
    steps.push_back(st);
  }
  return steps;
}

// One input of a layer and where its outputs go: `ideal` receives
// relu(acc), `perturbed` relu(acc * (1 + err)); either may be null.
struct Lane {
  const double* in = nullptr;
  double* ideal = nullptr;
  double* perturbed = nullptr;
  const double* err = nullptr;
};

// Writes one pre-activation to a lane's maps at `cell`, keeping the
// larger value there: a folded max pooling window fills one cell in the
// order a direct pooling loop visits it, from the same -1e300. `e` indexes
// the lane's perturbation factors.
inline void emit(const Lane& lane, std::size_t cell, std::size_t e,
                 double acc) {
  if (lane.ideal)
    lane.ideal[cell] = std::max(lane.ideal[cell], std::max(acc, 0.0));
  if (lane.perturbed)
    lane.perturbed[cell] = std::max(
        lane.perturbed[cell], std::max(acc * (1.0 + lane.err[e]), 0.0));
}

// Working buffers of one pool task, reused across layers and draws.
// Layer i writes ping-pong buffer i % 2, sized for the largest map it
// holds.
struct Workspace {
  std::vector<double> inputs;            // batch x input size
  std::vector<std::vector<double>> err;  // per weighted layer
  std::vector<double> act[2][2];         // [ideal/perturbed][ping-pong]
  std::vector<double> panel;             // fan_in x kPanelColumns
  std::vector<std::size_t> cells;        // pooled cell of each panel column
  std::vector<const double*> rows;       // weight rows of the layer
  std::vector<Lane> lanes;
};

// Writes positions [p0, p0 + n) of `x`'s lowering into the panel:
// panel[k * kPanelColumns + j] is term k, in (ic, dy, dx) order, of
// position p0 + j, 0.0 where the window overhangs the padding.
void im2col(const Step& st, const double* x, std::size_t p0, std::size_t n,
            double* panel) {
  const Layer& l = *st.layer;
  const int k = l.kernel;
  double* dst = panel;
  for (int ic = 0; ic < st.in_c; ++ic)
    for (int dy = 0; dy < k; ++dy)
      for (int dx = 0; dx < k; ++dx, dst += kPanelColumns) {
        int oy = static_cast<int>(p0 / st.out_w);
        int ox = static_cast<int>(p0 % st.out_w);
        for (std::size_t j = 0; j < n; ++j) {
          const int iy = oy * l.stride + dy - l.padding;
          const int ix = ox * l.stride + dx - l.padding;
          dst[j] = iy >= 0 && iy < st.in_h && ix >= 0 && ix < st.in_w
                       ? x[(static_cast<std::size_t>(ic) * st.in_h + iy) *
                               st.in_w +
                           ix]
                       : 0.0;
          if (++ox == st.out_w) ox = 0, ++oy;
        }
      }
}

// A weighted layer over `lanes` with weights `w` ([out][fan_in (+ bias)]).
// Conv outputs are channel-major with perturbation factors in (oy, ox, oc)
// order; FC panels put the lanes side by side, so each weight load serves
// all of them.
void weighted_layer(const Step& st, const Matrix& w,
                    const std::vector<Lane>& lanes, Workspace& ws) {
  const std::size_t outputs = w.size();
  // Whole row blocks: the last block repeats the last row.
  ws.rows.resize((outputs + kBlockRows - 1) / kBlockRows * kBlockRows);
  for (std::size_t o = 0; o < ws.rows.size(); ++o)
    ws.rows[o] = w[std::min(o, outputs - 1)].data();
  ws.panel.resize(std::max(ws.panel.size(), st.fan_in * kPanelColumns));
  double* panel = ws.panel.data();
  if (st.layer->kind == LayerKind::kFullyConnected) {
    for (std::size_t c0 = 0; c0 < lanes.size(); c0 += kPanelColumns) {
      const std::size_t n = std::min(kPanelColumns, lanes.size() - c0);
      for (std::size_t k = 0; k < st.fan_in; ++k)
        for (std::size_t j = 0; j < n; ++j)
          panel[k * kPanelColumns + j] = lanes[c0 + j].in[k];
      gemm(ws.rows.data(), outputs, panel, n, st.fan_in, st.biased,
           [&](std::size_t o, std::size_t j, double acc) {
             emit(lanes[c0 + j], o, o, acc);
           });
    }
    return;
  }
  ws.cells.resize(kPanelColumns);
  const std::size_t positions = st.positions();
  const std::size_t map_cells =
      static_cast<std::size_t>(st.map_h()) * st.map_w();
  for (const Lane& lane : lanes)
    for (std::size_t p0 = 0; p0 < positions; p0 += kPanelColumns) {
      const std::size_t n = std::min(kPanelColumns, positions - p0);
      im2col(st, lane.in, p0, n, panel);
      for (std::size_t j = 0; j < n; ++j) {
        const int oy = static_cast<int>((p0 + j) / st.out_w);
        const int ox = static_cast<int>((p0 + j) % st.out_w);
        ws.cells[j] = static_cast<std::size_t>(oy / st.pool) * st.map_w() +
                      static_cast<std::size_t>(ox / st.pool);
      }
      gemm(ws.rows.data(), outputs, panel, n, st.fan_in, false,
           [&](std::size_t oc, std::size_t j, double acc) {
             emit(lane, oc * map_cells + ws.cells[j],
                  (p0 + j) * outputs + oc, acc);
           });
    }
}

// Final maps of a batch: sample s at ideal/perturbed + s * stride.
struct BatchOutputs {
  const double* ideal = nullptr;
  const double* perturbed = nullptr;
  std::size_t stride = 0;
};

// Runs the nb samples of ws.inputs through `steps` one layer at a time;
// `stride` is each ping-pong buffer's per-sample size. The perturbed run
// multiplies each layer's pre-activations by 1 + ws.err and uses the
// `perturbed` weights; when those are `weights` itself, the first layer's
// pre-activations are computed once for both runs, since both start from
// the same inputs.
BatchOutputs forward_batch(const std::vector<Step>& steps,
                           const std::vector<Matrix>& weights,
                           const std::vector<Matrix>& perturbed,
                           std::size_t nb,
                           const std::array<std::size_t, 2>& stride,
                           Workspace& ws) {
  const double* in[2] = {ws.inputs.data(), ws.inputs.data()};
  std::size_t in_stride = steps.front().in_size();
  for (std::size_t l = 0; l < steps.size(); ++l) {
    const Step& step = steps[l];
    const std::size_t out_stride = stride[l % 2];
    double* out[2] = {ws.act[0][l % 2].data(), ws.act[1][l % 2].data()};
    for (double* map : out) std::fill_n(map, nb * out_stride, -1e300);
    const auto lane = [&](int run, std::size_t s, bool ideal, bool pert) {
      return Lane{in[run] + s * in_stride,
                  ideal ? out[0] + s * out_stride : nullptr,
                  pert ? out[1] + s * out_stride : nullptr,
                  ws.err[l].data() + s * step.out_size()};
    };
    const auto layer_pass = [&] {
      ws.lanes.clear();
      if (in[0] == in[1] && &weights == &perturbed) {
        for (std::size_t s = 0; s < nb; ++s)
          ws.lanes.push_back(lane(0, s, true, true));
        weighted_layer(step, weights[l], ws.lanes, ws);
        return;
      }
      for (std::size_t s = 0; s < nb; ++s)
        ws.lanes.push_back(lane(0, s, true, false));
      if (&weights != &perturbed) {
        weighted_layer(step, weights[l], ws.lanes, ws);
        ws.lanes.clear();
      }
      // Same weights: the perturbed lanes join the ideal ones in one pass,
      // so each weight load serves both runs.
      for (std::size_t s = 0; s < nb; ++s)
        ws.lanes.push_back(lane(1, s, false, true));
      weighted_layer(step, perturbed[l], ws.lanes, ws);
    };
    if (step.layer->kind == LayerKind::kConvolution) {
      obs::Span layer_span("nn.conv");
      layer_pass();
    } else {
      obs::Span layer_span("nn.fc");
      layer_pass();
    }
    in[0] = out[0];
    in[1] = out[1];
    in_stride = out_stride;
  }
  return {in[0], in[1], in_stride};
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
  if (layer_eps.size() != static_cast<std::size_t>(network.depth()))
    throw std::invalid_argument(who + ": one eps per weighted layer");
  // A NaN or infinite eps turns every perturbed output into NaN/inf (and
  // std::lround of NaN traps under FP exceptions); a negative one draws
  // the factors from uniform(-eps, eps) with a > b, which
  // std::uniform_real_distribution forbids.
  for (double eps : layer_eps)
    if (!std::isfinite(eps) || eps < 0.0)
      throw std::invalid_argument(who + ": eps must be finite and >= 0");
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

  const std::vector<Step> steps = plan_forward(network);
  std::array<std::size_t, 2> stride = {0, 0};  // per ping-pong buffer
  std::size_t sample_err = 0;  // perturbation factors per sample
  long macs_per_sample = 0;    // executed multiply-accumulates
  for (std::size_t l = 0; l < steps.size(); ++l) {
    const Layer& layer = *steps[l].layer;
    stride[l % 2] = std::max(stride[l % 2], steps[l].map_size());
    sample_err += steps[l].out_size();
    // Without a rewrite the first layer's pre-activations are shared by
    // both runs: computed once.
    macs_per_sample += (l == 0 && !rewrite ? 1 : 2) * layer.matrix_rows() *
                       layer.matrix_cols() * layer.compute_iterations();
  }
  const std::size_t in_size = steps.front().in_size();
  const std::size_t out_size = steps.back().map_size();
  // Samples per batch: as many as fit the budget, in whole column blocks.
  std::size_t batch = std::max<std::size_t>(
      1, kBatchValues / (in_size + sample_err + 2 * (stride[0] + stride[1])));
  if (batch > kBlockCols) batch -= batch % kBlockCols;
  batch = std::min(batch, static_cast<std::size_t>(config.samples));

  obs::Span mc_span(span);
  util::ThreadPool pool(config.threads);
  std::vector<Workspace> workspaces(pool.worker_count());
  // One task per weight draw, each on its own (seed, draw)-derived RNG
  // stream: the draw's weights, inputs and perturbations depend only on
  // the draw index, so any thread count produces the same statistics.
  const auto stats = util::parallel_map(
      pool, static_cast<std::size_t>(config.weight_draws),
      [&](std::size_t draw, std::size_t worker) {
        obs::Span draw_span("nn.mc_draw");
        Mt19937 rng(util::derive_stream_seed(config.seed, draw));

        // Random signed weights quantized to the network's precision; keep
        // the integer codes, activations carry the scale implicitly.
        std::vector<Matrix> weights;
        for (const Step& st : steps) {
          Matrix w(static_cast<std::size_t>(st.layer->matrix_cols()),
                   std::vector<double>(
                       static_cast<std::size_t>(st.layer->matrix_rows())));
          for (auto& row : w)
            for (double& v : row) v = uniform(rng, -1.0, 1.0);
          double scale = 1.0;
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

        Workspace& ws = workspaces[worker];
        ws.inputs.resize(batch * in_size);
        ws.err.resize(steps.size());
        for (std::size_t l = 0; l < steps.size(); ++l)
          ws.err[l].resize(batch * steps[l].out_size());
        for (auto& run : ws.act)
          for (int p = 0; p < 2; ++p) run[p].resize(batch * stride[p]);

        DrawStats st;
        for (int s0 = 0; s0 < config.samples;
             s0 += static_cast<int>(batch)) {
          const std::size_t nb = std::min(
              batch, static_cast<std::size_t>(config.samples - s0));
          // The RNG order of the sample-by-sample pass: each sample's
          // inputs, then one perturbation factor per output of each
          // weighted layer, conv outputs in (oy, ox, oc) order.
          for (std::size_t s = 0; s < nb; ++s) {
            for (std::size_t i = 0; i < in_size; ++i)
              ws.inputs[s * in_size + i] = uniform(rng, 0.0, 1.0);
            for (std::size_t l = 0; l < steps.size(); ++l) {
              const std::size_t n = steps[l].out_size();
              for (std::size_t e = 0; e < n; ++e)
                ws.err[l][s * n + e] =
                    uniform(rng, -layer_eps[l], layer_eps[l]);
            }
          }

          const BatchOutputs out =
              forward_batch(steps, weights, perturbed, nb, stride, ws);
          for (std::size_t s = 0; s < nb; ++s) {
            const double* ideal = out.ideal + s * out.stride;
            const double* actual = out.perturbed + s * out.stride;
            double max_out = 0.0;
            for (std::size_t o = 0; o < out_size; ++o)
              max_out = std::max(max_out, ideal[o]);
            if (max_out <= 0) continue;
            const double lsb = max_out / (k - 1);
            for (std::size_t o = 0; o < out_size; ++o) {
              const long qi = std::lround(ideal[o] / lsb);
              const long qa =
                  std::lround(std::clamp(actual[o], 0.0, max_out) / lsb);
              const double rate =
                  static_cast<double>(std::labs(qa - qi)) / (k - 1);
              st.deviation_sum += rate;
              ++st.deviation_count;
              st.max_rate = std::max(st.max_rate, rate);
            }
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
  const long samples = static_cast<long>(config.weight_draws) * config.samples;
  obs::Registry::global().add("nn.mc_draws", config.weight_draws);
  obs::Registry::global().add("nn.mc_samples", samples);
  obs::Registry::global().add("nn.mc_macs", samples * macs_per_sample);
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
