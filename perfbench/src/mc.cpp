// func_mc: the three functional Monte-Carlo entry points, with per-layer
// analog error taken from arch::simulate_accelerator. The only workload
// that runs the nn forward passes and the fault model.
#include <algorithm>
#include <cmath>
#include <exception>

#include "arch/accelerator.hpp"
#include "common.hpp"
#include "nn/functional_sim.hpp"
#include "nn/topologies.hpp"
#include "util/parallel.hpp"

namespace perfbench {

using namespace mnsim;

namespace {

// Multiply-accumulates of one sample through `network`'s weighted layers.
long macs_per_sample(const nn::Network& network) {
  long macs = 0;
  for (const auto& l : network.layers)
    if (l.is_weighted())
      macs += l.matrix_rows() * l.matrix_cols() * l.compute_iterations();
  return macs;
}

// Average analog error of each bank, as mnsim_cli --validate-mc feeds it.
std::vector<double> bank_epsilons(const nn::Network& network,
                                  const arch::AcceleratorConfig& config) {
  std::vector<double> eps;
  for (const auto& bank : arch::simulate_accelerator(network, config).banks)
    eps.push_back(bank.epsilon_average);
  return eps;
}

class FuncMc final : public Workload {
 public:
  explicit FuncMc(const Env& env, SetupTimes* times) {
    CommonInputs in = load_common_inputs(env, times);
    std::mt19937 rng(util::derive_stream_seed(env.seed, 4));
    lenet_ = std::move(in.lenet);
    // Table II validation network: two 128x128 layers.
    mlp_ = nn::make_mlp({128, 128, 128});
    const auto lenet_eps = bank_epsilons(lenet_, in.config);
    const auto mlp_eps = bank_epsilons(mlp_, in.config);

    const auto mc = [&](int samples, int draws) {
      nn::MonteCarloConfig c;
      c.samples = samples;
      c.weight_draws = draws;
      c.seed = rng();
      c.signal_bits = in.config.output_bits;
      c.threads = 1;
      return c;
    };
    for (int k = 0; k < 2; ++k)
      calls_.push_back({Kind::kNetwork, "lenet-" + std::to_string(k), &lenet_,
                        lenet_eps, mc(5, 2), {}});
    for (int k = 0; k < 2; ++k)
      calls_.push_back({Kind::kMlp, "mlp-" + std::to_string(k), &mlp_,
                        mlp_eps, mc(100, 4), {}});
    // Seeded split of a fixed 1.5 % stuck-at rate between SA0 and SA1:
    // applying the defects costs time in proportion to their count, so a
    // fixed total keeps every seed's work equal.
    constexpr double kStuckRate = 0.015;
    const double sa0_share =
        std::uniform_real_distribution<double>(0.3, 0.7)(rng);
    fault::FaultConfig faults;
    faults.stuck_at_zero_rate = kStuckRate * sa0_share;
    faults.stuck_at_one_rate = kStuckRate - faults.stuck_at_zero_rate;
    faults.seed = rng();
    calls_.push_back(
        {Kind::kFaulted, "mlp-faulted", &mlp_, mlp_eps, mc(20, 4), faults});

    // Warm-up: one small MLP draw.
    nn::MonteCarloConfig warm = mc(10, 1);
    (void)nn::run_monte_carlo(mlp_, mlp_eps, warm);
  }

  [[nodiscard]] std::size_t calls() const override { return calls_.size(); }
  [[nodiscard]] std::string label(std::size_t i) const override {
    return calls_[i].label;
  }

  CallResult run(std::size_t i, Probe* probe) override {
    const Call& call = calls_[i];
    CallResult res;
    res.ops = static_cast<long>(call.mc.samples) * call.mc.weight_draws;
    try {
      const auto result = timed(&res.seconds, [&] {
        switch (call.kind) {
          case Kind::kNetwork:
            return nn::run_monte_carlo_network(*call.network, call.eps,
                                               call.mc);
          case Kind::kMlp:
            return nn::run_monte_carlo(*call.network, call.eps, call.mc);
          case Kind::kFaulted:
            break;
        }
        return nn::run_monte_carlo_faulted(*call.network, call.eps, call.mc,
                                           call.faults);
      });
      if (probe) {
        probe->add_time(timer_name(call.kind), res.seconds);
        // Ideal and perturbed pass per sample and draw.
        probe->count("nn.macs", 2 * res.ops * macs_per_sample(*call.network));
        probe->add_time("nn.mc_total", res.seconds);
      }
      res.outputs.key(result.relative_accuracy);
      res.outputs.key(result.max_error_rate);
      res.outputs.add(result.avg_error_rate);
      res.outputs.add(static_cast<long>(result.faults_injected));
      if (result.seed != call.mc.seed)
        res.fail(res.ops, call.label + ": seed not echoed");
      if (!(result.relative_accuracy >= 0 && result.relative_accuracy <= 1))
        res.fail(res.ops, call.label + ": relative accuracy outside [0, 1]");
      if (!(result.avg_error_rate >= 0 &&
            result.avg_error_rate <= result.max_error_rate &&
            result.max_error_rate <= 1))
        res.fail(res.ops, call.label + ": error rates inconsistent");
      if (call.kind == Kind::kFaulted && result.faults_injected <= 0)
        res.fail(res.ops, call.label + ": no fault injected");
    } catch (const std::exception& e) {
      res.fail(res.ops, call.label + ": threw: " + e.what());
    }
    return res;
  }

  [[nodiscard]] std::vector<std::string> expected_spans() const override {
    return {"nn.mc_draw"};
  }

  void derived_metrics(const Probe& probe,
                       std::map<std::string, double>& metrics) const override {
    const auto it = probe.timers().find("nn.mc_total");
    if (it != probe.timers().end() && it->second.seconds > 0)
      metrics["nn.macs_per_s"] =
          static_cast<double>(probe.counter("nn.macs")) / it->second.seconds;
  }

 private:
  enum class Kind { kNetwork, kMlp, kFaulted };
  struct Call {
    Kind kind = Kind::kMlp;
    std::string label;
    const nn::Network* network = nullptr;
    std::vector<double> eps;
    nn::MonteCarloConfig mc;
    fault::FaultConfig faults;
  };

  static const char* timer_name(Kind kind) {
    switch (kind) {
      case Kind::kNetwork:
        return "nn.mc_network_ms";
      case Kind::kMlp:
        return "nn.mc_mlp_ms";
      case Kind::kFaulted:
        break;
    }
    return "nn.mc_faulted_ms";
  }

  nn::Network lenet_;
  nn::Network mlp_;
  std::vector<Call> calls_;
};

}  // namespace

std::unique_ptr<Workload> make_func_mc(const Env& env, SetupTimes* times) {
  return std::make_unique<FuncMc>(env, times);
}

}  // namespace perfbench
