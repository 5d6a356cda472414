#include "arch/cycle_sim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mnsim::arch {
namespace {

// The stretch tests scale cycle counts (up to ~4.5e15, the MN-CYC-004
// bound) by tile counts, which passes 2^63; 128 bits hold every product
// they form.
__extension__ typedef __int128 Wide;

// Largest schedule the integer cycle domain admits (MN-CYC-004): far
// inside the exact range of long, and of double for the seconds.
constexpr double kMaxScheduleCycles = 4.5e15;

// Integer cycles of one matrix-vector pass. A scheduled pass occupies at
// least one cycle so zero-latency degenerate banks still serialize.
long pass_cycles(double latency, double clock_hz) {
  return std::max<long>(1, std::llround(latency * clock_hz));
}

// Backing-bus cycles of one transfer. Every transfer occupies at least
// one cycle: the bus grant itself is not free, and a zero-length
// occupancy would let unbounded traffic hide inside one cycle.
long transfer_cycles(double bytes, double bytes_per_cycle) {
  return std::max<long>(1,
                        static_cast<long>(std::ceil(bytes / bytes_per_cycle)));
}

// Slots of a tile-granular ring: as many whole tiles as the capacity
// holds, never more than the bank has tiles. The clamp happens in double,
// before the cast, so a huge capacity cannot overflow long.
long ring_slots(double capacity, double tile, long tiles) {
  const double slots = capacity / std::max(tile, 1.0);
  return slots >= static_cast<double>(tiles) ? tiles
                                             : static_cast<long>(slots);
}

// `n` copies of the integral byte count `bytes`, summed one tile at a
// time as the walk accrues traffic. While the product stays below 2^53
// every partial sum is an exact integer, so the product is that sum;
// past it the rounding depends on the order, so add them up.
double tile_sum(long n, double bytes) {
  const double product = static_cast<double>(n) * bytes;
  if (product < 0x1p53) return product;
  double sum = 0.0;
  for (long k = 0; k < n; ++k) sum += bytes;
  return sum;
}

check::CheckError cycle_domain_error(std::string location,
                                     std::string hint) {
  check::DiagnosticList diags;
  auto& d = diags.emit("MN-CYC-004", check::Severity::kError,
                       "cycle schedule would overflow the integer "
                       "cycle domain");
  d.location = std::move(location);
  d.hint = std::move(hint);
  return check::CheckError(std::move(diags));
}

// The first `max` events of the whole run, in walk order.
struct EventLog {
  std::vector<TileEvent>& events;
  long max = 0;
  long recorded = 0;  // events.size(), kept where the walks see it

  [[nodiscard]] bool recording() const { return recorded < max; }
  void record(int bank, long tile, TilePhase phase, long start, long end) {
    if (recorded < max) {
      events.push_back({bank, tile, phase, start, end});
      ++recorded;
    }
  }
};

// A bank's avail[k] — the cycle its tile-k output has landed in the
// backing store — as runs of consecutive tiles, each either affine
// (first + slope * (k - begin)) or explicit (one stored value per tile).
// A self-paced stretch is one affine run however long it is, so neither
// its own bank nor the next one visits its tiles. avail never falls with
// k, so every slope is >= 0.
class AvailRuns {
 public:
  struct Run {
    long begin = 0;
    long end = 0;      // one past the last index
    long first = 0;    // affine: the value at begin
    long slope = 0;    // affine: the increment per index
    long offset = -1;  // explicit: values index of begin; -1 if affine
  };

  // Every negative index reads 0: a tile that needs no upstream tile has
  // its dependency met at cycle 0. A zero-slope run from far below any
  // index says so without a branch.
  AvailRuns() { clear(0); }

  // Starts a bank of `tiles` tiles.
  void clear(long tiles) {
    runs_.assign(1, Run{std::numeric_limits<long>::min() / 2, 0, 0, 0, -1});
    values_.clear();
    tiles_ = tiles;
  }

  [[nodiscard]] long size() const { return runs_.back().end; }
  [[nodiscard]] long back() const { return value(runs_.back(), size() - 1); }
  [[nodiscard]] const Run& run(std::size_t r) const { return runs_[r]; }
  [[nodiscard]] const long* values(const Run& run) const {
    return values_.data() + run.offset;
  }
  [[nodiscard]] long value(const Run& run, long i) const {
    return run.offset < 0 ? run.first + run.slope * (i - run.begin)
                          : values(run)[i - run.begin];
  }

  void push(long v) {
    Run& last = runs_.back();
    if (last.offset < 0 &&
        v == last.first + last.slope * (last.end - last.begin)) {
      ++last.end;
    } else if (last.offset >= 0) {
      values_.push_back(v);
      ++last.end;
    } else {
      open_explicit();
      values_.push_back(v);
      ++runs_.back().end;
    }
  }

  void push_affine(long n, long first, long slope) {
    Run& last = runs_.back();
    if (last.offset < 0 && last.slope == slope &&
        first == last.first + slope * (last.end - last.begin)) {
      last.end += n;
    } else if (last.offset >= 0 && n < kShortRun) {
      // A short stretch between stored values joins them, so that the
      // next bank reads long runs.
      for (long t = 0; t < n; ++t) values_.push_back(first + t * slope);
      last.end += n;
    } else {
      const long end = last.end;
      runs_.push_back({end, end + n, first, slope, -1});
    }
  }

  // avail of the next n tiles: src[t] + add.
  void push_shifted(const long* src, long n, long add) {
    if (runs_.back().offset < 0) open_explicit();
    const std::size_t at = values_.size();
    // Room for every tile the bank has left: one allocation per bank
    // rather than a doubling series of fresh, page-faulting ones.
    if (values_.capacity() < at + static_cast<std::size_t>(n))
      values_.reserve(at + static_cast<std::size_t>(tiles_ - size()));
    values_.resize(at + static_cast<std::size_t>(n));
    long* dst = values_.data() + at;
    for (long t = 0; t < n; ++t) dst[t] = src[t] + add;
    runs_.back().end += n;
  }

 private:
  void open_explicit() {
    const long end = runs_.back().end;
    runs_.push_back({end, end, 0, 0, static_cast<long>(values_.size())});
  }

  static constexpr long kShortRun = 16;

  std::vector<Run> runs_;
  std::vector<long> values_;
  long tiles_ = 0;
};

// Reads an upstream AvailRuns at non-decreasing indices, as the walks
// visit them.
class AvailReader {
 public:
  explicit AvailReader(const AvailRuns& runs) : runs_(runs) {}

  const AvailRuns::Run& seek(long i) {
    while (runs_.run(cursor_).end <= i) ++cursor_;
    return runs_.run(cursor_);
  }
  long at(long i) { return runs_.value(seek(i), i); }
  [[nodiscard]] const AvailRuns& runs() const { return runs_; }

 private:
  const AvailRuns& runs_;
  std::size_t cursor_ = 0;
};

// floor(k * D / den) for a tile cursor k, as a quotient and remainder
// that advance one tile at a time (carrying at most once per tile) or
// jump to any tile.
struct TileShare {
  long total = 0;  // D
  long den = 1;
  long step_q = 0;
  long step_r = 0;
  long q = 0;
  long r = 0;

  TileShare(long d, long denominator)
      : total(d), den(denominator), step_q(d / denominator),
        step_r(d % denominator) {}

  void next() {
    const long over = r + step_r - den;
    const bool carry = over >= 0;
    r = carry ? over : over + den;
    q += step_q + carry;
  }
  void seek(long k) {
    const Wide x = static_cast<Wide>(k) * total;
    q = static_cast<long>(x / den);
    r = static_cast<long>(x % den);
  }
};

// One streamed bank: neither operand resident, so fill, compute and
// drain serialize over the bank's one backing bus (see the header and
// docs/PERFORMANCE.md, "Cycle-accurate mode"). Per tile
//   fe(k) = max(dep(k), de(k-1)) + f,  e(k) = fe(k) + cpt,
//   de(k) = avail[k] = e(k) + d        (de(-1) = 0),  T = f + cpt + d,
// and tile k > 0 waits max(e(k-1), dep(k)) - e(k-1) cycles on its
// dependency and the rest, up to fe(k), on its fill. The schedule runs a
// stretch of tiles at a time where one of two closed forms holds, and
// walks the recurrence tile by tile elsewhere:
//   self-paced        dep(j) <= e(j-1) for every tile j of the stretch:
//                     de rises by T per tile, each tile adds f + d to
//                     the fill stall and nothing to the dependency stall;
//   dependency-bound  dep(a) >= de(a-1) and dep(j) - dep(j-1) >= T after
//                     it: de(j) = dep(j) + T, each tile adds f to the
//                     fill stall, and the dependency stall telescopes.
class StreamedBank {
 public:
  struct Timing {
    long tiles;
    long fill;   // f
    long cpt;    // compute cycles per tile
    long drain;  // d
    long warmup;       // w: upstream tiles every tile needs
    long streamed;     // D: upstream tiles shared out over the bank
  };

  StreamedBank(const Timing& t, const AvailRuns& upstream, AvailRuns& out,
               EventLog& log, int bank_id)
      : t_(t), period_(t.fill + t.cpt + t.drain),
        den_(std::max<long>(t.tiles - 1, 1)), up_(upstream), out_(out),
        log_(log), bank_id_(bank_id), share_(t.streamed, den_) {
    // A one-tile bank takes all of D.
    if (t.tiles == 1) share_.q = t.streamed;
  }

  void schedule() {
    // Tile 0 opens the active window, and every tile whose events are
    // recorded is walked, so the event log is the walk's.
    while (k_ < t_.tiles && (k_ == 0 || log_.recording()))
      walk(up_.at(index()));
    while (k_ < t_.tiles) {
      if (!self_paced_by_bound()) gather();
    }
  }

  long start = 0;
  long finish() const { return e_; }
  long dependency_stall = 0;
  long fill_stall = 0;
  long walked = 0;

 private:
  static constexpr long kChunk = 128;

  // Upstream index tile k_ reads: needed - 1, where needed = w + share
  // (never above the upstream tile count, see simulate_cycles).
  [[nodiscard]] long index() const { return t_.warmup - 1 + share_.q; }

  // The last tile whose upstream index lies inside `run`.
  [[nodiscard]] long last_tile(const AvailRuns::Run& run) const {
    if (t_.streamed == 0) return t_.tiles - 1;
    // index(j) < end  <=>  floor(j D / den) <= end - w
    //                 <=>  j D < (end - w + 1) den.
    const Wide hi =
        (static_cast<Wide>(run.end - t_.warmup + 1) * den_ - 1) / t_.streamed;
    return hi < t_.tiles - 1 ? static_cast<long>(hi) : t_.tiles - 1;
  }

  // The per-tile recurrence, for tile k_ with dependency `dep`.
  void walk(long dep) {
    const long ready = std::max(e_, dep);
    const long fill_end = std::max(dep, de_) + t_.fill;
    const long end = fill_end + t_.cpt;
    const long drain_end = end + t_.drain;
    if (k_ > 0) {
      dependency_stall += ready - e_;
      fill_stall += fill_end - ready;
    } else {
      start = fill_end;
    }
    log_.record(bank_id_, k_, TilePhase::kFill, fill_end - t_.fill, fill_end);
    log_.record(bank_id_, k_, TilePhase::kCompute, fill_end, end);
    log_.record(bank_id_, k_, TilePhase::kDrain, end, drain_end);
    out_.push(drain_end);
    e_ = end;
    de_ = drain_end;
    ++k_;
    ++walked;
    share_.next();
  }

  void commit_self_paced(long n) {
    out_.push_affine(n, de_ + period_, period_);
    fill_stall += n * (t_.fill + t_.drain);
    e_ += n * period_;
    de_ += n * period_;
    k_ += n;
  }

  // Tiles [k_, k_ + n) with dependencies dep[0..n), dependency-bound.
  void commit_dependency_bound(const long* dep, long n) {
    out_.push_shifted(dep, n, period_);
    // sum_j dep(j) - e(j-1) with e(j-1) = dep(j-1) + f + cpt after the
    // first tile.
    dependency_stall += dep[n - 1] - e_ - (n - 1) * (t_.fill + t_.cpt);
    fill_stall += n * t_.fill;
    e_ = dep[n - 1] + t_.fill + t_.cpt;
    de_ = dep[n - 1] + period_;
    k_ += n;
  }

  // A self-paced stretch from tile k_ proven without visiting its tiles,
  // over one affine upstream run A + S*i (S >= 0). A floor is at most its
  // real value and S >= 0, so dep(j) <= A + S*(w - 1 + j D/den - begin),
  // which is affine in j, as is e(j-1) = e(k_-1) + (j - k_) T: their
  // difference is affine, and testing it at both ends of the stretch is
  // exact. The test runs in integers scaled by den.
  bool self_paced_by_bound() {
    const AvailRuns::Run& run = up_.seek(index());
    if (run.offset >= 0) return false;
    // g(j) = den * (bound(j) - e(j-1)); the stretch is where g <= 0.
    const Wide g = static_cast<Wide>(den_) * (run.first - e_) +
                   static_cast<Wide>(run.slope) *
                       (static_cast<Wide>(den_) *
                            (static_cast<Wide>(t_.warmup) - 1 - run.begin) +
                        static_cast<Wide>(k_) * t_.streamed);
    if (g > 0) return false;
    long n = last_tile(run) - k_ + 1;
    const Wide rise = static_cast<Wide>(run.slope) * t_.streamed -
                      static_cast<Wide>(den_) * period_;
    if (rise > 0) {
      const Wide more = -g / rise;  // tiles after k_ with g still <= 0
      if (more < n - 1) n = static_cast<long>(more) + 1;
    }
    commit_self_paced(n);
    share_.seek(k_);
    return true;
  }

  struct Pass {
    TileShare share;  // at the tile after the chunk
    bool self_paced;  // every tile of the chunk is self-paced
    bool bound;       // every tile of the chunk is dependency-bound
  };

  // dep[t] = dependency(share) of tiles k_ + t, t < n, and both closed
  // forms tested in the same pass: self-paced while dep(j) <= e(j-1),
  // dependency-bound while dep(j) >= dep(j-1) + T (de(k_-1) for the
  // first tile).
  template <typename Dependency>
  Pass gather_pass(long n, long* dep, Dependency dependency) const {
    TileShare s = share_;
    const long period = period_;
    long e = e_;
    long prev = de_ - period;
    long self_paced = 1;
    long bound = 1;
    for (long t = 0; t < n; ++t) {
      const long d = dependency(s.q);
      s.next();
      dep[t] = d;
      self_paced &= d <= e;
      bound &= d - prev >= period;
      e += period;
      prev = d;
    }
    return {s, self_paced != 0, bound != 0};
  }

  // Up to kChunk tiles from k_ inside one upstream run: gather their
  // dependencies in one branch-free pass, test both closed forms over the
  // whole chunk, and commit the one that holds.
  void gather() {
    const AvailRuns::Run& run = up_.seek(index());
    const long n = std::min(kChunk, last_tile(run) - k_ + 1);
    long dep[kChunk];
    const long base = t_.warmup - 1 - run.begin;
    const long* v = run.offset < 0 ? nullptr : up_.runs().values(run);
    const Pass pass =
        v == nullptr
            ? gather_pass(n, dep,
                          [first = run.first, slope = run.slope,
                           base](long q) { return first + slope * (base + q); })
            : gather_pass(n, dep, [v, base](long q) { return v[base + q]; });
    if (pass.self_paced || pass.bound) {
      if (pass.self_paced)
        commit_self_paced(n);
      else
        commit_dependency_bound(dep, n);
      share_ = pass.share;
      return;
    }

    // Mixed chunk: split it into its self-paced and dependency-bound
    // stretches in place, and walk the tiles that fit neither (their
    // dependency lands while the previous drain is in flight).
    for (long t = 0; t < n;) {
      long end = t + 1;
      if (dep[t] <= e_) {
        while (end < n && dep[end] <= e_ + (end - t) * period_) ++end;
        commit_self_paced(end - t);
      } else if (dep[t] >= de_) {
        while (end < n && dep[end] - dep[end - 1] >= period_) ++end;
        commit_dependency_bound(dep + t, end - t);
      } else {
        walk(dep[t]);
      }
      t = end;
    }
    share_ = pass.share;
  }

  const Timing t_;
  const long period_;  // T
  const long den_;
  AvailReader up_;
  AvailRuns& out_;
  EventLog& log_;
  const int bank_id_;
  TileShare share_;
  long k_ = 0;   // next tile
  long e_ = 0;   // e(k_-1)
  long de_ = 0;  // de(k_-1)
};

}  // namespace

CycleSimResult simulate_cycles(const AcceleratorReport& report,
                               const AcceleratorConfig& config) {
  obs::Span span("arch.cycle_sim");
  config.validate();
  const double if_capacity = config.cycle_ifmap_kb * 1024.0;
  const double filter_capacity = config.cycle_filter_kb * 1024.0;
  const double of_capacity = config.cycle_ofmap_kb * 1024.0;
  // Activations cross the hierarchy at the read-circuit precision;
  // weight cells carry the device's level bits.
  const double elem_bytes = std::max(1.0, std::ceil(config.output_bits / 8.0));
  const double cell_bits = config.device().level_bits;

  // Pre-flight: the engine walks iteration counts and pass latencies, so
  // a malformed report (no banks, non-finite timing, negative counts) or
  // a scratchpad that cannot hold a single tile would loop forever or
  // deadlock the schedule. Refuse with coded diagnostics instead
  // (docs/DIAGNOSTICS.md, MN-CYC-*).
  CycleSimResult result;
  {
    check::DiagnosticList diags;
    if (report.banks.empty())
      diags.emit("MN-CYC-001", check::Severity::kError,
                 "cycle simulation needs at least one computation bank");
    for (std::size_t b = 0; b < report.banks.size(); ++b) {
      const auto& bank = report.banks[b];
      const std::string loc = "bank " + std::to_string(b);
      // isfinite first: an ordered compare on a NaN raises FE_INVALID.
      if (!std::isfinite(bank.pass_latency) || bank.pass_latency < 0 ||
          bank.pass_latency >= 1e30) {
        diags.emit("MN-CYC-002", check::Severity::kError,
                   loc + " has a non-finite or negative pass latency")
            .location = loc;
      }
      if (bank.iterations < 0) {
        diags.emit("MN-CYC-002", check::Severity::kError,
                   loc + " has a negative iteration count")
            .location = loc;
      }
      if (bank.iterations <= 0 || diags.has_errors()) continue;
      const double if_tile = bank.mapping.matrix_rows * elem_bytes;
      const double of_tile = bank.mapping.matrix_cols * elem_bytes;
      if (if_tile > if_capacity) {
        auto& d = diags.emit(
            "MN-CYC-003", check::Severity::kError,
            loc + ": ifmap scratchpad smaller than one tile");
        d.location = loc;
        d.hint = "one ifmap tile is " + std::to_string(if_tile) +
                 " bytes; raise [cycle] Ifmap_KB";
      }
      if (of_tile > of_capacity) {
        auto& d = diags.emit(
            "MN-CYC-003", check::Severity::kError,
            loc + ": ofmap scratchpad smaller than one tile");
        d.location = loc;
        d.hint = "one ofmap tile is " + std::to_string(of_tile) +
                 " bytes; raise [cycle] Ofmap_KB";
      }
      // Weight programming stages one crossbar cell image at a time
      // through the filter scratchpad.
      const double xbar_image = std::ceil(
          static_cast<double>(config.crossbar_size) * config.crossbar_size *
          cell_bits / 8.0);
      if (xbar_image > filter_capacity) {
        auto& d = diags.emit(
            "MN-CYC-003", check::Severity::kError,
            loc + ": filter scratchpad smaller than one crossbar image");
        d.location = loc;
        d.hint = "one crossbar cell image is " + std::to_string(xbar_image) +
                 " bytes; raise [cycle] Filter_KB";
      }
    }
    if (diags.has_errors()) throw check::CheckError(std::move(diags));
  }

  // Clock: pinned by [cycle] Clock_GHz, or auto-derived so the shortest
  // scheduled pass spans kAutoCyclesPerPass cycles (quantization error
  // of the makespan <= ~1/kAutoCyclesPerPass).
  double clock_hz = config.cycle_clock_ghz * 1e9;
  if (!(clock_hz > 0)) {
    double min_latency = 0.0;
    std::size_t min_bank = 0;
    for (std::size_t b = 0; b < report.banks.size(); ++b) {
      const auto& bank = report.banks[b];
      if (bank.iterations <= 0 || !(bank.pass_latency > 0)) continue;
      if (min_latency == 0.0 || bank.pass_latency < min_latency) {
        min_latency = bank.pass_latency;
        min_bank = b;
      }
    }
    // A pass so short (subnormal, say) that the derived clock would not
    // be finite: refuse before the division overflows.
    if (min_latency > 0 &&
        min_latency < static_cast<double>(kAutoCyclesPerPass) /
                          std::numeric_limits<double>::max()) {
      throw cycle_domain_error(
          "bank " + std::to_string(min_bank),
          "the pass latency is too short to derive a clock from; check the "
          "report's pass latencies, or pin [cycle] Clock_GHz");
    }
    clock_hz = min_latency > 0
                   ? static_cast<double>(kAutoCyclesPerPass) / min_latency
                   : 1e9;
  }
  const double bytes_per_cycle =
      config.cycle_bandwidth_gbps * 1e9 / clock_hz;

  // Overflow guard: the integer schedule must stay far inside the exact
  // range of long (and double, for the seconds conversion). Bound the
  // worst case — fully serialized compute plus every transfer — before
  // walking anything. A pass or a transfer that alone exceeds the bound
  // is refused before its cycle count is formed, so the bound itself
  // cannot overflow.
  {
    const char* hint = "lower [cycle] Clock_GHz (or leave it 0 for auto)";
    double bound = 0.0;
    for (std::size_t b = 0; b < report.banks.size(); ++b) {
      const auto& bank = report.banks[b];
      if (bank.iterations <= 0) continue;
      const double tile_bytes =
          (bank.mapping.matrix_rows + bank.mapping.matrix_cols) * elem_bytes;
      if (bank.pass_latency > kMaxScheduleCycles / clock_hz ||
          tile_bytes > kMaxScheduleCycles * bytes_per_cycle)
        throw cycle_domain_error("bank " + std::to_string(b), hint);
      const double cpt = std::max(1.0, bank.pass_latency * clock_hz);
      bound += static_cast<double>(bank.iterations) *
               (cpt + 2.0 + tile_bytes / bytes_per_cycle);
    }
    if (bound > kMaxScheduleCycles) throw cycle_domain_error("", hint);
  }

  result.clock_hz = clock_hz;
  result.dataflow = config.cycle_dataflow;
  result.fill_policy = config.cycle_fill_policy;
  result.banks.resize(report.banks.size());

  EventLog log{result.events, std::max<long>(config.cycle_max_events, 0)};
  long walked_tiles = 0;

  // avail of the upstream bank and of the bank being scheduled.
  AvailRuns up_avail;
  AvailRuns avail;
  long makespan = 0;

  for (std::size_t b = 0; b < report.banks.size(); ++b) {
    const auto& bank = report.banks[b];
    CycleBankStats& stats = result.banks[b];
    const long tiles = bank.iterations;
    avail.clear(tiles);
    if (tiles <= 0) {
      std::swap(up_avail, avail);
      continue;
    }

    // mnsim-analyze: allow(quantity-narrowing, pass_cycles returns long, already rounded through llround)
    const long cpt = pass_cycles(bank.pass_latency, clock_hz);
    const double if_tile = bank.mapping.matrix_rows * elem_bytes;
    const double of_tile = bank.mapping.matrix_cols * elem_bytes;
    // mnsim-analyze: allow(quantity-narrowing, ring_slots returns long, truncated to whole slots after a clamp in double)
    const long if_cap = ring_slots(if_capacity, if_tile, tiles);
    // mnsim-analyze: allow(quantity-narrowing, ring_slots returns long, truncated to whole slots after a clamp in double)
    const long of_cap = ring_slots(of_capacity, of_tile, tiles);

    stats.tiles = tiles;
    stats.compute_cycles_per_tile = cpt;
    stats.busy_cycles = tiles * cpt;
    stats.ifmap_capacity_tiles = if_cap;
    stats.ofmap_capacity_tiles = of_cap;
    stats.filter_bytes = std::ceil(
        static_cast<double>(bank.mapping.matrix_rows) *
        static_cast<double>(bank.mapping.physical_cols) *
        static_cast<double>(bank.mapping.crossbars_per_unit) * cell_bits /
        8.0);

    // Residency: input-/output-stationary banks keep the whole sample's
    // operand in the scratchpad when it fits; otherwise warn and stream.
    stats.resident_ifmap =
        config.cycle_dataflow == Dataflow::kInputStationary &&
        static_cast<double>(tiles) * if_tile <= if_capacity;
    stats.resident_ofmap =
        config.cycle_dataflow == Dataflow::kOutputStationary &&
        static_cast<double>(tiles) * of_tile <= of_capacity;
    const bool wanted_if =
        config.cycle_dataflow == Dataflow::kInputStationary;
    const bool wanted_of =
        config.cycle_dataflow == Dataflow::kOutputStationary;
    if ((wanted_if && !stats.resident_ifmap) ||
        (wanted_of && !stats.resident_ofmap)) {
      check::Diagnostic d;
      d.code = "MN-CYC-005";
      d.severity = check::Severity::kWarning;
      d.location = "bank " + std::to_string(b);
      d.message = "bank " + std::to_string(b) + ": " +
                  dataflow_name(config.cycle_dataflow) +
                  " sample does not fit the scratchpad; streaming instead";
      d.hint = wanted_if
                   ? "needs " +
                         std::to_string(static_cast<double>(tiles) * if_tile) +
                         " bytes of [cycle] Ifmap_KB"
                   : "needs " +
                         std::to_string(static_cast<double>(tiles) * of_tile) +
                         " bytes of [cycle] Ofmap_KB";
      result.diagnostics.push_back(std::move(d));
    }

    const long up_passes =
        b > 0 ? report.banks[b - 1].iterations : 0;
    const long up_warmup =
        b > 0 ? std::min(report.banks[b - 1].warmup_passes, up_passes) : 0;

    if (!(bytes_per_cycle > 0))
      throw std::invalid_argument("backing bus: bytes per cycle");
    if (if_cap < 1 || of_cap < 1)
      throw std::invalid_argument("Scratchpad: capacity must hold one tile");
    if (if_tile < 0 || of_tile < 0)
      throw std::invalid_argument("backing bus: bytes");
    // Bus cycles of one streamed fill / drain: the same for every tile.
    const long fill_cycles = transfer_cycles(if_tile, bytes_per_cycle);
    const long drain_cycles = transfer_cycles(of_tile, bytes_per_cycle);
    const int bank_id = static_cast<int>(b);
    // Upstream tiles that must have drained before tile k may start: the
    // producer's warm-up plus the proportional streamed share
    // floor(k * D / (tiles - 1)), D = up_passes - up_warmup (a one-tile
    // bank takes all of D) — the trace simulator's Eq. 6 dependency rule.
    // For k <= tiles - 1 the share is at most D, so no tile needs more
    // than the upstream's up_passes tiles. Tile k's dependency is met at
    // up_avail[needed - 1], and at cycle 0 when it needs none.
    const long streamed_total = std::max<long>(up_passes - up_warmup, 0);

    const bool resident_ifmap = stats.resident_ifmap;
    const bool resident_ofmap = stats.resident_ofmap;
    if (!resident_ifmap && !resident_ofmap) {
      // Streamed bank: every tile is filled, computed and drained over
      // the bank's one backing bus, which serves transfers in issue
      // order: fill(k), then drain(k) once compute(k) ends, then
      // fill(k+1). So fill(k+1) starts no earlier than drain(k) ends, at
      // de(k) = e(k) + d > e(k). Against that floor none of the other
      // bounds of the general walk below can bind: the ifmap slot frees
      // at e(k+1-C) <= e(k), the demand policy waits for e(k), and the
      // ofmap slot frees at de(k+1-C) <= de(k). Drains never stall, the
      // bus is busy tiles * (f + d) cycles, and neither the fill policy
      // nor the slot capacities change a streamed schedule; StreamedBank
      // schedules the rest.
      StreamedBank streamed({tiles, fill_cycles, cpt, drain_cycles,
                             up_warmup, streamed_total},
                            up_avail, avail, log, bank_id);
      streamed.schedule();
      walked_tiles += streamed.walked;
      stats.start_cycle = streamed.start;
      stats.finish_cycle = streamed.finish();
      stats.dependency_stall_cycles = streamed.dependency_stall;
      stats.fill_stall_cycles = streamed.fill_stall;
      stats.bus_busy_cycles = tiles * (fill_cycles + drain_cycles);
      stats.ifmap_bytes = tile_sum(tiles, if_tile);
      stats.ofmap_bytes = tile_sum(tiles, of_tile);
    } else {
      // One operand resident: the general walk, tile by tile. The
      // backing bus serializes transfers in issue order; each slot ring
      // is indexed by a wrapping cursor and holds the cycle its previous
      // occupant was released (consumed for ifmap slots, drained for
      // ofmap slots).
      walked_tiles += tiles;
      AvailReader up(up_avail);
      TileShare share(streamed_total, std::max<long>(tiles - 1, 1));
      if (tiles == 1) share.q = streamed_total;
      auto next_dependency = [&] {
        const long dep = up.at(up_warmup - 1 + share.q);
        share.next();
        return dep;
      };

      long bus_until = 0;
      long bus_cycles = 0;
      auto transfer = [&](long earliest, long duration) {
        bus_until = std::max(earliest, bus_until) + duration;
        bus_cycles += duration;
        return bus_until;
      };
      std::vector<long> if_ring(
          static_cast<std::size_t>(resident_ifmap ? 0 : if_cap), 0);
      std::vector<long> of_ring(
          static_cast<std::size_t>(resident_ofmap ? 0 : of_cap), 0);
      std::size_t if_slot = 0;
      std::size_t of_slot = 0;
      const bool demand = config.cycle_fill_policy == FillPolicy::kDemand;

      // Input-stationary: gather the whole ifmap in one bulk fill once
      // the upstream bank has drained everything this bank consumes.
      long bulk_fill_end = 0;
      if (resident_ifmap) {
        const long dep = up.at(up_passes - 1);
        const double bytes = static_cast<double>(tiles) * if_tile;
        const long duration = transfer_cycles(bytes, bytes_per_cycle);
        bulk_fill_end = transfer(dep, duration);
        log.record(bank_id, 0, TilePhase::kFill, bulk_fill_end - duration,
                   bulk_fill_end);
        stats.ifmap_bytes = bytes;
      } else {
        stats.ifmap_bytes = tile_sum(tiles, if_tile);
      }

      long start_cycle = 0;
      long dependency_stall = 0;
      long fill_stall = 0;
      long drain_stall = 0;
      long prev_end = 0;
      for (long k = 0; k < tiles; ++k) {
        // Ifmap fill: starts once the data exists, the target slot is
        // free and — demand policy — the PE has asked for it. The bulk
        // fill already folded the full dependency into its start.
        long dep = 0;
        long fill_end = bulk_fill_end;
        if (!resident_ifmap) {
          dep = next_dependency();
          long floor = std::max(dep, if_ring[if_slot]);
          if (demand) floor = std::max(floor, prev_end);
          fill_end = transfer(floor, fill_cycles);
          log.record(bank_id, k, TilePhase::kFill, fill_end - fill_cycles,
                     fill_end);
        }

        // Ofmap slot: resident outputs always have space; streamed
        // outputs wait for the slot's previous occupant to finish
        // draining.
        const long of_free = resident_ofmap ? 0 : of_ring[of_slot];

        // Successive maxima attribute every waited cycle to one bucket.
        // Tile 0's wait precedes the bank's active window — it is
        // ramp-up idle, not a stall, so span == busy + stalls holds
        // exactly.
        const long t1 = std::max(prev_end, dep);
        const long t2 = std::max(t1, fill_end);
        const long t3 = std::max(t2, of_free);
        if (k > 0) {
          dependency_stall += t1 - prev_end;
          fill_stall += t2 - t1;
          drain_stall += t3 - t2;
        }

        const long start = t3;
        const long end = start + cpt;
        log.record(bank_id, k, TilePhase::kCompute, start, end);
        if (k == 0) start_cycle = start;
        if (!resident_ifmap) {
          if_ring[if_slot] = end;
          if (++if_slot == if_ring.size()) if_slot = 0;
        }

        if (!resident_ofmap) {
          const long drain_end = transfer(end, drain_cycles);
          log.record(bank_id, k, TilePhase::kDrain, drain_end - drain_cycles,
                     drain_end);
          of_ring[of_slot] = drain_end;
          if (++of_slot == of_ring.size()) of_slot = 0;
          avail.push(drain_end);
        }
        prev_end = end;
      }

      // Output-stationary: the accumulated ofmap leaves in one bulk
      // drain after the last pass; downstream sees nothing earlier.
      if (resident_ofmap) {
        const double bytes = static_cast<double>(tiles) * of_tile;
        const long duration = transfer_cycles(bytes, bytes_per_cycle);
        const long drain_end = transfer(prev_end, duration);
        log.record(bank_id, tiles - 1, TilePhase::kDrain,
                   drain_end - duration, drain_end);
        avail.push_affine(tiles, drain_end, 0);
        stats.ofmap_bytes = bytes;
      } else {
        stats.ofmap_bytes = tile_sum(tiles, of_tile);
      }
      stats.bus_busy_cycles = bus_cycles;
      stats.start_cycle = start_cycle;
      stats.dependency_stall_cycles = dependency_stall;
      stats.fill_stall_cycles = fill_stall;
      stats.drain_stall_cycles = drain_stall;
      stats.finish_cycle = prev_end;
    }
    const long active = stats.span_cycles();
    stats.utilization =
        active > 0 ? static_cast<double>(stats.busy_cycles) /
                         static_cast<double>(active)
                   : 0.0;
    // The bank's last activity is its final drain, bulk or per tile.
    makespan = std::max(makespan, avail.back());
    std::swap(up_avail, avail);
  }

  result.makespan_cycles = makespan;
  result.makespan_seconds = static_cast<double>(makespan) / clock_hz;
  long scheduled = 0;
  for (auto& stats : result.banks) {
    result.total_tiles += stats.tiles;
    result.total_busy_cycles += stats.busy_cycles;
    result.total_stall_cycles += stats.stall_cycles();
    result.backing_traffic_bytes += stats.ifmap_bytes + stats.ofmap_bytes;
    result.weight_image_bytes += stats.filter_bytes;
    stats.idle_cycles = makespan - stats.span_cycles();
    stats.bus_utilization =
        makespan > 0 ? static_cast<double>(stats.bus_busy_cycles) /
                           static_cast<double>(makespan)
                     : 0.0;
    scheduled += stats.span_cycles();
  }
  const double pe_cycles =
      static_cast<double>(result.banks.size()) * static_cast<double>(makespan);
  result.pe_scheduled_fraction =
      pe_cycles > 0 ? static_cast<double>(scheduled) / pe_cycles : 0.0;
  result.pe_active_fraction =
      pe_cycles > 0 ? static_cast<double>(result.total_busy_cycles) / pe_cycles
                    : 0.0;
  result.stall_fraction =
      scheduled > 0
          ? static_cast<double>(result.total_stall_cycles) /
                static_cast<double>(scheduled)
          : 0.0;

  obs::Registry& reg = obs::Registry::global();
  if (reg.enabled()) {
    reg.add("cycle.tiles", result.total_tiles);
    reg.add("cycle.walked_tiles", walked_tiles);
    reg.add("cycle.busy_cycles", result.total_busy_cycles);
    reg.add("cycle.stall_cycles", result.total_stall_cycles);
    reg.add("cycle.backing_bytes",
            static_cast<long>(result.backing_traffic_bytes));
    reg.set("cycle.pe_active_fraction", result.pe_active_fraction);
    reg.set("cycle.makespan_seconds", result.makespan_seconds);
  }
  return result;
}

}  // namespace mnsim::arch