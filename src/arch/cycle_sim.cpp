#include "arch/cycle_sim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
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

// Rise bounds saturate here: far above any schedule (MN-CYC-004 caps a
// cycle count at 4.5e15) and far below overflow.
constexpr long kRiseCap = 1L << 62;

long saturate(Wide x) {
  return x < 0 ? 0 : x > kRiseCap ? kRiseCap : static_cast<long>(x);
}

// Division by one positive divisor, many times: a multiply by
// M = floor(2^64 / d) + 1 and a shift while x d < 2^64, where
// x M / 2^64 exceeds x / d by less than x / 2^64 < 1 / d, so the floor is
// exact; in 128 bits past that. Every caller's quotient fits a long.
struct Divisor {
  long d = 1;
  unsigned long magic = 0;  // M; 0 for d = 1
  long exact = 0;           // the x below which the multiply is exact

  // floor(2^64 / d) is floor((2^64 - 1) / d), plus one when d is a power
  // of two, so a 64-bit division forms M.
  explicit Divisor(long divisor)
      : d(divisor),
        magic(divisor > 1 ? ~0UL / static_cast<unsigned long>(divisor) + 1 +
                                ((divisor & (divisor - 1)) == 0)
                          : 0),
        exact(divisor > 1 ? std::numeric_limits<long>::max() / divisor
                          : std::numeric_limits<long>::max()) {}

  // floor(x / d) for 0 <= x < exact, and its remainder.
  long floor_exact(long x, long& rem) const {
    const long q =
        d > 1 ? static_cast<long>(
                    (static_cast<unsigned __int128>(x) * magic) >> 64)
              : x;
    rem = x - q * d;
    return q;
  }
  // floor(x / d) for x >= 0, and its remainder.
  long floor(Wide x, long& rem) const {
    if (x < exact) return floor_exact(static_cast<long>(x), rem);
    rem = static_cast<long>(x % d);
    return static_cast<long>(x / d);
  }
  [[nodiscard]] long ceil(Wide x) const {
    long rem = 0;
    const long q = floor(x, rem);
    return q + (rem != 0);
  }
};

// The tiles up to and including tile k that read its upstream index,
// c(k) = 1 + floor(r / D), where r is the remainder of floor(k D / den):
// always 1 when D >= den, and at most 2 when 2 D > den.
long group_of(long r, long streamed, long den) {
  if (streamed >= den) return 1;
  if (2 * streamed > den) return 1 + (r >= streamed);
  return 1 + r / streamed;
}

// floor(k * D / den) for a tile cursor k, as a quotient and remainder
// that advance one tile at a time (carrying at most once per tile) or
// jump to any tile.
struct TileShare {
  long total = 0;  // D
  Divisor den;
  long step_q = 0;
  long step_r = 0;
  long q = 0;
  long r = 0;

  TileShare(long d, long denominator)
      : total(d), den(denominator), step_q(d / denominator),
        step_r(d % denominator) {}

  // Returns whether the quotient carried.
  bool next() {
    const long over = r + step_r - den.d;
    const bool carry = over >= 0;
    r = carry ? over : over + den.d;
    q += step_q + carry;
    return carry;
  }
  void seek(long k) { q = den.floor(static_cast<Wide>(k) * total, r); }
  [[nodiscard]] long group() const { return group_of(r, total, den.d); }
};

// A bank's avail[k] — the cycle its tile-k output has landed in the
// backing store — as runs of consecutive tiles of three kinds:
//   affine     first + slope * (k - begin): a self-paced stretch;
//   explicit   one stored value per tile: walked and gathered tiles;
//   resampled  up(w - 1 + floor(k D / den)) + T * c(k), read through the
//              upstream bank's runs and stored as nothing: a
//              dependency-bound stretch, in which the first of the c(k)
//              tiles that read one upstream index waits on it and the
//              rest follow it by T each. A resampled run reads one
//              upstream run, or any of them (kAnyRun). A snapped one
//              reads, for each tile, the first index of the upstream
//              group its index belongs to, and c(k) counts from the
//              first tile that reads that group.
// Every run keeps a lower bound on its rise from one index to the next,
// and rise_over() one over m indices: what the next bank's proofs read.
// avail never falls with k, so every rise and slope is >= 0.
class AvailRuns {
 public:
  enum class Kind : unsigned char { kAffine, kExplicit, kResampled };
  struct Run {
    long begin = 0;
    long end = 0;      // one past the last index
    long first = 0;    // affine: the value at begin
    long slope = 0;    // affine: the increment per index
    long offset = 0;   // explicit: values index of begin;
                       // resampled: the upstream run every index reads,
                       // or kAnyRun
    long rise = 0;     // avail(i + 1) - avail(i) >= rise inside the run
    long up_rise = 0;  // resampled: the same bound for the upstream
                       // indices the run reads
    Kind kind = Kind::kAffine;
    // resampled: tile k reads the start of its upstream index's group
    // instead, and c(k) counts the tiles since the first that reads it.
    bool snap = false;
    // The last rise_over(run, m) asked: the next bank asks every run
    // for the same m, and so does each bank below for the one run its
    // runs read.
    mutable long memo_m = 0;
    mutable long memo_rise = 0;
  };
  // How a bank's resampled runs read its upstream bank.
  struct Resample {
    const AvailRuns* up = nullptr;
    long warmup = 0;    // w
    long streamed = 0;  // D > 0
    long den = 1;
    long period = 0;    // T
    long sharing = 1;   // ceil(den / D): most tiles that read one index
    Divisor by_den{1};
    Divisor by_gap{1};  // den - D, when D < den
    // rise_over(run, 1), which every new run asks: with D >= den a tile
    // is floor(D/den) indices past the one before; with D < den a tile
    // that reads the next index may follow single_repeats repeats.
    long step = 0;
    long single_repeats = 0;
    // Snapped runs: the most tiles that read one upstream group
    // (ceil(up sharing * den / D)), and division by D.
    long snap_sharing = 0;
    Divisor by_streamed{1};
  };

  // Every negative index reads 0: a tile that needs no upstream tile has
  // its dependency met at cycle 0. A zero-slope run from far below any
  // index says so without a branch.
  explicit AvailRuns(long id = 0) : id_(id) { clear(0); }

  // Starts a bank of `tiles` tiles. Most banks take a handful of runs, so
  // room for a few is made once.
  void clear(long tiles) {
    runs_.clear();
    runs_.reserve(kFewRuns);
    runs_.push_back(Run{std::numeric_limits<long>::min() / 2, 0, 0, 0, 0, 0,
                        0, Kind::kAffine});
    values_.clear();
    tiles_ = tiles;
    last_ = 0;
    values_from_ = kNoValues;
  }
  void set_resample(const Resample& p) { resample_ = p; }

  [[nodiscard]] long size() const { return runs_.back().end; }
  [[nodiscard]] long back() const { return last_; }
  [[nodiscard]] const Run& run(std::size_t r) const { return runs_[r]; }
  [[nodiscard]] const long* values(const Run& run) const {
    return values_.data() + run.offset;
  }
  [[nodiscard]] const Resample& resample() const { return resample_; }
  // The lowest bank (by id) whose stored values these runs read, directly
  // or through resampled runs; kNoValues if none.
  [[nodiscard]] long values_from() const { return values_from_; }
  void release_values() { std::vector<long>().swap(values_); }

  void push(long v) {
    Run& last = runs_.back();
    if (last.kind == Kind::kAffine &&
        v == last.first + last.slope * (last.end - last.begin)) {
      ++last.end;
    } else if (last.kind == Kind::kExplicit) {
      if (last.end > last.begin) last.rise = std::min(last.rise, v - last_);
      values_.push_back(v);
      ++last.end;
    } else {
      open_explicit();
      values_.push_back(v);
      ++runs_.back().end;
    }
    last_ = v;
  }

  void push_affine(long n, long first, long slope) {
    Run& last = runs_.back();
    if (last.kind == Kind::kAffine && last.slope == slope &&
        first == last.first + slope * (last.end - last.begin)) {
      last.end += n;
    } else if (last.kind == Kind::kExplicit && n < kShortRun) {
      // A short stretch between stored values joins them, so that the
      // next bank reads long runs.
      if (last.end > last.begin) last.rise = std::min(last.rise, first - last_);
      if (n > 1) last.rise = std::min(last.rise, slope);
      for (long t = 0; t < n; ++t) values_.push_back(first + t * slope);
      last.end += n;
    } else {
      const long end = last.end;
      runs_.push_back({end, end + n, first, slope, 0, slope, 0, Kind::kAffine});
    }
    last_ = first + (n - 1) * slope;
  }

  // avail of the next n tiles: src[t] + add.
  void push_shifted(const long* src, long n, long add) {
    if (runs_.back().kind != Kind::kExplicit) open_explicit();
    Run& last = runs_.back();
    const std::size_t at = values_.size();
    // Room for every tile the bank has left: one allocation per bank
    // rather than a doubling series of fresh, page-faulting ones.
    if (values_.capacity() < at + static_cast<std::size_t>(n))
      values_.reserve(at + static_cast<std::size_t>(tiles_ - size()));
    values_.resize(at + static_cast<std::size_t>(n));
    long* dst = values_.data() + at;
    long rise = last.rise;
    long prev = last.end > last.begin ? last_ : src[0] + add;
    for (long t = 0; t < n; ++t) {
      dst[t] = src[t] + add;
      rise = std::min(rise, dst[t] - prev);
      prev = dst[t];
    }
    last.rise = rise;
    last.end += n;
    last_ = prev;
  }

  // avail of the next n tiles: resampled from upstream run `up_run`
  // (whose rise over the indices they read is at least up_rise), the
  // last of them `last`.
  void push_resampled(long n, long up_run, long up_rise, long last,
                      bool snap) {
    Run& prev = runs_.back();
    const AvailRuns& up = *resample_.up;
    last_ = last;
    // The tiles before read the same upstream run through the same
    // formula, so they are one run if the up_rise of each holds over all
    // of the upstream run (for snapped runs, between its groups).
    if (up_run != kAnyRun && prev.kind == Kind::kResampled &&
        prev.offset == up_run && prev.up_rise == up_rise &&
        prev.snap == snap &&
        (snap ||
         up_rise <= up.run(static_cast<std::size_t>(up_run)).rise)) {
      prev.end += n;
      return;
    }
    const long end = prev.end;
    runs_.push_back({end, end + n, 0, 0, up_run, 0, up_rise,
                     Kind::kResampled, snap});
    runs_.back().rise = resampled_rise_over(runs_.back(), 1);
    if (up_run == kAnyRun) {
      values_from_ = std::min({values_from_, up.id_, up.values_from_});
      return;
    }
    const Run& read = up.run(static_cast<std::size_t>(up_run));
    const long from = read.kind == Kind::kExplicit ? resample_.up->id_
                      : read.kind == Kind::kResampled
                          ? resample_.up->values_from_
                          : kNoValues;
    values_from_ = std::min(values_from_, from);
  }

  // A lower bound on avail(i + m) - avail(i) for i and i + m inside
  // `run`, m >= 1, in O(depth of the resampled runs below it).
  [[nodiscard]] long rise_over(const Run& run, long m) const {
    if (m == 1) return run.rise;
    if (run.kind == Kind::kAffine)
      return saturate(static_cast<Wide>(run.slope) * m);
    if (run.kind == Kind::kExplicit)
      return saturate(static_cast<Wide>(run.rise) * m);
    if (run.memo_m != m) {
      run.memo_rise = resampled_rise_over(run, m);
      run.memo_m = m;
    }
    return run.memo_rise;
  }

 private:
  [[nodiscard]] long resampled_rise_over(const Run& run, long m) const {
    // m tiles advance the upstream index by a >= floor(m D / den), and a
    // rise over a steps is at least the bound over fewer steps plus the
    // single-step rise for each step more.
    const Resample& p = resample_;
    if (run.snap) {
      // Inside a group avail rises by T a tile; the first tile of a group
      // lands an upstream step (>= up_rise) after the previous group's
      // first, less T for each tile of that group after its first. Over
      // m tiles inside one group the rise is T m. A window of m tiles
      // that starts s tiles into a group of c <= snap_sharing and sees
      // one group start ends m - (c - s - 1) tiles into the next group,
      // so it rises by up_rise - T (c - m) >= up_rise - T (snap_sharing -
      // m); seeing more group starts adds an up_rise >= T snap_sharing
      // for each.
      Wide v = static_cast<Wide>(run.up_rise) -
               static_cast<Wide>(p.period) *
                   std::max<long>(0, p.snap_sharing - m);
      if (m < p.snap_sharing) v = std::min(v, static_cast<Wide>(p.period) * m);
      return saturate(v);
    }
    const auto upstream = [&](long a) {
      const long per_step = saturate(static_cast<Wide>(a) * run.up_rise);
      if (run.offset == kAnyRun) return per_step;
      return std::max(
          p.up->rise_over(p.up->run(static_cast<std::size_t>(run.offset)), a),
          per_step);
    };
    if (m == 1) {
      if (p.streamed >= p.den) return upstream(p.step);
      return saturate(std::min<Wide>(
          p.period, static_cast<Wide>(upstream(1)) -
                        static_cast<Wide>(p.period) * p.single_repeats));
    }
    long rem = 0;
    const long a0 = p.by_den.floor(static_cast<Wide>(m) * p.streamed, rem);
    if (p.streamed >= p.den) return upstream(a0);  // c(k) = 1 throughout
    // D < den: avail(i + m) - avail(i) = up-rise over a steps
    // + T (c(i + m) - c(i)), with c(i + m) >= 1. If c(i) = 1 + s, the
    // group of tile i began s tiles before it, so a >= floor((m + s) D /
    // den); if that is 0, all m tiles repeat one index and the rise is
    // exactly T m. Take the worst s for each a: at most three of them.
    const long base = std::max<long>(a0, 1);
    const long x = upstream(base);
    const long a_top =
        p.by_den.floor(static_cast<Wide>(m + p.sharing - 1) * p.streamed, rem);
    Wide best = kRiseCap;
    for (long a = a0; a <= a_top; ++a) {
      const long s = std::min(
          p.sharing - 1,
          p.by_streamed.ceil(static_cast<Wide>(a + 1) * p.den) - 1 - m);
      const Wide v = a == 0 ? static_cast<Wide>(p.period) * m
                            : static_cast<Wide>(x) +
                                  static_cast<Wide>(a - base) * run.up_rise -
                                  static_cast<Wide>(p.period) * s;
      best = std::min(best, v);
    }
    return saturate(best);
  }


 public:
  // Whether some indices of the resampled runs repeat the previous
  // index's upstream dependency (D < den). A step into such an index
  // rises by exactly T, and the step after it by at least after_rise;
  // every other step of a resampled run rises by at least its up_rise,
  // since both ends have c = 1.
  [[nodiscard]] bool repeats() const {
    return resample_.streamed > 0 && resample_.streamed < resample_.den;
  }
  [[nodiscard]] bool repeats_at(long i) const {
    long rem = 0;
    resample_.by_den.floor(static_cast<Wide>(i) * resample_.streamed, rem);
    return i > 0 && rem >= resample_.streamed;
  }
  [[nodiscard]] long after_rise(const Run& run) const {
    // The index after a group of c <= sharing tiles.
    return saturate(static_cast<Wide>(run.up_rise) -
                    static_cast<Wide>(resample_.period) *
                        (resample_.sharing - 1));
  }
  // The first index past x that repeats its predecessor's dependency.
  // floor(i D / den) = i - ceil(i E / den) with E = den - D, and that
  // ceiling steps up at i exactly when (i - 1) E / den <= m < i E / den
  // for an integer m: at i = floor(m den / E) + 1, m >= 0.
  [[nodiscard]] long next_repeat(long x) const {
    const long e = resample_.den - resample_.streamed;
    long rem = 0;
    const long m = resample_.by_den.ceil(static_cast<Wide>(x) * e);
    return resample_.by_gap.floor(static_cast<Wide>(m) * resample_.den, rem) +
           1;
  }

  // avail at n >= 1 indices idx[0] <= ... <= idx[n - 1], into out. The
  // indices inside one resampled run read their upstream indices as one
  // batch a bank down, so the floors of a batch do not wait on one
  // another. scratch holds 2 n longs for every bank of resampled runs
  // below this one.
  void values_at(const long* idx, long n, long* out, long* scratch) const {
    std::size_t r = run_of(idx[0]);
    for (long t = 0; t < n;) {
      while (runs_[r].end <= idx[t]) ++r;
      long u = t + 1;
      while (u < n && idx[u] < runs_[r].end) ++u;
      values_in(runs_[r], idx + t, u - t, out + t, scratch);
      t = u;
    }
  }

  // The same for indices that all lie inside `run`: a resampled run reads
  // them all inside the one upstream run it reads.
  void values_in(const Run& run, const long* idx, long n, long* out,
                 long* scratch) const {
    if (run.kind == Kind::kAffine) {
      for (long t = 0; t < n; ++t)
        out[t] = run.first + run.slope * (idx[t] - run.begin);
      return;
    }
    if (run.kind == Kind::kExplicit) {
      const long* v = values(run);
      for (long t = 0; t < n; ++t) out[t] = v[idx[t] - run.begin];
      return;
    }
    const Resample& p = resample_;
    long* up_idx = scratch;
    long* up_val = scratch + n;
    if (run.snap) {
      for (long t = 0; t < n; ++t) {
        long rem = 0;
        const long i =
            p.warmup - 1 +
            p.by_den.floor(static_cast<Wide>(idx[t]) * p.streamed, rem);
        up_idx[t] = p.up->group_start(i);
        out[t] = p.period * (idx[t] - first_reading(up_idx[t]) + 1);
      }
    } else if (static_cast<Wide>(idx[n - 1]) * p.streamed < p.by_den.exact) {
      for (long t = 0; t < n; ++t) {
        long rem = 0;
        up_idx[t] =
            p.warmup - 1 + p.by_den.floor_exact(idx[t] * p.streamed, rem);
        out[t] = p.period * group(rem);
      }
    } else {
      for (long t = 0; t < n; ++t) {
        long rem = 0;
        up_idx[t] = p.warmup - 1 +
                    p.by_den.floor(static_cast<Wide>(idx[t]) * p.streamed, rem);
        out[t] = p.period * group(rem);
      }
    }
    if (run.offset == kAnyRun)
      p.up->values_at(up_idx, n, up_val, scratch + 2 * n);
    else
      p.up->values_in(p.up->run(static_cast<std::size_t>(run.offset)), up_idx,
                      n, up_val, scratch + 2 * n);
    for (long t = 0; t < n; ++t) out[t] += up_val[t];
  }

  // The first index of the group of indices that read the same upstream
  // index as i, and that upstream index's quotient floor(i D / den).
  [[nodiscard]] long group_start(long i) const {
    long rem = 0;
    resample_.by_den.floor(static_cast<Wide>(i) * resample_.streamed, rem);
    return i - group(rem) + 1;
  }
  [[nodiscard]] long quotient(long i) const {
    long rem = 0;
    return resample_.by_den.floor(static_cast<Wide>(i) * resample_.streamed,
                                  rem);
  }
  // The first tile whose upstream index is i or more (i >= w - 1).
  [[nodiscard]] long first_reading(long i) const {
    const Resample& p = resample_;
    return p.by_streamed.ceil(static_cast<Wide>(i - p.warmup + 1) * p.den);
  }

  // The run holding index i.
  [[nodiscard]] std::size_t run_of(long i) const {
    const auto it = std::upper_bound(
        runs_.begin(), runs_.end(), i,
        [](long x, const Run& run) { return x < run.begin; });
    return static_cast<std::size_t>(it - runs_.begin()) - 1;
  }

  static constexpr long kNoValues = std::numeric_limits<long>::max();
  static constexpr long kAnyRun = -1;

  // avail(i + 1) - avail(i) for any i, across runs too: a streamed bank's
  // de(k) = max(dep(k), de(k - 1)) + T rises by T at least.
  [[nodiscard]] long floor_rise() const { return resample_.period; }

 private:
  [[nodiscard]] long group(long rem) const {
    return group_of(rem, resample_.streamed, resample_.den);
  }

  void open_explicit() {
    const long end = runs_.back().end;
    runs_.push_back({end, end, 0, 0, static_cast<long>(values_.size()),
                     kRiseCap, 0, Kind::kExplicit});
    values_from_ = std::min(values_from_, id_);
  }

  static constexpr long kShortRun = 16;
  static constexpr std::size_t kFewRuns = 8;

  std::vector<Run> runs_;
  std::vector<long> values_;
  Resample resample_;
  long tiles_ = 0;
  long last_ = 0;  // the last value pushed
  long id_ = 0;
  long values_from_ = kNoValues;
};

// Finds the runs of one AvailRuns holding the indices a walk visits,
// mostly in non-decreasing order.
class RunSeeker {
 public:
  explicit RunSeeker(const AvailRuns& runs) : runs_(runs) {}

  const AvailRuns::Run& seek(long i) {
    while (runs_.run(run_).end <= i) ++run_;
    while (runs_.run(run_).begin > i) --run_;
    return runs_.run(run_);
  }
  [[nodiscard]] std::size_t index() const { return run_; }

 private:
  const AvailRuns& runs_;
  std::size_t run_ = 0;
};

// One streamed bank: neither operand resident, so fill, compute and
// drain serialize over the bank's one backing bus (see the header and
// docs/PERFORMANCE.md, "Cycle-accurate mode"). Per tile
//   fe(k) = max(dep(k), de(k-1)) + f,  e(k) = fe(k) + cpt,
//   de(k) = avail[k] = e(k) + d        (de(-1) = 0),  T = f + cpt + d,
// and tile k > 0 waits max(e(k-1), dep(k)) - e(k-1) cycles on its
// dependency and the rest, up to fe(k), on its fill. A tile that reads
// the same upstream index as the one before it (D < den) is always
// self-paced: its dependency was met before that tile computed. The
// schedule runs a stretch of tiles at a time where one of two closed
// forms holds, and walks the recurrence tile by tile elsewhere:
//   self-paced        dep(j) <= e(j-1) for every tile j of the stretch:
//                     de rises by T per tile, each tile adds f + d to
//                     the fill stall and nothing to the dependency stall;
//   dependency-bound  every tile that reads a new upstream index waits
//                     on it (dep(j) >= de(j-1)) and the c - 1 after it
//                     that read it again are self-paced: de(j) =
//                     dep(j) + T c(j), and the stalls telescope.
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

  // `scratch` has room for AvailRuns::values_at over kChunk indices.
  StreamedBank(const Timing& t, const AvailRuns& upstream, AvailRuns& out,
               long* scratch, EventLog& log, int bank_id)
      : t_(t), period_(t.fill + t.cpt + t.drain),
        den_(std::max<long>(t.tiles - 1, 1)),
        sharing_(t.streamed > 0 ? (den_ + t.streamed - 1) / t.streamed : 1),
        up_(upstream), seeker_(upstream), out_(out), scratch_(scratch),
        log_(log), bank_id_(bank_id), share_(t.streamed, den_) {
    // A one-tile bank takes all of D.
    if (t.tiles == 1) share_.q = t.streamed;
    const bool repeats = t.streamed > 0 && t.streamed < den_;
    const Divisor by_streamed(std::max<long>(t.streamed, 1));
    const long up_sharing = upstream.resample().sharing;
    out_.set_resample({
        .up = &upstream,
        .warmup = t.warmup,
        .streamed = t.streamed,
        .den = den_,
        .period = period_,
        .sharing = sharing_,
        .by_den = Divisor(den_),
        .by_gap = Divisor(std::max<long>(den_ - t.streamed, 1)),
        .step = t.streamed / den_,
        .single_repeats =
            repeats
                ? std::min(sharing_ - 1,
                           by_streamed.ceil(static_cast<Wide>(2) * den_) - 2)
                : 0,
        .snap_sharing =
            repeats && upstream.repeats()
                ? by_streamed.ceil(static_cast<Wide>(up_sharing) * den_)
                : 0,
        .by_streamed = by_streamed,
    });
  }

  static constexpr long kChunk = 128;

  void schedule() {
    // Tile 0 opens the active window, and every tile whose events are
    // recorded is walked, so the event log is the walk's.
    while (k_ < t_.tiles && (k_ == 0 || log_.recording()))
      walk(dependency(index()));
    while (k_ < t_.tiles) {
      if (repeats_index()) continue;
      const AvailRuns::Run& run = seeker_.seek(index());
      if (run.kind == AvailRuns::Kind::kAffine && self_paced_by_bound(run))
        continue;
      if (dependency_bound_by_bound(run)) continue;
      if (run.kind != AvailRuns::Kind::kResampled) {
        gather();
        continue;
      }
      if (self_paced_ && self_paced_to_run_end(run)) continue;
      // A tile or two next to an exception cost less to walk than a
      // chunk does to gather through resampled runs; after a gather,
      // gathers go on until a stretch is proven again.
      if (walks_ < kMaxWalks) {
        ++walks_;
        walk(dependency(index()));
        continue;
      }
      gather();
    }
  }

  long start = 0;
  long finish() const { return e_; }
  long dependency_stall = 0;
  long fill_stall = 0;
  long walked = 0;
  long gathered = 0;

 private:
  // A proven stretch shorter than this is walked or gathered instead:
  // its proof reads two values through every bank of resampled runs
  // above it, where walking one tile reads one.
  static constexpr long kMinStretch = 2;
  // Tiles walked in a row before the rest goes to gathers.
  static constexpr long kMaxWalks = 2;

  // The upstream avail at index i, which the walks visit in order.
  long dependency(long i) {
    long v = 0;
    up_.values_in(seeker_.seek(i), &i, 1, &v, scratch_);
    return v;
  }

  // Upstream index tile k_ reads: needed - 1, where needed = w + share
  // (never above the upstream tile count, see simulate_cycles).
  [[nodiscard]] long index() const { return t_.warmup - 1 + share_.q; }

  // The first tile whose upstream index is i or more (i >= w; D > 0),
  // or the tile count if none is:
  // index(j) >= i  <=>  floor(j D / den) >= i - w + 1
  //                <=>  j D >= (i - w + 1) den.
  [[nodiscard]] long first_tile_reading(long i) const {
    if (static_cast<Wide>(i - t_.warmup + 1) * den_ >
        static_cast<Wide>(t_.tiles) * t_.streamed)
      return t_.tiles;
    return std::min(out_.first_reading(i), t_.tiles);
  }

  // The last tile whose upstream index lies inside `run`.
  [[nodiscard]] long last_tile(const AvailRuns::Run& run) const {
    if (t_.streamed == 0) return t_.tiles - 1;
    return first_tile_reading(run.end) - 1;
  }

  // The per-tile recurrence, for tile k_ with dependency `dep`.
  void walk(long dep) {
    self_paced_ = dep <= e_;
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

  // Tile k_ reads the index tile k_ - 1 read, and so do the tiles after
  // it up to the next carry: all self-paced, committed at once.
  bool repeats_index() {
    if (t_.streamed >= den_ || share_.r < t_.streamed) return false;
    const long next =
        t_.streamed > 0 ? first_tile_reading(index() + 1) : t_.tiles;
    commit_self_paced(next - k_);
    share_.seek(k_);
    return true;
  }

  // A self-paced stretch from tile k_ proven without visiting its tiles,
  // over one affine upstream run A + S*i (S >= 0). A floor is at most its
  // real value and S >= 0, so dep(j) <= A + S*(w - 1 + j D/den - begin),
  // which is affine in j, as is e(j-1) = e(k_-1) + (j - k_) T: their
  // difference is affine, and testing it at both ends of the stretch is
  // exact. The test runs in integers scaled by den.
  bool self_paced_by_bound(const AvailRuns::Run& run) {
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

  // A dependency-bound stretch from tile k_ (which reads a new upstream
  // index) over the upstream run holding its index, proven in O(1) from
  // the run's rise bound. Tile k_ is tested exactly; after it, a tile
  // that reads an index s past the one the c tiles before it read waits
  // on it if the run rises by c T over s indices. With D >= den, c = 1
  // and s >= floor(D/den), and where the upstream's own period covers T
  // over s indices the stretch runs over all its runs to the bank's end.
  // With D < den, s = 1 and c <= sharing: a snappable run needs no cut;
  // otherwise, where the bound holds only for c = 1 the stretch stops
  // after the group of this bank's next repeated index, and where the
  // upstream run's own repeated indices (which rise by just their T)
  // break it, before the first tile that reads one. Committed as one
  // resampled run.
  bool dependency_bound_by_bound(const AvailRuns::Run& run) {
    if (index() == read_ + 1 && seeker_.index() == read_run_ &&
        repeats_in(run) && up_.repeats_at(index())) {
      // The index after the last stretch's last one repeats its upstream
      // dependency, so it lands exactly T_up later: a tile that does not
      // wait on it is walked with no read.
      const long dep = read_value_ + up_.resample().period;
      if (dep < de_ && walks_ < kMaxWalks) {
        ++walks_;
        walk(dep);
        return true;
      }
    }
    long last = last_tile(run);
    long up_rise = run.rise;
    long up_run = static_cast<long>(seeker_.index());
    bool snap = false;
    if (t_.streamed >= den_) {
      const long step = t_.streamed / den_;
      if (up_.rise_over(run, step) < period_ || last - k_ + 1 < kMinStretch) {
        // The upstream rises by its own period per index across all its
        // runs: if that is enough, the rest of the bank is one stretch.
        if (static_cast<Wide>(up_.floor_rise()) * step < period_) return false;
        last = t_.tiles - 1;
        up_rise = up_.floor_rise();
        up_run = AvailRuns::kAnyRun;
      }
    } else if (snappable(run)) {
      // Every tile that reads a repeated upstream index lands by the
      // previous tile's drain, so the bank waits only on the first index
      // of each upstream group.
      snap = true;
      up_rise = run.up_rise;
    } else {
      const Wide need = static_cast<Wide>(period_) * sharing_;
      if (up_rise < need && repeats_in(run)) {
        // Up to the upstream's next repeated index only the step after
        // tile k_'s index can be weak, and only if that one repeats.
        long plain = run.up_rise;
        if (up_.repeats_at(index()))
          plain = std::min(plain, up_.after_rise(run));
        if (plain > up_rise) {
          up_rise = plain;
          const long x = up_.next_repeat(index());
          if (x < run.end) last = std::min(last, first_tile_reading(x) - 1);
        }
      }
      if (up_rise < period_) return false;
      if (up_rise < need) {
        const long r = out_.next_repeat(k_);
        if (r < t_.tiles) {
          TileShare at = share_;
          at.seek(r);
          last = std::min(last, first_tile_reading(t_.warmup + at.q) - 1);
        }
      }
    }
    const long n = last - k_ + 1;
    if (n < kMinStretch) return false;
    TileShare end = share_;
    end.seek(last);
    const long read_last = t_.warmup - 1 + end.q;
    // The upstream index the last tile's avail counts from, and its
    // tiles since the first that read it.
    const long from_last = snap ? up_.group_start(read_last) : read_last;
    const long c_last = snap ? last - first_tile_reading(from_last) + 1
                             : end.group();
    const long idx[2] = {index(), from_last};
    long dep[2];
    if (up_run == AvailRuns::kAnyRun)
      up_.values_at(idx, 2, dep, scratch_);
    else
      up_.values_in(run, idx, 2, dep, scratch_);
    if (dep[0] < de_) {
      // Tile k_ does not wait on its dependency: walk it and try again
      // from the next.
      if (walks_ >= kMaxWalks) return false;
      ++walks_;
      walk(dep[0]);
      return true;
    }
    walks_ = 0;
    const long e_last = dep[1] + period_ * c_last - t_.drain;
    const long groups =
        snap ? up_.quotient(read_last) - up_.quotient(index()) + 1
        : t_.streamed >= den_ ? n
                              : end.q - share_.q + 1;
    const long waits = snap ? snap_waits(index(), read_last) : 0;
    // sum_j fe(j) - e(j-1) = e(last) - e(k_-1) - n cpt. A tile that waits
    // on its dependency adds f to the fill stall; any other adds f + d,
    // less what it waits for a repeated upstream index (`waits`); the rest
    // is waiting on the dependency.
    dependency_stall +=
        e_last - e_ - n * period_ + groups * t_.drain + waits;
    fill_stall += n * (t_.fill + t_.drain) - groups * t_.drain - waits;
    out_.push_resampled(n, up_run, up_rise, e_last + t_.drain, snap);
    read_ = snap ? -2 : idx[1];
    read_value_ = dep[1];
    read_run_ = seeker_.index();
    e_ = e_last;
    de_ = e_last + t_.drain;
    k_ = last + 1;
    share_ = end;
    share_.next();
    return true;
  }

  // A self-paced stretch from tile k_ to the last tile that reads inside
  // resampled upstream run `run`, proven where the dependency of that
  // last tile landed by e(k_-1): dependencies never fall with j, and
  // e(j-1) never falls below e(k_-1). Tried after a self-paced tile.
  bool self_paced_to_run_end(const AvailRuns::Run& run) {
    const long last = last_tile(run);
    if (last - k_ + 1 < kMinStretch) return false;
    TileShare end = share_;
    end.seek(last);
    const long i = t_.warmup - 1 + end.q;
    long dep = 0;
    up_.values_in(run, &i, 1, &dep, scratch_);
    if (dep > e_) {
      self_paced_ = false;
      return false;
    }
    commit_self_paced(last - k_ + 1);
    share_ = end;
    share_.next();
    return true;
  }

  // Whether `run` is a resampled upstream run that reads some upstream
  // index twice in a row: the index of the second read repeats the
  // first's dependency (AvailRuns::repeats).
  [[nodiscard]] bool repeats_in(const AvailRuns::Run& run) const {
    return run.kind == AvailRuns::Kind::kResampled && !run.snap &&
           up_.repeats();
  }

  // Whether a stretch from tile k_ over resampled upstream run `run`
  // with repeated indices can read only the first index of each upstream
  // group. A repeated index y lands T_up after y - 1, by the drain of the
  // tile that read y - 1 if T_up <= T, so it never binds. The first
  // index of a group lands a whole upstream step (>= up_rise) after the
  // previous group's, which up to snap_sharing tiles read: binding if
  // up_rise >= T snap_sharing. Tile k_ must read a group's first index.
  [[nodiscard]] bool snappable(const AvailRuns::Run& run) const {
    const long sharing = out_.resample().snap_sharing;
    return repeats_in(run) && sharing > 0 &&
           up_.resample().period <= period_ &&
           static_cast<Wide>(run.up_rise) >=
               static_cast<Wide>(period_) * sharing &&
           !up_.repeats_at(index());
  }

  // What the tiles of a snapped stretch wait for the repeated upstream
  // indices y in (from, to]: the first tile reading y waits
  // max(0, up(y) - e(j-1)), where up(y) is T_up (c_up(y) - 1) past the
  // group's first index and e(j-1) is T c - d past it, c the tiles that
  // read the group before y.
  long snap_waits(long from, long to) const {
    const AvailRuns::Resample& u = up_.resample();
    if (u.period * (u.sharing - 1) + t_.drain <= period_) return 0;
    long waits = 0;
    for (long y = up_.next_repeat(from); y <= to; y = up_.next_repeat(y)) {
      const long first = up_.group_start(y);
      const long before = first_tile_reading(y) - first_tile_reading(first);
      waits += std::max<long>(
          0, u.period * (y - first) + t_.drain - period_ * before);
    }
    return waits;
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

  // Up to kChunk tiles from k_: gather their dependencies in one
  // branch-free pass (inside one affine or explicit upstream run, or
  // through resampled runs as one batch), test both closed forms over the
  // whole chunk, and commit the one that holds.
  void gather() {
    walks_ = kMaxWalks;
    const AvailRuns::Run& run = seeker_.seek(index());
    long n = std::min(kChunk, last_tile(run) - k_ + 1);
    long dep[kChunk];
    const long base = t_.warmup - 1 - run.begin;
    Pass pass{share_, false, false};
    switch (run.kind) {
      case AvailRuns::Kind::kAffine:
        pass = gather_pass(
            n, dep, [first = run.first, slope = run.slope, base](long q) {
              return first + slope * (base + q);
            });
        break;
      case AvailRuns::Kind::kExplicit:
        pass = gather_pass(n, dep, [v = up_.values(run), base](long q) {
          return v[base + q];
        });
        break;
      case AvailRuns::Kind::kResampled: {
        n = std::min(kChunk, t_.tiles - k_);
        long idx[kChunk];
        TileShare s = share_;
        long t = 0;
        do {
          idx[t] = t_.warmup - 1 + s.q;
          s.next();
        } while (++t < n);
        long read[kChunk];
        up_.values_at(idx, n, read, scratch_);
        pass = gather_pass(n, dep,
                           [next = read](long) mutable { return *next++; });
        break;
      }
    }
    gathered += n;
    if (pass.self_paced || pass.bound) {
      if (pass.self_paced)
        commit_self_paced(n);
      else
        commit_dependency_bound(dep, n);
      self_paced_ = pass.self_paced;
      share_ = pass.share;
      return;
    }

    // Mixed chunk: split it into its self-paced and dependency-bound
    // stretches in place, and walk the tiles that fit neither (their
    // dependency lands while the previous drain is in flight).
    for (long t = 0; t < n;) {
      long end = t + 1;
      self_paced_ = dep[t] <= e_;
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
  const long period_;   // T
  const long den_;
  const long sharing_;  // ceil(den / D): most tiles that read one index
  const AvailRuns& up_;
  RunSeeker seeker_;
  AvailRuns& out_;
  long* const scratch_;
  EventLog& log_;
  const int bank_id_;
  TileShare share_;
  long k_ = 0;   // next tile
  long e_ = 0;   // e(k_-1)
  long de_ = 0;  // de(k_-1)
  long walks_ = 0;  // tiles walked since the last stretch
  bool self_paced_ = false;  // the last tile walked or gathered was
  // The last upstream index a stretch's last tile read, its run and value.
  long read_ = -2;
  std::size_t read_run_ = 0;
  long read_value_ = 0;
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
      if (bank.mapping.matrix_rows < 0 || bank.mapping.matrix_cols < 0) {
        diags.emit("MN-CYC-002", check::Severity::kError,
                   loc + " has a negative matrix size")
            .location = loc;
        continue;
      }
      const double if_tile = bank.mapping.matrix_rows * elem_bytes;
      const double of_tile = bank.mapping.matrix_cols * elem_bytes;
      // A slot holds at least one byte, even of an empty tile.
      if (std::max(if_tile, 1.0) > if_capacity) {
        auto& d = diags.emit(
            "MN-CYC-003", check::Severity::kError,
            loc + ": ifmap scratchpad smaller than one tile");
        d.location = loc;
        d.hint = "one ifmap tile is " + std::to_string(if_tile) +
                 " bytes; raise [cycle] Ifmap_KB";
      }
      if (std::max(of_tile, 1.0) > of_capacity) {
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
  // A pinned clock past the range of double in hertz is refused before
  // the product overflows.
  if (config.cycle_clock_ghz > std::numeric_limits<double>::max() / 1e9) {
    throw cycle_domain_error("", "lower [cycle] Clock_GHz (or leave it 0 "
                                 "for auto)");
  }
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
    // A bus so slow against the clock that it moves no representable
    // part of a byte in a cycle.
    if (!(bytes_per_cycle > 0)) throw cycle_domain_error("", hint);
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
  {
    // A tile records at most three events (a bulk transfer takes the
    // place of a tile's), so a run that records everything fills this
    // vector once instead of doubling it.
    long most = static_cast<long>(report.banks.size());
    for (const auto& bank : report.banks)
      most += 3 * std::max<long>(bank.iterations, 0);
    result.events.reserve(static_cast<std::size_t>(std::min(log.max, most)));
  }
  long walked_tiles = 0;
  long gathered_tiles = 0;

  // avail[b + 1] is bank b's avail, and avail[0] the no-upstream of bank
  // 0. A resampled run reads the bank above it, which may read the one
  // above that, so every bank's runs live for the whole call; stored
  // values are released once no later bank can read them. Reading through
  // resampled runs takes 2 * kChunk longs of scratch a bank.
  const std::size_t n_banks = report.banks.size();
  std::vector<AvailRuns> avail;
  avail.reserve(n_banks + 1);
  for (std::size_t b = 0; b <= n_banks; ++b)
    avail.emplace_back(static_cast<long>(b));
  const std::unique_ptr<long[]> scratch(
      new long[2 * StreamedBank::kChunk * (n_banks + 1)]);
  std::size_t released = 0;
  long makespan = 0;

  for (std::size_t b = 0; b < n_banks; ++b) {
    const auto& bank = report.banks[b];
    CycleBankStats& stats = result.banks[b];
    const long tiles = bank.iterations;
    AvailRuns& out = avail[b + 1];
    out.clear(tiles);
    if (tiles <= 0) continue;
    const AvailRuns& up = avail[b];

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
                            up, out, scratch.get(), log, bank_id);
      streamed.schedule();
      walked_tiles += streamed.walked;
      gathered_tiles += streamed.gathered;
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
      RunSeeker seeker(up);
      const auto read = [&up, &seeker, at = scratch.get()](long i) {
        long v = 0;
        up.values_in(seeker.seek(i), &i, 1, &v, at);
        return v;
      };
      TileShare share(streamed_total, std::max<long>(tiles - 1, 1));
      if (tiles == 1) share.q = streamed_total;
      auto next_dependency = [&] {
        const long dep = read(up_warmup - 1 + share.q);
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
        const long dep = read(up_passes - 1);
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
          out.push(drain_end);
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
        out.push_affine(tiles, drain_end, 0);
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
    makespan = std::max(makespan, out.back());
    // Later banks read only this one's runs and what they reach.
    const std::size_t keep = static_cast<std::size_t>(
        std::min(static_cast<long>(b) + 1, out.values_from()));
    for (; released < keep; ++released) avail[released].release_values();
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
    reg.add("cycle.gathered_tiles", gathered_tiles);
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