#include "arch/cycle_sim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory_resource>
#include <string>
#include <vector>

#include "arch/design_context.hpp"
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

  void next() {
    const long over = r + step_r - den.d;
    const bool carry = over >= 0;
    r = carry ? over : over + den.d;
    q += step_q + carry;
  }
  void seek(long k) { q = den.floor(static_cast<Wide>(k) * total, r); }
};

// The m >= x at which ceil(m e / q) steps up (0 < e <= q), in order:
// m = floor(t q / e) for t = ceil(x e / q), ceil(x e / q) + 1, ..., as
// the quotient of a cursor that advances without dividing.
TileShare step_ups(long x, long e, long q) {
  TileShare at(q, e);
  at.seek(static_cast<long>((static_cast<Wide>(x) * e + q - 1) / q));
  return at;
}

// A bank's avail[k] — the cycle its tile-k output has landed in the
// backing store — as runs of consecutive tiles of three kinds:
//   affine     first + slope * (k - begin): a self-paced stretch;
//   explicit   one stored value per tile: walked tiles;
//   resampled  up(w - 1 + floor(k D / den)) + T * c(k), read through the
//              upstream bank's runs and stored as nothing: a
//              dependency-bound stretch, in which the first of the c(k)
//              tiles that read one upstream index waits on it and the
//              rest follow it by T each. A resampled run reads one
//              upstream run.
// Every run keeps a lower bound on its rise from one index to the next,
// and rise_over() one over m indices: what the next bank's proofs read.
// avail never falls with k, so every rise and slope is >= 0.
class AvailRuns {
 public:
  enum class Kind : unsigned char { kAffine, kExplicit, kResampled };
  struct Run {
    long begin = 0;
    long end = 0;      // one past the last index
    long first = 0;    // affine: the value at begin; resampled: lows index
    long slope = 0;    // affine: the increment per index; resampled: lows
    long offset = 0;   // explicit: values index of begin;
                       // resampled: the upstream run every index reads
    long rise = 0;     // avail(i + 1) - avail(i) >= rise inside the run
    long up_rise = 0;  // resampled: the same bound for the upstream
                       // indices the run reads
    Kind kind = Kind::kAffine;
    // resampled: some index inside an upstream group sets no new maximum
    // of h, so a tile's running maximum is read from the start of its
    // upstream group (see avail_in). Otherwise the `slope` upstream
    // indices listed from lows_[first] on set none either, each right
    // after one that does, which a tile reading them reads instead.
    bool window = false;
    long drop = 0;  // either way: the most a value exceeds up + T c(k)
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
    Divisor by_streamed{1};
    // D < den over an upstream bank that repeats indices too.
    bool grouped = false;
  };

  // Most banks take a handful of runs: room for this many is made once.
  static constexpr std::size_t kFewRuns = 8;

  // Every negative index reads 0: a tile that needs no upstream tile has
  // its dependency met at cycle 0. A zero-slope run from far below any
  // index says so without a branch. The runs are held in `runs_memory`,
  // which must outlive them.
  AvailRuns(long id, std::pmr::memory_resource* runs_memory)
      : runs_(runs_memory), id_(id) {
    clear();
  }

  // Starts a bank.
  void clear() {
    runs_.clear();
    runs_.reserve(kFewRuns);
    runs_.push_back(Run{std::numeric_limits<long>::min() / 2, 0, 0, 0, 0, 0,
                        0, Kind::kAffine});
    values_.clear();
    lows_.clear();
    last_ = 0;
    values_from_ = kNoValues;
  }
  void set_resample(const Resample& p) { resample_ = p; }

  [[nodiscard]] long back() const { return last_; }
  [[nodiscard]] const Run& run(std::size_t r) const { return runs_[r]; }
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
      const long end = last.end;
      runs_.push_back({end, end + 1, 0, 0, static_cast<long>(values_.size()),
                       kRiseCap, 0, Kind::kExplicit});
      values_from_ = std::min(values_from_, id_);
      values_.push_back(v);
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

  // avail of the next n tiles: resampled from upstream run `up_run`
  // (whose rise over the indices they read is at least up_rise), windowed
  // or reading, for each upstream index listed in `lows`, the one before
  // it (see Run). Returns the last of them.
  long push_resampled(long n, long up_run, long up_rise, bool window,
                      long drop, const std::vector<long>& lows) {
    Run& prev = runs_.back();
    const AvailRuns& up = *resample_.up;
    const long first_low = static_cast<long>(lows_.size());
    lows_.insert(lows_.end(), lows.begin(), lows.end());
    // The tiles before read the same upstream runs through the same
    // formula, so they are one run if the up_rise of each holds over all
    // that they read.
    if (prev.kind == Kind::kResampled && prev.offset == up_run &&
        prev.up_rise == up_rise && prev.window == window &&
        (prev.slope == 0) == lows.empty() &&
        up_rise <= up.run(static_cast<std::size_t>(up_run)).rise) {
      prev.end += n;
      if (prev.slope == 0) prev.first = first_low;
      prev.slope += static_cast<long>(lows.size());
      prev.drop = std::max(prev.drop, drop);
      prev.memo_m = 0;
      last_ = avail_in(prev, prev.end - 1);
      return last_;
    }
    const long end = prev.end;
    runs_.push_back({end, end + n, first_low,
                     static_cast<long>(lows.size()), up_run, 0, up_rise,
                     Kind::kResampled, window, drop});
    runs_.back().rise = resampled_rise_over(runs_.back(), 1);
    const Run* read = window || !lows.empty()
                          ? nullptr
                          : &up.run(static_cast<std::size_t>(up_run));
    const long from = read == nullptr ? std::min(up.id_, up.values_from_)
                      : read->kind == Kind::kExplicit ? up.id_
                      : read->kind == Kind::kResampled ? up.values_from_
                                                       : kNoValues;
    values_from_ = std::min(values_from_, from);
    last_ = avail_in(runs_.back(), end + n - 1);
    return last_;
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

  // A lower bound on the rise of the upstream over a of the indices that
  // plain resampled run `run` reads.
  [[nodiscard]] long up_rise_over(const Run& run, long a) const {
    const long per_step = saturate(static_cast<Wide>(a) * run.up_rise);
    return std::max(
        resample_.up->rise_over(
            resample_.up->run(static_cast<std::size_t>(run.offset)), a),
        per_step);
  }

  // avail at index i, inside `run`.
  [[nodiscard]] long avail_in(const Run& run, long i) const {
    if (run.kind == Kind::kAffine)
      return run.first + run.slope * (i - run.begin);
    if (run.kind == Kind::kExplicit)
      return values_[static_cast<std::size_t>(run.offset + i - run.begin)];
    const Resample& p = resample_;
    long rem = 0;
    const long up_i =
        p.warmup - 1 + p.by_den.floor(static_cast<Wide>(i) * p.streamed, rem);
    if (!run.window) {
      if (!listed(run, up_i))
        return up_avail(run, up_i) + p.period * group(rem);
      return up_avail(run, up_i - 1) +
             p.period * (i + 1 - first_reading(up_i - 1));
    }
    // avail(k) = (k + 1) T + the running maximum of H(x) = up(x) -
    // first(x) T over the indices read so far, which a windowed run
    // reaches back from x = up_i only to the start s of its upstream
    // group: up(x) = up(s) + T_up (x - s) inside it.
    const long start = p.up->group_start(up_i);
    long best = std::numeric_limits<long>::min();
    for (long x = std::max(start, p.warmup - 1); x <= up_i; ++x)
      best = std::max(best, p.up->resample_.period * (x - start) -
                                p.period * first_reading(x));
    return up_avail(run, start) + p.period * (i + 1) + best;
  }
  [[nodiscard]] long avail(long i) const {
    return avail_in(runs_[run_of(i)], i);
  }

  // Whether this bank reads some upstream index with more than one tile.
  [[nodiscard]] bool repeats() const {
    return resample_.streamed > 0 && resample_.streamed < resample_.den;
  }
  // The first index of the group of indices that read the same upstream
  // index as i (i itself when the bank repeats none).
  [[nodiscard]] long group_start(long i) const {
    if (!repeats() || i <= 0) return i;
    long rem = 0;
    resample_.by_den.floor(static_cast<Wide>(i) * resample_.streamed, rem);
    return i - group(rem) + 1;
  }
  // floor(i D / den): which upstream index (less w - 1) i reads.
  [[nodiscard]] long quotient(long i) const {
    long rem = 0;
    return resample_.by_den.floor(static_cast<Wide>(i) * resample_.streamed,
                                  rem);
  }

  // Whether avail(j) - avail(i) >= need, for i <= j, decided exactly: by
  // the rise bounds where they suffice, else one bank down through a
  // resampled run (the T c(k) parts are exact), else from the values.
  [[nodiscard]] bool rises(long i, long j, long need) const {
    if (need <= 0) return true;
    if (i == j) return false;
    if (static_cast<Wide>(j - i) * floor_rise() >= need) return true;
    const Run& run = runs_[run_of(i)];
    if (j >= run.end) return avail(j) - avail_in(run, i) >= need;
    if (rise_over(run, j - i) >= need) return true;
    const Resample& p = resample_;
    if (run.kind != Kind::kResampled)
      return avail_in(run, j) - avail_in(run, i) >= need;
    long ri = 0;
    long rj = 0;
    const long ui = p.warmup - 1 +
                    p.by_den.floor(static_cast<Wide>(i) * p.streamed, ri);
    const long uj = p.warmup - 1 +
                    p.by_den.floor(static_cast<Wide>(j) * p.streamed, rj);
    // A windowed or listed value is never below the plain formula's and
    // at most `drop` above it: the plain rise decides where both ends
    // are plain, and proves the rise where it has the room.
    const bool plain_i = !run.window && !listed(run, ui);
    const bool plain_j = !run.window && !listed(run, uj);
    const Wide up_need = static_cast<Wide>(need) + (plain_i ? 0 : run.drop) -
                         static_cast<Wide>(p.period) * (group(rj) - group(ri));
    if (p.up->rises(ui, uj, saturate(up_need))) return true;
    return !(plain_i && plain_j) &&
           avail_in(run, j) - avail_in(run, i) >= need;
  }

  // Whether `run` lists upstream index i among its lows (see Run).
  [[nodiscard]] bool listed(const Run& run, long i) const {
    const auto lows = lows_.begin() + run.first;
    return run.slope > 0 && std::binary_search(lows, lows + run.slope, i);
  }

  // The first tile whose upstream index is i or more (i >= w - 1).
  [[nodiscard]] long first_reading(long i) const {
    const Resample& p = resample_;
    return p.by_streamed.ceil(static_cast<Wide>(i - p.warmup + 1) * p.den);
  }

  // The run holding index i: mostly the one that held the last index
  // asked, or the next.
  [[nodiscard]] std::size_t run_of(long i) const {
    const std::size_t n = runs_.size();
    if (hint_ < n && runs_[hint_].begin <= i) {
      if (i < runs_[hint_].end) return hint_;
      if (hint_ + 1 < n && i < runs_[hint_ + 1].end) return ++hint_;
    }
    const auto it = std::upper_bound(
        runs_.begin(), runs_.end(), i,
        [](long x, const Run& run) { return x < run.begin; });
    hint_ = static_cast<std::size_t>(it - runs_.begin()) - 1;
    return hint_;
  }

  static constexpr long kNoValues = std::numeric_limits<long>::max();

  // avail(i + 1) - avail(i) for any i >= -1, across runs too, and
  // avail(i) >= (i + 1) floor_rise: a streamed bank's
  // de(k) = max(dep(k), de(k - 1)) + T rises by T at least. 0 for a bank
  // with a resident operand.
  [[nodiscard]] long floor_rise() const { return resample_.period; }

 private:
  [[nodiscard]] long resampled_rise_over(const Run& run, long m) const {
    // m tiles advance the upstream index by a >= floor(m D / den), and a
    // rise over a steps is at least the bound over fewer steps plus the
    // single-step rise for each step more.
    const Resample& p = resample_;
    // A run read through group starts or listed lows is at most `drop`
    // above the plain formula, whose bound follows; it rises by T a tile.
    if (run.window || run.slope > 0) {
      Run plain = run;
      plain.window = false;
      plain.slope = 0;
      const Wide rise = resampled_rise_over(plain, m);
      return saturate(
          std::max(static_cast<Wide>(p.period) * m, rise - run.drop));
    }
    const auto upstream = [&](long a) { return up_rise_over(run, a); };
    if (m == 1) {
      // With D >= den a tile is floor(D/den) indices past the one before;
      // with D < den a tile that reads the next index may follow up to
      // min(sharing, ceil(2 den / D) - 1) - 1 repeats.
      if (p.streamed >= p.den) return upstream(p.streamed / p.den);
      const long repeats =
          std::min(p.sharing - 1,
                   p.by_streamed.ceil(static_cast<Wide>(2) * p.den) - 2);
      return saturate(std::min<Wide>(
          p.period, static_cast<Wide>(upstream(1)) -
                        static_cast<Wide>(p.period) * repeats));
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

  [[nodiscard]] long group(long rem) const {
    return group_of(rem, resample_.streamed, resample_.den);
  }
  // The upstream avail at index i, which resampled run `run` reads.
  [[nodiscard]] long up_avail(const Run& run, long i) const {
    const AvailRuns& up = *resample_.up;
    const Run& read = up.run(static_cast<std::size_t>(run.offset));
    return i >= read.begin ? up.avail_in(read, i) : up.avail(i);
  }

  static constexpr long kShortRun = 16;

  std::pmr::vector<Run> runs_;
  std::vector<long> values_;
  std::vector<long> lows_;
  Resample resample_;
  long last_ = 0;  // the last value pushed
  mutable std::size_t hint_ = 0;  // the run run_of last found
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
  // The upstream avail at index i.
  long avail(long i) { return runs_.avail_in(seek(i), i); }

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
// dependency and the rest, up to fe(k), on its fill. In max-plus form
//   de(k) = (k + 1) T + G(k),  G(k) = max(0, max over j <= k of h(j)),
//   h(j) = dep(j) - j T,
// so a bank's schedule is the running maximum G of h. A tile that reads
// the same upstream index as the one before it (D < den) has h lower by
// T, so it never sets a new maximum: it is self-paced. The schedule runs
// a stretch of tiles at a time where one of two closed forms holds, and
// walks the recurrence tile by tile elsewhere:
//   self-paced        dep(j) <= e(j-1) for every tile j of the stretch:
//                     G stays put, de rises by T per tile, each tile adds
//                     f + d to the fill stall and nothing to the
//                     dependency stall;
//   dependency-bound  h sets a new maximum at every tile that reads a new
//                     upstream index (or at all but a few, each counted
//                     with what it waits: see Reach), which waits on it
//                     and on nothing else, and the c - 1 after it that
//                     read it again are self-paced: de(j) = dep(j) + T c(j),
//                     and the stalls telescope.
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
        den_(std::max<long>(t.tiles - 1, 1)),
        sharing_(t.streamed > 0 ? (den_ + t.streamed - 1) / t.streamed : 1),
        up_(upstream), seeker_(upstream), out_(out), log_(log),
        bank_id_(bank_id), share_(t.streamed, den_),
        by_streamed_(std::max<long>(t.streamed, 1)) {
    // A one-tile bank takes all of D.
    if (t.tiles == 1) share_.q = t.streamed;
    out_.set_resample({
        .up = &upstream,
        .warmup = t.warmup,
        .streamed = t.streamed,
        .den = den_,
        .period = period_,
        .sharing = sharing_,
        .by_den = Divisor(den_),
        .by_streamed = by_streamed_,
        .grouped = t.streamed > 0 && t.streamed < den_ && upstream.repeats(),
    });
  }

  void schedule() {
    // Tile 0 opens the active window, and every tile whose events are
    // recorded is walked, so the event log is the walk's.
    while (k_ < t_.tiles && (k_ == 0 || log_.recording()))
      walk(seeker_.avail(index()));
    while (k_ < t_.tiles) {
      if (repeats_index()) continue;
      const long dep = seeker_.avail(index());
      if (dep >= de_ ? dependency_bound() : dep <= e_ && self_paced())
        continue;
      walk(dep);
    }
  }

  long start = 0;
  long finish() const { return e_; }
  long dependency_stall = 0;
  long fill_stall = 0;
  long walked = 0;
  long stretches = 0;

 private:
  // A proven stretch shorter than this is walked instead: committing it
  // costs as much as walking it, and leaves a run for the next bank.
  static constexpr long kMinStretch = 2;

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

  // A lower bound on the upstream's rise over s indices inside `run`, or
  // anywhere (null): a streamed upstream rises by its period an index.
  [[nodiscard]] long rise_bound(const AvailRuns::Run* run, long s) const {
    const long f = saturate(static_cast<Wide>(up_.floor_rise()) * s);
    return run == nullptr ? f : std::max(f, up_.rise_over(*run, s));
  }

  // Bank `a`'s plain resampled run `run` with D >= den rises from a tile
  // v to v + 1 by one step of floor(D/den) or floor(D/den) + 1 of its
  // upstream's indices: returns a bound on the longer steps' rise (0 where
  // that does not hold), and sets `shorter` to walk the others from v0.
  static long longer_steps(const AvailRuns& a, const AvailRuns::Run& run,
                           long v0, TileShare& shorter) {
    const AvailRuns::Resample& p = a.resample();
    if (run.kind != AvailRuns::Kind::kResampled || run.window ||
        run.slope > 0 || p.streamed < p.den || p.streamed % p.den == 0)
      return 0;
    shorter = step_ups(std::max(v0, 0L), p.den - p.streamed % p.den, p.den);
    return a.up_rise_over(run, p.streamed / p.den + 1);
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
    ++stretches;
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

  // Whether every tile j of [k_, b] is self-paced, dep(j) <= e(j-1),
  // from one read: the upstream rises by at least rho per index, so
  // dep(j) <= dep(b) - rho (idx(b) - idx(j)). A floor is at most its real
  // value, so that bound is at most affine in j, as is
  // e(j-1) = e(k_-1) + (j - k_) T: their difference is affine, and
  // testing it at both ends of the stretch is exact. The test runs in
  // integers scaled by den.
  bool self_paced_through(long b) {
    TileShare at = share_;
    at.seek(b);
    const long ib = t_.warmup - 1 + at.q;
    const AvailRuns::Run& run = seeker_.seek(index());
    const bool inside = ib < run.end;
    // All the stretch reads one index: dep(j) = dep(b).
    const long rho = ib == index() ? 0
                     : std::max(inside ? run.rise : 0L, up_.floor_rise());
    const long dep_b = inside ? up_.avail_in(run, ib) : up_.avail(ib);
    // g(j) = den * (bound(j) - e(j-1)); the stretch is where g <= 0.
    const Wide c = static_cast<Wide>(dep_b) -
                   static_cast<Wide>(rho) * at.q - e_ +
                   static_cast<Wide>(k_) * period_;
    const Wide slope = static_cast<Wide>(rho) * t_.streamed -
                       static_cast<Wide>(den_) * period_;
    const auto g = [&](long j) { return c * den_ + slope * j; };
    return g(k_) <= 0 && g(b) <= 0;
  }

  // Tile k_ is self-paced: commit the self-paced stretch from it, all of
  // the rest if self_paced_through proves it. Where the upstream rises by
  // T or more over the commoner step, h never falls except at the rarer
  // steps (into a repeated index here or upstream, or a short pool step),
  // so its maxima lie just before those and at the end: each is read,
  // and in the first segment that fails the first tile that is not
  // self-paced is found by galloping and bisection. Elsewhere
  // self_paced_through proves stretches of 2, 4, 8, ... tiles.
  bool self_paced() {
    if (self_paced_through(t_.tiles - 1)) {
      commit_self_paced(t_.tiles - k_);
      return true;
    }
    const AvailRuns::Run& run = seeker_.seek(index());
    const bool pool = t_.streamed >= den_;
    const long rem = t_.streamed % den_;
    const long s0 = pool ? t_.streamed / den_ : 1;
    const auto rises_by = [&](bool any, long s) {
      return rise_bound(any ? nullptr : &run, s) >= period_;
    };
    const long common = pool && rem != 0 ? s0 + 1 : s0;
    const bool any = rises_by(true, common);
    // Over a plain resampled run of an upstream that repeats indices, from
    // one group start to the next the upstream rises by its up_rise.
    const AvailRuns::Resample& u = up_.resample();
    const bool grouped = !any && out_.resample().grouped &&
                         run.kind == AvailRuns::Kind::kResampled &&
                         !run.window && run.slope == 0 &&
                         run.up_rise >= period_;
    if (!any && !grouped && !rises_by(false, common)) {
      bool committed = false;
      for (long n = kMinStretch; k_ < t_.tiles - 1; n *= 2) {
        const long b = std::min(k_ + n, t_.tiles) - 1;
        if (!self_paced_through(b)) break;
        commit_self_paced(b - k_ + 1);
        share_.seek(k_);
        committed = true;
      }
      return committed;
    }
    const long b = any ? t_.tiles - 1 : first_tile_reading(run.end) - 1;
    // The rarer steps start where ceil(j (den - D mod den) / den) steps
    // up. Upstream (T_up < T, else `any`), h falls into each repeated
    // index y, just after the last tile that reads y - 1; it may fall
    // again out of y, but from below that tile's h.
    const bool breaks = !pool || (rem != 0 && !rises_by(any, s0));
    TileShare fall = step_ups(k_, den_ - rem, den_);
    TileShare up_fall = step_ups(index(), grouped ? u.den - u.streamed : 1,
                                 grouped ? u.den : 1);
    const auto up_break = [&] {
      return out_.first_reading(up_fall.q + 1) - 1;
    };
    // Whether tile j is self-paced if every tile of [k_, j) is.
    const auto paced = [&](long j) {
      return seeker_.avail(t_.warmup - 1 + out_.quotient(j)) <=
             e_ + (j - k_) * period_;
    };
    long done = k_ + 1;  // [k_, done) is self-paced
    while (done <= b) {
      long c = b;
      if (breaks) {
        while (fall.q < done) fall.next();
        c = std::min(fall.q, b);
      }
      if (grouped) {
        while (up_break() < done) up_fall.next();
        c = std::min(c, up_break());
      }
      if (paced(c)) {
        done = c + 1;
        continue;
      }
      // h never falls over [done, c]: find its first tile that is not
      // self-paced.
      long lo = done - 1;
      long hi = c;
      for (long step = 1; lo + step < hi; step *= 2) {
        if (!paced(lo + step)) {
          hi = lo + step;
          break;
        }
        lo += step;
      }
      while (hi - lo > 1) {
        const long mid = lo + (hi - lo) / 2;
        (paced(mid) ? lo : hi) = mid;
      }
      done = hi;
      break;
    }
    commit_self_paced(done - k_);
    share_.seek(k_);
    return true;
  }

  // How far a dependency-bound stretch from tile k_ reaches, and what its
  // tiles that set no new maximum of h add to the stalls.
  struct Reach {
    long last;       // the stretch's last tile
    long lows = 0;   // indices read that set no new maximum
    long waits = 0;  // what the first tiles reading them wait on them
    long drop = 0;   // the most such an index's h is below the maximum
  };
  // Of them, those each followed by one that does, when listed.
  std::vector<long> lows_;

  // The stretch from tile k_ up to `last` over which every tile that reads
  // a new upstream index sets a new maximum of h: the step from each such
  // index i to the next, i', rises avail(i') - avail(i) >= c T for the c
  // tiles that read i; `run` is the upstream run all of it reads. A step
  // of the commoner kind whose rise bound holds needs no look; each other
  // step (D < den: after a group of `sharing` tiles; D >= den: one that
  // advances floor(D/den) indices) is asked of the upstream exactly, and
  // the first that fails ends the stretch before it.
  Reach new_maxima_through(const AvailRuns::Run& run, long last) {
    if (out_.resample().grouped) return new_group_maxima_through(run, last);
    if (t_.streamed >= den_) {
      const long s0 = t_.streamed / den_;
      if (rise_bound(&run, s0) >= period_) return {last};
      // The steps that advance s0 indices, rather than s0 + 1: where
      // floor(j (D mod den) / den) = j - ceil(j (den - D mod den) / den)
      // does not step up.
      const bool all = rise_bound(&run, s0 + 1) < period_;
      TileShare short_step = step_ups(k_, den_ - t_.streamed % den_, den_);
      for (long j = k_; j < last; ++j) {
        if (!all) {
          j = short_step.q;
          if (j >= last) break;
          short_step.next();
        }
        if (!up_.rises(t_.warmup - 1 + out_.quotient(j),
                       t_.warmup - 1 + out_.quotient(j + 1), period_))
          return {j};
      }
      return {last};
    }
    const long rise = rise_bound(&run, 1);
    if (static_cast<Wide>(rise) >= static_cast<Wide>(period_) * sharing_)
      return {last};
    // The groups of `sharing` tiles, rather than sharing - 1: where
    // ceil(m (den mod D) / D) steps up, m = i - w + 1 for upstream index i.
    const bool all = rise < static_cast<Wide>(period_) * (den_ / t_.streamed);
    // Where h over any two steps rises (the tiles of two indices are at
    // most ceil(2 den / D)), an index that sets no new maximum is followed
    // by one that does: the stretch runs to `last`, and each index whose
    // step fails is counted, with what its tile waits, and listed.
    Reach reach{last};
    const bool back =
        !all && rise_bound(&run, 2) >=
                    static_cast<Wide>(period_) *
                        by_streamed_.ceil(static_cast<Wide>(2) * den_);
    // (Groups differ in size, den mod D > 0, unless `all`.)
    TileShare big =
        step_ups(share_.q, std::max<long>(den_ % t_.streamed, 1), t_.streamed);
    // Where the upstream's longer steps are proven, only the shorter
    // ones need looks.
    TileShare short_up(1, 1);
    const bool short_only =
        !all && longer_steps(up_, run, index(), short_up) >=
                    static_cast<Wide>(period_) * sharing_;
    const long m_last = out_.quotient(last);
    for (long m = share_.q; m < m_last; ++m) {
      if (!all) {
        m = big.q;
        if (m >= m_last) break;
        big.next();
      }
      const long i = t_.warmup - 1 + m;
      if (short_only) {
        while (short_up.q < i) short_up.next();
        if (short_up.q != i) continue;
      }
      const long c = all ? out_.first_reading(i + 1) - out_.first_reading(i)
                         : sharing_;
      if (up_.rises(i, i + 1, saturate(static_cast<Wide>(period_) * c)))
        continue;
      if (!back) return {out_.first_reading(i + 1) - 1};
      const long h = up_.avail(i + 1) - up_.avail(i) - period_ * c;
      ++reach.lows;
      reach.waits += std::max<long>(0, h + t_.drain);
      reach.drop = std::max(reach.drop, -h);
      lows_.push_back(i + 1);
    }
    return reach;
  }

  // new_maxima_through for D < den over an upstream bank that repeats
  // indices too. Inside an upstream group [s, s') the upstream rises by
  // exactly T_up an index, so h moves by T_up - c T from one index to the
  // next, known without a read, and only the group starts s' need to set
  // new maxima: avail(s') - avail(s) >= first(s') T + the most of
  // T_up (x - s) - first(x) T over the group. Each index inside a group
  // that sets no new maximum (a tie counts as one that does) is counted,
  // with what its first tile waits: h - M + d, M the running maximum,
  // when positive. Groups of one index read by sharing - 1 tiles, or
  // fewer, need no visit when their bound holds.
  Reach new_group_maxima_through(const AvailRuns::Run& run, long last) {
    const AvailRuns::Resample& u = up_.resample();
    const long t_up = u.period;
    // A plain resampled upstream run rises by at least its up_rise from
    // one group start to the next.
    const long group_rise = run.kind == AvailRuns::Kind::kResampled &&
                                    !run.window && run.slope == 0
                                ? run.up_rise
                                : 0;
    const auto bound = [&](long g) {
      return std::max(rise_bound(&run, g), group_rise);
    };
    const long c_small = den_ / t_.streamed;
    // The most a group of g indices can need: T_up p + T times the tiles
    // of its last g - p indices, tiles(k) for k of them (at most
    // ceil(k den / D); k c_small where every index has c_small).
    const auto worst = [&](long g, bool small) {
      Wide most = 0;
      for (long p = 0; p < g; ++p) {
        const Wide k = g - p;
        most = std::max(most, static_cast<Wide>(t_up) * p +
                                  static_cast<Wide>(period_) *
                                      (small ? k * c_small
                                             : by_streamed_.ceil(k * den_)));
      }
      return most;
    };
    const long g_small = u.den / u.streamed;
    const bool needs_look = bound(g_small) < worst(g_small, false) ||
                            bound(u.sharing) < worst(u.sharing, false);
    const bool all = needs_look && bound(g_small) < worst(g_small, true);
    // Inside a group every index sets a new maximum, or none does and
    // none waits.
    const bool rising = static_cast<Wide>(t_up) >=
                        static_cast<Wide>(period_) * sharing_;
    const bool deep = static_cast<Wide>(t_up) + t_.drain <=
                      static_cast<Wide>(period_) * c_small;
    const long i0 = index();
    const long i_last = t_.warmup - 1 + out_.quotient(last);
    Reach reach{last};
    // The upstream's repeated indices y, from y - 1 = floor(t den / (den -
    // D)) upstream, and this bank's indices read by `sharing` tiles, from
    // i - w + 1 = floor(t D / (den mod D)): both advance without dividing.
    TileShare repeat = step_ups(i0, u.den - u.streamed, u.den);
    const long e = den_ % t_.streamed;
    TileShare big =
        step_ups(i0 - t_.warmup + 1, std::max<long>(e, 1), t_.streamed);
    const auto big_from = [&](long x) {
      if (e == 0) return std::numeric_limits<long>::max();
      while (t_.warmup - 1 + big.q < x) big.next();
      return t_.warmup - 1 + big.q;
    };
    // The group starting at s, from its index `from` on: its indices
    // after `from` that set no new maximum, and (with `check`) whether the
    // start of the next sets one. Returns that start, or -1 where it ends
    // the stretch.
    // From one group start of a plain run to the next, the upstream
    // rises by one step v -> v + 1 of its own upstream: where the longer
    // steps there prove a group's need, only the shorter ones need looks.
    TileShare shorter(1, 1);
    const long longer =
        group_rise > 0
            ? longer_steps(*u.up,
                           u.up->run(static_cast<std::size_t>(run.offset)),
                           u.warmup - 1 + up_.quotient(i0), shorter)
            : 0;
    const auto group = [&](long s, long from, bool check) {
      long rel = 0;  // h(x) - h(from)
      long top = 0;  // and its running maximum
      long tiles = 0;
      long x = from;
      for (;;) {
        const long c = c_small + (big_from(x) == x);
        tiles += c;
        while (repeat.q < x) repeat.next();
        if (repeat.q != x || ++x > i_last) break;
        rel += t_up - c * period_;
        if (rel >= top) {
          top = rel;
        } else {
          ++reach.lows;
          reach.waits += std::max<long>(0, rel - top + t_.drain);
          reach.drop = std::max(reach.drop, top - rel);
        }
      }
      const long s_end = x + 1;
      if (!check || s_end > i_last) return s_end;
      // avail(s') - avail(from), both inside `run`, against the group's
      // running maximum past h(from); avail(from) is T_up (from - s) past
      // avail(s), which is inside `run` too if s >= its begin.
      const Wide need = static_cast<Wide>(period_) * tiles + top;
      Wide rise = rise_bound(&run, s_end - from);
      if (group_rise > 0 && s >= run.begin)
        rise = std::max(rise, static_cast<Wide>(group_rise) -
                                  static_cast<Wide>(t_up) * (from - s));
      if (need <= longer && from == s && s >= run.begin) {
        const long v = u.warmup - 1 + up_.quotient(s);
        while (shorter.q < v) shorter.next();
        if (shorter.q != v) return s_end;
      }
      if (rise >= need || up_.rises(from, s_end, saturate(need)))
        return s_end;
      reach.last = out_.first_reading(s_end) - 1;
      return -1L;
    };
    // The group tile k_ opens, from its index on (the indices before it
    // set no new maximum past h(k_)), looked at whatever the bounds say:
    // it may start before `run`. Then every group that holds a repeated
    // upstream index or, where steps need looks, an index that `sharing`
    // tiles read; all of them where even the others need looks.
    long x = group(up_.group_start(i0), i0, true);
    if (x > 0 && !needs_look && (rising || deep)) {
      if (deep && x <= i_last) {
        reach.lows += i_last - x - (up_.quotient(i_last) - up_.quotient(x));
        // Each index of a group falls by c T - T_up or less.
        const Wide fall = static_cast<Wide>(sharing_) * period_ - t_up;
        reach.drop = std::max(
            reach.drop, saturate(static_cast<Wide>(u.sharing - 1) * fall));
      }
      return reach;
    }
    while (x > 0 && x <= i_last) {
      while (repeat.q < x) repeat.next();
      long s = all ? x : repeat.q;
      if (needs_look) s = std::min(s, big_from(x));
      if (s > i_last) break;
      x = group(s, s, needs_look);
    }
    return reach;
  }

  // Tile k_ reads a new upstream index and waits on it (dep >= de(k_-1)):
  // commit the dependency-bound stretch from it over the upstream run its
  // index lies in as one resampled run.
  bool dependency_bound() {
    const AvailRuns::Run& run = seeker_.seek(index());
    lows_.clear();
    const Reach reach =
        new_maxima_through(run, first_tile_reading(run.end) - 1);
    const long last = reach.last;
    const long n = last - k_ + 1;
    if (n < kMinStretch) return false;
    const long drain_last = out_.push_resampled(
        n, static_cast<long>(seeker_.index()),
        std::max(run.rise, up_.floor_rise()), reach.lows > 0 && lows_.empty(),
        reach.drop, lows_);
    const long e_last = drain_last - t_.drain;
    const long records =
        (t_.streamed >= den_ ? n : out_.quotient(last) - share_.q + 1) -
        reach.lows;
    // sum_j fe(j) - e(j-1) = e(last) - e(k_-1) - n cpt. A tile that waits
    // on its dependency adds f to the fill stall; any other adds f + d,
    // less what it waits on its dependency (`waits`); the rest is waiting
    // on the dependency.
    dependency_stall +=
        e_last - e_ - n * period_ + records * t_.drain + reach.waits;
    fill_stall += n * (t_.fill + t_.drain) - records * t_.drain - reach.waits;
    e_ = e_last;
    de_ = drain_last;
    k_ = last + 1;
    share_.seek(k_);
    ++stretches;
    return true;
  }

  const Timing t_;
  const long period_;   // T
  const long den_;
  const long sharing_;  // ceil(den / D): most tiles that read one index
  const AvailRuns& up_;
  RunSeeker seeker_;
  AvailRuns& out_;
  EventLog& log_;
  const int bank_id_;
  TileShare share_;
  const Divisor by_streamed_;
  long k_ = 0;   // next tile
  long e_ = 0;   // e(k_-1)
  long de_ = 0;  // de(k_-1)
};
}  // namespace

CycleSimResult simulate_cycles(const AcceleratorReport& report,
                               const AcceleratorConfig& config) {
  return simulate_cycles(report, DesignContext(config));
}

CycleSimResult simulate_cycles(const AcceleratorReport& report,
                               const DesignContext& context) {
  obs::Span span("arch.cycle_sim");
  const AcceleratorConfig& config = context.config();
  const double if_capacity = config.cycle_ifmap_kb * 1024.0;
  const double filter_capacity = config.cycle_filter_kb * 1024.0;
  const double of_capacity = config.cycle_ofmap_kb * 1024.0;
  // Activations cross the hierarchy at the read-circuit precision;
  // weight cells carry the device's level bits.
  const double elem_bytes = std::max(1.0, std::ceil(config.output_bits / 8.0));
  const double cell_bits = context.device().level_bits;

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
      // A coded error at this bank; its text is built only then.
      const auto emit = [&](const char* code,
                            const char* what) -> check::Diagnostic& {
        const std::string loc = "bank " + std::to_string(b);
        auto& d = diags.emit(code, check::Severity::kError, loc + what);
        d.location = loc;
        return d;
      };
      // isfinite first: an ordered compare on a NaN raises FE_INVALID.
      if (!std::isfinite(bank.pass_latency) || bank.pass_latency < 0 ||
          bank.pass_latency >= 1e30)
        emit("MN-CYC-002", " has a non-finite or negative pass latency");
      if (bank.iterations < 0)
        emit("MN-CYC-002", " has a negative iteration count");
      if (bank.iterations <= 0 || diags.has_errors()) continue;
      if (bank.mapping.matrix_rows < 0 || bank.mapping.matrix_cols < 0) {
        emit("MN-CYC-002", " has a negative matrix size");
        continue;
      }
      const double if_tile = bank.mapping.matrix_rows * elem_bytes;
      const double of_tile = bank.mapping.matrix_cols * elem_bytes;
      // A slot holds at least one byte, even of an empty tile.
      if (std::max(if_tile, 1.0) > if_capacity) {
        emit("MN-CYC-003", ": ifmap scratchpad smaller than one tile").hint =
            "one ifmap tile is " + std::to_string(if_tile) +
            " bytes; raise [cycle] Ifmap_KB";
      }
      if (std::max(of_tile, 1.0) > of_capacity) {
        emit("MN-CYC-003", ": ofmap scratchpad smaller than one tile").hint =
            "one ofmap tile is " + std::to_string(of_tile) +
            " bytes; raise [cycle] Ofmap_KB";
      }
      // Weight programming stages one crossbar cell image at a time
      // through the filter scratchpad.
      const double xbar_image = std::ceil(
          static_cast<double>(config.crossbar_size) * config.crossbar_size *
          cell_bits / 8.0);
      if (xbar_image > filter_capacity) {
        emit("MN-CYC-003",
             ": filter scratchpad smaller than one crossbar image")
            .hint = "one crossbar cell image is " +
                    std::to_string(xbar_image) +
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
  long stretches = 0;

  // avail[b + 1] is bank b's avail, and avail[0] the no-upstream of bank
  // 0. A resampled run reads the bank above it, which may read the one
  // above that, so every bank's runs live for the whole call; stored
  // values are released once no later bank can read them. Every bank's
  // first few runs are carved from one block, so setting up a bank
  // allocates nothing; runs past those come from the same resource and
  // are all freed with it at the end of the call.
  const std::size_t n_banks = report.banks.size();
  std::pmr::monotonic_buffer_resource runs_memory(
      (n_banks + 1) * AvailRuns::kFewRuns * sizeof(AvailRuns::Run));
  std::vector<AvailRuns> avail;
  avail.reserve(n_banks + 1);
  for (std::size_t b = 0; b <= n_banks; ++b)
    avail.emplace_back(static_cast<long>(b), &runs_memory);
  std::size_t released = 0;
  long makespan = 0;

  for (std::size_t b = 0; b < n_banks; ++b) {
    const auto& bank = report.banks[b];
    CycleBankStats& stats = result.banks[b];
    const long tiles = bank.iterations;
    AvailRuns& out = avail[b + 1];
    out.clear();
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
                            up, out, log, bank_id);
      streamed.schedule();
      walked_tiles += streamed.walked;
      stretches += streamed.stretches;
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
      TileShare share(streamed_total, std::max<long>(tiles - 1, 1));
      if (tiles == 1) share.q = streamed_total;
      auto next_dependency = [&] {
        const long dep = seeker.avail(up_warmup - 1 + share.q);
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
        const long dep = seeker.avail(up_passes - 1);
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
    reg.add("cycle.stretches", stretches);
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