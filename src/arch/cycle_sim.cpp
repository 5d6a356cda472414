#include "arch/cycle_sim.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mnsim::arch {
namespace {

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
    for (const auto& bank : report.banks) {
      if (bank.iterations <= 0 || !(bank.pass_latency > 0)) continue;
      if (min_latency == 0.0 || bank.pass_latency < min_latency)
        min_latency = bank.pass_latency;
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
  // walking anything.
  {
    double bound = 0.0;
    for (const auto& bank : report.banks) {
      if (bank.iterations <= 0) continue;
      const double cpt = std::max(1.0, bank.pass_latency * clock_hz);
      const double tile_bytes =
          (bank.mapping.matrix_rows + bank.mapping.matrix_cols) * elem_bytes;
      bound += static_cast<double>(bank.iterations) *
               (cpt + 2.0 + tile_bytes / bytes_per_cycle);
    }
    if (bound > 4.5e15) {
      check::DiagnosticList diags;
      auto& d = diags.emit("MN-CYC-004", check::Severity::kError,
                           "cycle schedule would overflow the integer "
                           "cycle domain");
      d.hint = "lower [cycle] Clock_GHz (or leave it 0 for auto)";
      throw check::CheckError(std::move(diags));
    }
  }

  result.clock_hz = clock_hz;
  result.dataflow = config.cycle_dataflow;
  result.fill_policy = config.cycle_fill_policy;
  result.banks.resize(report.banks.size());

  const long max_events = std::max<long>(config.cycle_max_events, 0);
  long recorded = 0;  // result.events.size(), kept where the walks see it
  auto record = [&](int bank, long tile, TilePhase phase, long start,
                    long end) {
    if (recorded < max_events) {
      result.events.push_back({bank, tile, phase, start, end});
      ++recorded;
    }
  };

  // avail[k]: cycle at which the bank's tile-k output has landed in the
  // backing store (drain end) and may be consumed downstream.
  std::vector<long> up_avail;
  long makespan = 0;

  for (std::size_t b = 0; b < report.banks.size(); ++b) {
    const auto& bank = report.banks[b];
    CycleBankStats& stats = result.banks[b];
    const long tiles = bank.iterations;
    std::vector<long> avail(static_cast<std::size_t>(std::max<long>(tiles, 0)),
                            0);
    if (tiles <= 0) {
      up_avail = std::move(avail);
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
    // The walks visit k in order, so the share advances as a quotient
    // and remainder, carrying at most once per tile.
    const long den = std::max<long>(tiles - 1, 1);
    const long streamed_total = std::max<long>(up_passes - up_warmup, 0);
    const long step_q = streamed_total / den;
    const long step_r = streamed_total % den;
    long share_q = tiles > 1 ? 0 : up_passes - up_warmup;
    long share_r = 0;
    // Cycle the next tile's dependency is met (0 when it needs nothing
    // upstream). Call once per tile, in order.
    auto next_dependency = [&] {
      const long needed = std::min<long>(up_passes, up_warmup + share_q);
      share_q += step_q;
      share_r += step_r;
      if (share_r >= den) {
        share_r -= den;
        ++share_q;
      }
      return needed > 0 ? up_avail[static_cast<std::size_t>(needed - 1)] : 0;
    };

    // The walks accumulate in locals: stats lives in memory that the
    // per-tile stores into avail could alias.
    const bool resident_ifmap = stats.resident_ifmap;
    const bool resident_ofmap = stats.resident_ofmap;
    long start_cycle = 0;
    long dependency_stall = 0;
    long fill_stall = 0;
    long drain_stall = 0;
    long prev_end = 0;
    if (!resident_ifmap && !resident_ofmap) {
      // Streamed bank: every tile is filled, computed and drained over
      // the bank's one backing bus, which serves transfers in issue
      // order: fill(k), then drain(k) once compute(k) ends, then
      // fill(k+1). So fill(k+1) starts no earlier than drain(k) ends, at
      // de(k) = e(k) + d > e(k). Against that floor none of the other
      // bounds of the general walk below can bind: the ifmap slot frees
      // at e(k+1-C) <= e(k), the demand policy waits for e(k), and the
      // ofmap slot frees at de(k+1-C) <= de(k). The schedule is exactly
      //   fe(k) = max(dep(k), de(k-1)) + f,  e(k) = fe(k) + cpt,
      //   de(k) = e(k) + d                   (de(-1) = 0),
      // tile k > 0 waits max(e(k-1), dep(k)) - e(k-1) cycles on its
      // dependency and the rest, up to fe(k), on its fill; drains never
      // stall, and the bus is busy tiles * (f + d) cycles. Neither the
      // fill policy nor the slot capacities change a streamed schedule.
      long drain_end = 0;
      for (long k = 0; k < tiles; ++k) {
        const long dep = next_dependency();
        const long ready = std::max(prev_end, dep);
        const long fill_end = std::max(dep, drain_end) + fill_cycles;
        const long end = fill_end + cpt;
        drain_end = end + drain_cycles;
        if (k > 0) {
          dependency_stall += ready - prev_end;
          fill_stall += fill_end - ready;
        } else {
          start_cycle = fill_end;
        }
        record(bank_id, k, TilePhase::kFill, fill_end - fill_cycles, fill_end);
        record(bank_id, k, TilePhase::kCompute, fill_end, end);
        record(bank_id, k, TilePhase::kDrain, end, drain_end);
        avail[static_cast<std::size_t>(k)] = drain_end;
        prev_end = end;
      }
      stats.bus_busy_cycles = tiles * (fill_cycles + drain_cycles);
      stats.ifmap_bytes = tile_sum(tiles, if_tile);
      stats.ofmap_bytes = tile_sum(tiles, of_tile);
    } else {
      // One operand resident. The backing bus serializes transfers in
      // issue order; each slot ring is indexed by a wrapping cursor and
      // holds the cycle its previous occupant was released (consumed for
      // ifmap slots, drained for ofmap slots).
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
        const long dep =
            up_passes > 0 ? up_avail[static_cast<std::size_t>(up_passes - 1)]
                          : 0;
        const double bytes = static_cast<double>(tiles) * if_tile;
        const long duration = transfer_cycles(bytes, bytes_per_cycle);
        bulk_fill_end = transfer(dep, duration);
        record(bank_id, 0, TilePhase::kFill, bulk_fill_end - duration,
               bulk_fill_end);
        stats.ifmap_bytes = bytes;
      } else {
        stats.ifmap_bytes = tile_sum(tiles, if_tile);
      }

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
          record(bank_id, k, TilePhase::kFill, fill_end - fill_cycles,
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
        record(bank_id, k, TilePhase::kCompute, start, end);
        if (k == 0) start_cycle = start;
        if (!resident_ifmap) {
          if_ring[if_slot] = end;
          if (++if_slot == if_ring.size()) if_slot = 0;
        }

        if (resident_ofmap) {
          avail[static_cast<std::size_t>(k)] = end;  // patched by bulk drain
        } else {
          const long drain_end = transfer(end, drain_cycles);
          record(bank_id, k, TilePhase::kDrain, drain_end - drain_cycles,
                 drain_end);
          of_ring[of_slot] = drain_end;
          if (++of_slot == of_ring.size()) of_slot = 0;
          avail[static_cast<std::size_t>(k)] = drain_end;
        }
        prev_end = end;
      }

      // Output-stationary: the accumulated ofmap leaves in one bulk
      // drain after the last pass; downstream sees nothing earlier.
      if (resident_ofmap) {
        const double bytes = static_cast<double>(tiles) * of_tile;
        const long duration = transfer_cycles(bytes, bytes_per_cycle);
        const long drain_end = transfer(prev_end, duration);
        record(bank_id, tiles - 1, TilePhase::kDrain, drain_end - duration,
               drain_end);
        std::fill(avail.begin(), avail.end(), drain_end);
        stats.ofmap_bytes = bytes;
      } else {
        stats.ofmap_bytes = tile_sum(tiles, of_tile);
      }
      stats.bus_busy_cycles = bus_cycles;
    }
    stats.start_cycle = start_cycle;
    stats.dependency_stall_cycles = dependency_stall;
    stats.fill_stall_cycles = fill_stall;
    stats.drain_stall_cycles = drain_stall;
    stats.finish_cycle = prev_end;
    const long active = stats.span_cycles();
    stats.utilization =
        active > 0 ? static_cast<double>(stats.busy_cycles) /
                         static_cast<double>(active)
                   : 0.0;
    // The bank's last activity is its final drain, bulk or per tile.
    makespan = std::max(makespan, avail.back());
    up_avail = std::move(avail);
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
  reg.add("cycle.tiles", result.total_tiles);
  reg.add("cycle.busy_cycles", result.total_busy_cycles);
  reg.add("cycle.stall_cycles", result.total_stall_cycles);
  reg.add("cycle.backing_bytes",
          static_cast<long>(result.backing_traffic_bytes));
  reg.set("cycle.pe_active_fraction", result.pe_active_fraction);
  reg.set("cycle.makespan_seconds", result.makespan_seconds);
  return result;
}

}  // namespace mnsim::arch
