#include "arch/cycle_sim.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mnsim::arch {
namespace {

// Integer cycles of one matrix-vector pass. A scheduled pass occupies at
// least one cycle so zero-latency degenerate banks still serialize.
long pass_cycles(double latency, double clock_hz) {
  return std::max<long>(1, std::llround(latency * clock_hz));
}

// Upstream tiles that must have drained before tile k of a `passes`-tile
// bank may start: the producer's warm-up plus the proportional streamed
// share — the trace simulator's Eq. 6 dependency rule.
long needed_upstream(long k, long passes, long up_passes, long up_warmup) {
  const long streamed =
      passes > 1 ? (k * std::max<long>(up_passes - up_warmup, 0)) /
                       std::max<long>(passes - 1, 1)
                 : up_passes - up_warmup;
  return std::min<long>(up_passes, up_warmup + streamed);
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
  auto record = [&](int bank, long tile, TilePhase phase, long start,
                    long end) {
    if (static_cast<long>(result.events.size()) < max_events)
      result.events.push_back({bank, tile, phase, start, end});
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
    // Slot rings never need more slots than the bank has tiles.
    const long if_cap = std::min<long>(
        static_cast<long>(if_capacity / std::max(if_tile, 1.0)), tiles);
    const long of_cap = std::min<long>(
        static_cast<long>(of_capacity / std::max(of_tile, 1.0)), tiles);

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

    BackingChannel bus(bytes_per_cycle);
    Scratchpad if_spad(if_cap);
    Scratchpad of_spad(of_cap);

    // Input-stationary: gather the whole ifmap in one bulk fill once the
    // upstream bank has drained everything this bank consumes.
    long bulk_fill_end = 0;
    if (stats.resident_ifmap) {
      long dep = 0;
      if (b > 0 && up_passes > 0)
        dep = up_avail[static_cast<std::size_t>(up_passes - 1)];
      const long busy_before = bus.busy_cycles();
      bulk_fill_end = bus.transfer(dep, static_cast<double>(tiles) * if_tile);
      record(static_cast<int>(b), 0, TilePhase::kFill,
             bulk_fill_end - (bus.busy_cycles() - busy_before), bulk_fill_end);
      stats.ifmap_bytes += static_cast<double>(tiles) * if_tile;
    }

    long prev_end = 0;
    for (long k = 0; k < tiles; ++k) {
      // Upstream dependency (streamed fills only; the bulk fill already
      // folded the full dependency into its start).
      long dep = 0;
      if (!stats.resident_ifmap && b > 0) {
        const long needed = needed_upstream(k, tiles, up_passes, up_warmup);
        if (needed > 0) dep = up_avail[static_cast<std::size_t>(needed - 1)];
      }

      // Ifmap fill: starts once the data exists, the target slot is free
      // and — demand policy — the PE has asked for it.
      long fill_end = bulk_fill_end;
      if (!stats.resident_ifmap) {
        long floor = std::max(dep, if_spad.slot_free(k));
        if (config.cycle_fill_policy == FillPolicy::kDemand)
          floor = std::max(floor, prev_end);
        const long busy_before = bus.busy_cycles();
        fill_end = bus.transfer(floor, if_tile);
        record(static_cast<int>(b), k, TilePhase::kFill,
               fill_end - (bus.busy_cycles() - busy_before), fill_end);
        stats.ifmap_bytes += if_tile;
      }

      // Ofmap slot: resident outputs always have space; streamed outputs
      // wait for the slot's previous occupant to finish draining.
      const long of_free = stats.resident_ofmap ? 0 : of_spad.slot_free(k);

      // Successive maxima attribute every waited cycle to one bucket.
      // Tile 0's wait precedes the bank's active window — it is ramp-up
      // idle, not a stall, so span == busy + stalls holds exactly.
      const long t1 = std::max(prev_end, dep);
      const long t2 = std::max(t1, fill_end);
      const long t3 = std::max(t2, of_free);
      if (k > 0) {
        stats.dependency_stall_cycles += t1 - prev_end;
        stats.fill_stall_cycles += t2 - t1;
        stats.drain_stall_cycles += t3 - t2;
      }

      const long start = t3;
      const long end = start + cpt;
      record(static_cast<int>(b), k, TilePhase::kCompute, start, end);
      if (k == 0) stats.start_cycle = start;
      if (!stats.resident_ifmap) if_spad.release(k, end);

      if (stats.resident_ofmap) {
        avail[static_cast<std::size_t>(k)] = end;  // patched by bulk drain
      } else {
        const long busy_before = bus.busy_cycles();
        const long drain_end = bus.transfer(end, of_tile);
        record(static_cast<int>(b), k, TilePhase::kDrain,
               drain_end - (bus.busy_cycles() - busy_before), drain_end);
        of_spad.release(k, drain_end);
        avail[static_cast<std::size_t>(k)] = drain_end;
        stats.ofmap_bytes += of_tile;
      }
      prev_end = end;
    }
    stats.finish_cycle = prev_end;

    // Output-stationary: the accumulated ofmap leaves in one bulk drain
    // after the last pass; downstream sees nothing earlier.
    long last_activity = stats.resident_ofmap ? prev_end : avail.back();
    if (stats.resident_ofmap) {
      const long busy_before = bus.busy_cycles();
      const long drain_end =
          bus.transfer(prev_end, static_cast<double>(tiles) * of_tile);
      record(static_cast<int>(b), tiles - 1, TilePhase::kDrain,
             drain_end - (bus.busy_cycles() - busy_before), drain_end);
      std::fill(avail.begin(), avail.end(), drain_end);
      stats.ofmap_bytes += static_cast<double>(tiles) * of_tile;
      last_activity = drain_end;
    }

    stats.bus_busy_cycles = bus.busy_cycles();
    const long active = stats.span_cycles();
    stats.utilization =
        active > 0 ? static_cast<double>(stats.busy_cycles) /
                         static_cast<double>(active)
                   : 0.0;
    makespan = std::max(makespan, last_activity);
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
