// Durable file I/O: torn-write-free reports and fsync'd journals.
//
// Every output file MNSIM produces (JSON reports, CSV tables, NVSim
// exchange files, SPICE decks, traces, sweep checkpoints) is either a
// whole-file artifact or an append-only journal. A crash — OOM kill,
// SIGKILL mid-sweep, power loss — must never leave a half-written
// artifact that a later consumer (or a `--resume`) mistakes for a
// complete one. Two primitives cover both shapes:
//
//   * atomic_write_file — write-temp -> fsync -> rename. The destination
//     path always holds either its previous content or exactly the new
//     content, never a prefix. tools/analyze forbids raw ofstream
//     writes under src/ so every report writer goes through here.
//   * DurableAppender — an O_APPEND journal with one fsync per append,
//     the durability contract of the sweep checkpoint (dse/checkpoint):
//     after append() returns, the record survives a crash.
//
// Failures are errors: both primitives throw std::runtime_error carrying
// the path and the errno text instead of returning a droppable bool.
#pragma once

#include <string>

namespace mnsim::util {

// Atomically replaces `path` with `content`: writes `path`.tmp.<pid>,
// fsyncs it, renames over `path`, and fsyncs the containing directory so
// the rename itself is durable. Throws std::runtime_error on any
// failure; the temp file is removed on the error path.
void atomic_write_file(const std::string& path, const std::string& content);

// Append-only journal with per-append durability. Not copyable; one
// writer per file (concurrent appenders would interleave records).
// Deliberately not internally synchronized: single-writer callers (CSV,
// NVSim exchange, trace exporters) pay nothing, and the one concurrent
// producer — the parallel sweep loop — wraps it in dse::CheckpointJournal,
// whose MN_GUARDED_BY annotation makes the external lock a compile-time
// obligation on Clang builds (see src/util/thread_safety.hpp).
class DurableAppender {
 public:
  DurableAppender() = default;
  ~DurableAppender();
  DurableAppender(const DurableAppender&) = delete;
  DurableAppender& operator=(const DurableAppender&) = delete;

  // Opens (creating if needed) for appending. `truncate` starts the
  // journal over — the fresh-checkpoint path. Throws on failure.
  void open(const std::string& path, bool truncate = false);
  // Writes `data` fully and fsyncs. After return the bytes are on disk.
  // Throws on short writes or sync failures.
  void append(const std::string& data);
  void close();

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  int fd_ = -1;
  std::string path_;
};

}  // namespace mnsim::util
