// SPDX-License-Identifier: MIT
//
// Campaign output plumbing: deterministic JSONL / CSV record rendering and
// the append-only checkpoint journal.
//
// Journal format (one file per campaign, `<stem>.journal`):
//   cobra-scenario-journal v2 fp=<fingerprint-hex> jobs=<N>
//   job <index> <payload-bytes> <payload>
// The payload is a whitespace-separated JobResult serialization whose
// doubles round-trip exactly (%.17g), so records restored on resume render
// byte-identically to freshly computed ones.
//
// Durability is a group commit. Every frame is written and flushed to the
// kernel before append/merge/note return, so a `kill -9` of the process
// (with distributed workers a routine event) loses no appended frame. The
// fsync is rate-limited: a frame written 50 ms or more after the last sync
// syncs every frame so far, and close() syncs the rest. After an OS crash
// or power loss a resume re-runs at most the jobs appended within one
// 50 ms window. A frame torn mid-write fails its length check on restore
// and is simply re-run (the restore rewrite truncates it away and
// continues). Any failed write or sync throws SpecError, so a full disk
// never truncates a campaign silently.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>

#include "scenario/campaign.hpp"

namespace cobra::scenario {

/// Journal on-disk format version (the "v2" in the header line). It
/// changes with the frame layout and whenever a generator's output for a
/// fixed (spec, seed) changes: the plan fingerprint covers only the spec,
/// so without the bump a resumed journal or a stale worker would mix
/// results from two samplers into one sink. Resume refuses a journal of
/// another version, and the distributed handshake exchanges it so a stale
/// worker binary fails loudly up front. v2: random_regular's single
/// slot-CSR sampler replaced the keyed pairing.
inline constexpr std::uint32_t kJournalFormatVersion = 2;

/// Shortest correctly rounded %g string that parses back to exactly
/// `value`; integral values within +-1e15 print as integers.
std::string format_double(double value);

/// One JSONL record for a finished job (no trailing newline).
std::string jsonl_record(const CampaignPlan& plan, const JobSpec& job,
                         const JobResult& result);

/// CSV column line; faults=true appends the fault-layer columns (PDR,
/// energy, delivered/dropped/blocked totals). Campaigns without a [faults]
/// section keep the legacy header byte-for-byte.
std::string csv_header(bool faults = false);
std::string csv_row(const CampaignPlan& plan, const JobSpec& job,
                    const JobResult& result);

/// JobResult <-> journal payload.
std::string serialize_job_result(const JobResult& result);
bool parse_job_result(const std::string& payload, JobResult& result);

class Journal {
 public:
  /// Group-commit period: frames are fsync'd at most this often.
  static constexpr std::chrono::milliseconds kSyncInterval{50};

  /// Opens `path`. With resume=true an existing journal whose header
  /// matches is replayed into restored(); a header mismatch throws
  /// SpecError (the spec changed under the journal). The file is then
  /// rewritten as header + restored frames, so any partial frame left by
  /// a kill mid-write is dropped before new appends follow it.
  Journal(const std::string& path, const CampaignPlan& plan, bool resume);

  /// Syncs and closes without throwing (a failure is printed to stderr);
  /// call close() first to handle it.
  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Restored (job index -> payload-parsed result) entries.
  const std::map<std::size_t, JobResult>& restored() const {
    return restored_;
  }

  /// True if `index` has a frame in this journal (restored or written by
  /// this instance) — the idempotency check merge() is built on.
  bool contains(std::size_t index) const {
    return written_.count(index) != 0;
  }

  /// Writes and flushes one completed job's frame, and fsyncs the file if
  /// kSyncInterval has passed since the last sync. Throws SpecError if the
  /// write or the sync fails. Not thread-safe; callers serialize (the
  /// campaign runner appends under its report mutex, the dist coordinator
  /// under its merge mutex).
  void append(std::size_t index, const JobResult& result);

  /// Merge-by-frame: appends `result` only if `index` has no frame yet,
  /// returning whether a frame was written. Duplicate frames — a re-run
  /// shard after a lease requeue, a slow worker racing its replacement —
  /// are dropped here, which is what keeps a distributed campaign's journal
  /// (and therefore its final sinks) byte-identical to a single-process
  /// run whatever the worker failure pattern.
  bool merge(std::size_t index, const JobResult& result);

  /// Writes a free-form telemetry frame ("note <text>") like append() —
  /// e.g. per-graph build times or worker build-info stamps. Note frames
  /// are skipped by the resume parser and dropped on rewrite; they never
  /// affect campaign results.
  void note(const std::string& text);

  /// Syncs every frame still unsynced and closes the file. Throws
  /// SpecError if the sync or the close fails. Campaigns call it before
  /// writing their sinks. Further calls do nothing; appends after it are
  /// invalid.
  void close();

 private:
  /// Writes and flushes `frame`, then fsyncs if kSyncInterval has passed
  /// since last_sync_.
  void write_frame(const std::string& frame);

  std::string path_;
  std::FILE* out_ = nullptr;
  std::chrono::steady_clock::time_point last_sync_;
  std::map<std::size_t, JobResult> restored_;
  std::set<std::size_t> written_;  ///< restored + appended indices
};

}  // namespace cobra::scenario
