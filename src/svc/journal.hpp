// Crash-safe result journal: durable checkpointing for batch execution.
//
// A ResultJournal makes a jobd batch (or a campaign, which is one) survive
// a crash of the *driver* process — the gap left after PR 5's worker
// isolation. Every completed JobResult line is appended as one framed,
// checksummed record and fsync'd before the batch moves on, so a hard kill
// (power loss, OOM, injected daemon_crash) can lose at most the record
// being written. A restarted run opens the same journal with resume=true,
// verifies every record against the new batch (each record carries the
// content hash of the *input spec line* it answers), adopts the completed
// results verbatim, and re-runs only the rest — which is how the final
// results.jsonl comes out byte-identical to an uninterrupted run: adopted
// lines are the exact bytes an uninterrupted run would have computed,
// because run_job is a pure function of the spec.
//
// Wire format, one text record per completed job:
//
//   MFDJ1 <index> <spec_hi:16hex> <spec_lo:16hex> <len> <cksum:16hex> <payload>\n
//
// `payload` is the JobResult's JSON dump (single line by construction, but
// framed by the declared byte length, never by newline search); `cksum` is
// a ContentHasher digest over (index, spec hash, payload) — the same
// splitmix64-based hashing the fitness cache's segments trust. Loading
// stops at the first record that fails framing or checksum and truncates
// the file back to the valid prefix (append-only writing means only the
// tail can be torn); a record whose (index, spec hash) does not match the
// current batch means the journal belongs to a *different* batch, and the
// whole journal is discarded rather than resumed from.
//
// Not every outcome is journaled: journal_eligible() admits only outcomes
// that are deterministic functions of the spec (kOk, kInvalidOptions,
// kInfeasible, kInternalError). Deadline/cancel/unavailable results depend
// on wall clock or transient infrastructure — replaying them would make a
// resumed run differ from an uninterrupted one, so they are always
// recomputed.
//
// Thread-safety: append() may be called concurrently from executor
// worker threads (one internal mutex serializes writes); open()/close()
// belong to the driver.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/status.hpp"

namespace mfd::svc {

/// True when `outcome` is a deterministic function of the job spec and may
/// be adopted from a journal on resume (see file comment).
[[nodiscard]] bool journal_eligible(Outcome outcome);

/// Load/append accounting of one open() lifetime.
struct JournalStats {
  /// Valid records adopted for this batch on open().
  int records_loaded = 0;
  /// Valid records discarded: a fresh (resume=false) open, or any record
  /// whose (index, spec hash) belongs to a different batch.
  int records_stale = 0;
  /// Bytes truncated off the tail because framing or checksum failed there
  /// (0 or one partial record for any append-only crash).
  std::int64_t torn_bytes = 0;
  /// Records appended by this process since open().
  int records_appended = 0;
};

class ResultJournal {
 public:
  ResultJournal() = default;
  ~ResultJournal();
  ResultJournal(const ResultJournal&) = delete;
  ResultJournal& operator=(const ResultJournal&) = delete;

  /// Opens (creating if needed) `dir`/results.journal for the batch whose
  /// raw input spec lines are `job_lines` (one per result index, blank
  /// lines already skipped — run_jobd's indexing). With resume=true, valid
  /// records matching this batch are adopted into completed(); with
  /// resume=false any existing journal is discarded. Fails kUnavailable
  /// (stage "journal") when the directory or file cannot be created —
  /// durability was requested and cannot be provided.
  [[nodiscard]] Status open(const std::string& dir,
                            const std::vector<std::string>& job_lines,
                            bool resume);

  /// True between a successful open() and close().
  [[nodiscard]] bool active() const { return fd_ >= 0; }

  /// Result line bytes adopted from disk, keyed by batch index. Stable
  /// after open() (append() does not add to it — the caller already has
  /// those results).
  [[nodiscard]] const std::map<int, std::string>& completed() const {
    return completed_;
  }

  /// Appends one completed record and fsyncs it; durable once it returns.
  /// No-op (Ok) when the journal is not active. Thread-safe.
  Status append(int index, const std::string& result_line);

  /// Chaos hook (journal_torn_tail): writes only the first half of the
  /// record, fsyncs, and returns — the caller _Exits, leaving the torn
  /// tail a resumed open() must reject.
  Status append_torn(int index, const std::string& result_line);

  [[nodiscard]] const JournalStats& stats() const { return stats_; }

  /// Closes the journal fd (records already on disk stay durable).
  void close();

  /// Journal file name inside the journal directory.
  static constexpr const char* kFileName = "results.journal";

  /// Content hash of one raw input spec line (the record's batch-identity
  /// key). Exposed for tests.
  [[nodiscard]] static Hash128 hash_line(const std::string& line);

  /// Encodes one record (including the trailing newline). Exposed for
  /// tests that corrupt records at chosen byte offsets.
  [[nodiscard]] static std::string encode_record(int index,
                                                 const Hash128& spec_hash,
                                                 const std::string& payload);

 private:
  int fd_ = -1;
  std::mutex mutex_;
  std::map<int, std::string> completed_;
  std::vector<Hash128> line_hashes_;
  JournalStats stats_;
};

}  // namespace mfd::svc
