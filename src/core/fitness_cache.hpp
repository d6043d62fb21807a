// Shared, persistent fitness cache for the codesign evaluation pipeline.
//
// The two-level PSO revisits the same (DFT configuration, valve-sharing)
// candidates across sub-swarms, across jobs in one service batch, and —
// because production traffic concentrates on a small set of benchmark
// chips — across daemon restarts. A FitnessCache holds one fitness record
// per *content hash* of everything that determines the evaluation (chip
// structure, assay, scheduling/vector options, configuration augmentation,
// canonical sharing vector; see core/evaluation.cpp), so any evaluator in
// any job — or any process that loaded the same on-disk tier — can reuse a
// result computed elsewhere.
//
// Two tiers:
//   * in-memory: sharded, lock-striped hash maps (16 shards), so
//     concurrent jobs in one svc batch share one cache with minimal
//     contention. A byte budget (`max_bytes`) bounds the footprint with
//     per-shard FIFO eviction — eviction can only cost recomputation, never
//     correctness, because entries are pure functions of their key.
//   * on-disk (optional, `dir` non-empty): append-only segment files. Every
//     persist() writes the entries added since the last one to a fresh
//     segment via write-to-temp + atomic rename, so readers never observe a
//     half-written file; load() (run by the constructor) validates magic,
//     version, length and checksum per segment and rejects — rather than
//     trusts — anything corrupted or truncated. A restarted `mfdft_jobd
//     --cache-dir` therefore starts warm with exactly the records that were
//     fully written.
//
// Determinism contract (held by the evaluator, enforced here by the value
// type): a record stores only the pure-function outcome (makespan,
// schedule_ok, tests_ok) — there is no way to persist an aborted
// evaluation, and serving a hit is byte-for-byte equivalent to recomputing.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.hpp"
#include "common/status.hpp"

namespace mfd::core {

/// The pure-function outcome of one fitness evaluation, as stored in the
/// cache. Deliberately has no `aborted` member: truncated work is never
/// representable here (Evaluation::aborted gates insertion upstream).
struct FitnessRecord {
  double makespan = 0.0;
  bool schedule_ok = false;
  bool tests_ok = false;

  [[nodiscard]] bool operator==(const FitnessRecord&) const = default;
};

struct FitnessCacheOptions {
  /// Directory of the persistent tier; empty = in-memory only. Created on
  /// demand; segments present at construction are loaded (and validated).
  std::string dir;
  /// Approximate in-memory budget in bytes (0 = unbounded). When a shard
  /// outgrows its slice, its oldest entries are evicted FIFO.
  std::size_t max_bytes = 256ull << 20;
};

/// Monotonic counters; snapshot via FitnessCache::stats().
struct FitnessCacheStats {
  /// Lookups served / missed (process lifetime of this cache object).
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  /// Entries inserted (first-writer; duplicate puts of an existing key are
  /// not counted) and entries evicted under the byte budget.
  std::int64_t insertions = 0;
  std::int64_t evictions = 0;
  /// Persistent tier: entries/segments accepted at load time, segments
  /// rejected as corrupt or truncated, entries written by persist().
  std::int64_t disk_entries_loaded = 0;
  std::int64_t disk_segments_loaded = 0;
  std::int64_t disk_segments_rejected = 0;
  std::int64_t disk_entries_persisted = 0;
  /// Stale ".tmp" segment files (a writer that died between write and
  /// rename) removed at load time.
  std::int64_t disk_temps_swept = 0;
};

/// Thread-safe two-tier fitness cache. One instance is typically shared by
/// every job of a service batch (injected through EvaluatorOptions); a
/// default-constructed instance serves as a job-private cache.
class FitnessCache {
 public:
  explicit FitnessCache(FitnessCacheOptions options = {});

  FitnessCache(const FitnessCache&) = delete;
  FitnessCache& operator=(const FitnessCache&) = delete;

  /// Looks `key` up; fills *value on a hit. Counts hits/misses.
  [[nodiscard]] bool get(const Hash128& key, FitnessRecord* value);

  /// Inserts key -> value unless the key is already present (entries are
  /// pure functions of their key, so first-writer-wins is exact). New
  /// entries are queued for the next persist() when a dir is configured.
  void put(const Hash128& key, const FitnessRecord& value);

  /// Entries currently resident in memory.
  [[nodiscard]] std::size_t size() const;

  [[nodiscard]] FitnessCacheStats stats() const;

  /// Writes every entry added since the last persist() to one fresh segment
  /// file (atomic rename; concurrent processes never clobber each other).
  /// No-op without a configured dir or pending entries. Returns kOk, or an
  /// I/O failure as Outcome::kInternalError (stage "fitness_cache").
  Status persist();

  /// The segment-file suffix, exposed for tooling and tests.
  static constexpr const char* kSegmentSuffix = ".mfc";

  /// How old a leftover "<segment>.tmp" file must be before load() sweeps
  /// it: long past any plausible in-flight persist(), so only writers that
  /// died mid-persist are cleaned up.
  static constexpr std::chrono::minutes kStaleTempAge{15};

  /// Lock stripes of the in-memory tier, a power of two so shard_of() can
  /// mask instead of mod.
  static constexpr std::size_t kShards = 16;

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<Hash128, FitnessRecord, Hash128Hasher> map;
    /// Insertion order for FIFO eviction under the byte budget.
    std::deque<Hash128> order;
  };

  [[nodiscard]] Shard& shard_of(const Hash128& key) {
    return shards_[static_cast<std::size_t>(key.hi) & (kShards - 1)];
  }

  /// Inserts into the right shard; returns true when the key was new.
  /// `from_disk` entries are not re-queued for persistence.
  bool insert(const Hash128& key, const FitnessRecord& value, bool from_disk);

  /// Loads and validates every segment in options_.dir (constructor path).
  void load();

  FitnessCacheOptions options_;
  std::size_t max_entries_per_shard_ = 0;  // 0 = unbounded
  std::array<Shard, kShards> shards_;

  std::mutex pending_mutex_;
  std::vector<std::pair<Hash128, FitnessRecord>> pending_;

  mutable std::mutex stats_mutex_;
  FitnessCacheStats stats_;
};

}  // namespace mfd::core
