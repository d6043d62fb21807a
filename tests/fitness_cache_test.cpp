// core::FitnessCache semantics: in-memory sharing, the persistent tier's
// round-trip and corruption rejection, eviction under the byte budget,
// cross-job sharing within one batch, and the determinism contract —
// results.jsonl is byte-identical with the cache on, off, or warm.
#include "core/fitness_cache.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/hash.hpp"
#include "common/run_control.hpp"
#include "svc/jobd.hpp"
#include "svc/run_job.hpp"

namespace mfd::core {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test, removed on destruction.
struct TempDir {
  fs::path path;

  explicit TempDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("mfdft_cache_test_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }

  [[nodiscard]] std::string str() const { return path.string(); }
};

Hash128 key_of(std::uint64_t n) {
  ContentHasher h;
  h.mix(n);
  return h.digest();
}

FitnessRecord record_of(double makespan, bool schedule_ok = true,
                        bool tests_ok = true) {
  return FitnessRecord{makespan, schedule_ok, tests_ok};
}

std::vector<fs::path> segments_in(const fs::path& dir) {
  std::vector<fs::path> segments;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == FitnessCache::kSegmentSuffix) {
      segments.push_back(entry.path());
    }
  }
  return segments;
}

TEST(FitnessCacheTest, GetPutAndFirstWriterWins) {
  FitnessCache cache;
  FitnessRecord out;
  EXPECT_FALSE(cache.get(key_of(1), &out));

  cache.put(key_of(1), record_of(10.0));
  ASSERT_TRUE(cache.get(key_of(1), &out));
  EXPECT_EQ(out, record_of(10.0));

  // Entries are pure functions of their key: a second put of the same key
  // must not replace the first value (and is not counted as an insertion).
  cache.put(key_of(1), record_of(99.0));
  ASSERT_TRUE(cache.get(key_of(1), &out));
  EXPECT_EQ(out.makespan, 10.0);

  const FitnessCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(FitnessCacheTest, EvictsFifoUnderByteBudget) {
  FitnessCacheOptions options;
  options.max_bytes = 4096;  // a few dozen entries, two per shard
  FitnessCache cache(options);
  for (std::uint64_t n = 0; n < 1000; ++n) {
    cache.put(key_of(n), record_of(static_cast<double>(n)));
  }
  EXPECT_LT(cache.size(), 1000u);
  EXPECT_GT(cache.stats().evictions, 0);
  // The newest entry survives; the oldest was evicted first.
  FitnessRecord out;
  EXPECT_TRUE(cache.get(key_of(999), &out));
  EXPECT_FALSE(cache.get(key_of(0), &out));
}

TEST(FitnessCacheTest, DiskRoundTripWarmStart) {
  TempDir dir("roundtrip");
  {
    FitnessCacheOptions options;
    options.dir = dir.str();
    FitnessCache cache(options);
    cache.put(key_of(1), record_of(10.0));
    cache.put(key_of(2), record_of(20.0, true, false));
    cache.put(key_of(3), record_of(30.0, false, false));
    ASSERT_TRUE(cache.persist().ok());
    EXPECT_EQ(cache.stats().disk_entries_persisted, 3);
    // Nothing new since the last persist: no extra segment.
    ASSERT_TRUE(cache.persist().ok());
    EXPECT_EQ(segments_in(dir.path).size(), 1u);
  }
  // "Restart": a fresh cache over the same directory starts warm.
  FitnessCacheOptions options;
  options.dir = dir.str();
  FitnessCache warm(options);
  EXPECT_EQ(warm.size(), 3u);
  EXPECT_EQ(warm.stats().disk_segments_loaded, 1);
  EXPECT_EQ(warm.stats().disk_entries_loaded, 3);
  FitnessRecord out;
  ASSERT_TRUE(warm.get(key_of(2), &out));
  EXPECT_EQ(out, record_of(20.0, true, false));
  ASSERT_TRUE(warm.get(key_of(3), &out));
  EXPECT_EQ(out, record_of(30.0, false, false));
}

TEST(FitnessCacheTest, ConcurrentWritersUseDistinctSegments) {
  TempDir dir("writers");
  FitnessCacheOptions options;
  options.dir = dir.str();
  {
    // Two caches persisting into one directory (as two processes would):
    // both segments must survive and a third cache sees the union.
    FitnessCache a(options);
    FitnessCache b(options);
    a.put(key_of(1), record_of(1.0));
    b.put(key_of(2), record_of(2.0));
    ASSERT_TRUE(a.persist().ok());
    ASSERT_TRUE(b.persist().ok());
  }
  EXPECT_EQ(segments_in(dir.path).size(), 2u);
  FitnessCache merged(options);
  EXPECT_EQ(merged.size(), 2u);
}

TEST(FitnessCacheTest, RejectsCorruptedAndTruncatedSegments) {
  TempDir dir("corrupt");
  FitnessCacheOptions options;
  options.dir = dir.str();
  {
    FitnessCache cache(options);
    for (std::uint64_t n = 0; n < 8; ++n) {
      cache.put(key_of(n), record_of(static_cast<double>(n)));
    }
    ASSERT_TRUE(cache.persist().ok());
  }
  const std::vector<fs::path> segments = segments_in(dir.path);
  ASSERT_EQ(segments.size(), 1u);
  std::string bytes;
  {
    std::ifstream in(segments[0], std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }

  const auto write_segment = [&](const std::string& contents) {
    std::ofstream out(segments[0], std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size()));
  };
  const auto rejected_count = [&] {
    FitnessCache reload(options);
    EXPECT_EQ(reload.size(), 0u);
    return reload.stats().disk_segments_rejected;
  };

  // One flipped payload byte: checksum mismatch, whole segment rejected.
  std::string corrupt = bytes;
  corrupt[corrupt.size() / 2] =
      static_cast<char>(corrupt[corrupt.size() / 2] ^ 0x40);
  write_segment(corrupt);
  EXPECT_EQ(rejected_count(), 1);

  // Truncated mid-record (as a crash mid-write without the atomic rename
  // would leave behind): rejected.
  write_segment(bytes.substr(0, bytes.size() - 24));
  EXPECT_EQ(rejected_count(), 1);

  // Wrong magic: rejected.
  std::string wrong_magic = bytes;
  wrong_magic[0] = 'X';
  write_segment(wrong_magic);
  EXPECT_EQ(rejected_count(), 1);

  // Too short to even hold a header: rejected.
  write_segment("abc");
  EXPECT_EQ(rejected_count(), 1);
}

TEST(FitnessCacheTest, LeftoverTmpFilesAreIgnored) {
  TempDir dir("tmp");
  FitnessCacheOptions options;
  options.dir = dir.str();
  {
    FitnessCache cache(options);
    cache.put(key_of(1), record_of(1.0));
    ASSERT_TRUE(cache.persist().ok());
  }
  // A crash between write and rename leaves a .tmp file; loads skip it —
  // and a *fresh* temp (a concurrent writer may still own it) survives.
  const fs::path fresh_tmp =
      dir.path /
      ("seg-dead-0" + std::string(FitnessCache::kSegmentSuffix) + ".tmp");
  std::ofstream(fresh_tmp) << "half a segment";
  FitnessCache reload(options);
  EXPECT_EQ(reload.size(), 1u);
  EXPECT_EQ(reload.stats().disk_segments_rejected, 0);
  EXPECT_EQ(reload.stats().disk_temps_swept, 0);
  EXPECT_TRUE(fs::exists(fresh_tmp));
}

TEST(FitnessCacheTest, StaleTmpFilesAreSweptAtLoad) {
  TempDir dir("sweep");
  FitnessCacheOptions options;
  options.dir = dir.str();
  {
    FitnessCache cache(options);
    cache.put(key_of(1), record_of(1.0));
    ASSERT_TRUE(cache.persist().ok());
  }
  // A temp old enough that no live persist() can still own it is garbage
  // from a dead writer: load removes it (and only it).
  const fs::path stale_tmp =
      dir.path /
      ("seg-dead-1" + std::string(FitnessCache::kSegmentSuffix) + ".tmp");
  std::ofstream(stale_tmp) << "half a segment";
  fs::last_write_time(stale_tmp,
                      fs::file_time_type::clock::now() -
                          FitnessCache::kStaleTempAge -
                          std::chrono::minutes(1));
  // Not every .tmp is ours: an unrelated temp must be left alone however
  // old it is.
  const fs::path foreign_tmp = dir.path / "notes.txt.tmp";
  std::ofstream(foreign_tmp) << "unrelated";
  fs::last_write_time(foreign_tmp,
                      fs::file_time_type::clock::now() -
                          FitnessCache::kStaleTempAge -
                          std::chrono::minutes(1));

  FitnessCache reload(options);
  EXPECT_EQ(reload.size(), 1u);  // the real segment still loads
  EXPECT_EQ(reload.stats().disk_temps_swept, 1);
  EXPECT_FALSE(fs::exists(stale_tmp));
  EXPECT_TRUE(fs::exists(foreign_tmp));

  // The sweep is once-per-load: a second warm start finds nothing to do.
  FitnessCache again(options);
  EXPECT_EQ(again.stats().disk_temps_swept, 0);
}

TEST(FitnessCacheTest, ConcurrentGetPutIsSafe) {
  FitnessCache cache;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kKeys = 512;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      FitnessRecord out;
      for (std::uint64_t n = 0; n < kKeys; ++n) {
        // All threads fight over the same keys with the same pure-function
        // values; interleaving must never surface a torn record.
        cache.put(key_of(n), record_of(static_cast<double>(n)));
        if (cache.get(key_of((n + static_cast<std::uint64_t>(t)) % kKeys),
                      &out)) {
          EXPECT_EQ(out.makespan,
                    static_cast<double>((n + static_cast<std::uint64_t>(t)) %
                                        kKeys));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(cache.size(), kKeys);
  EXPECT_EQ(cache.stats().insertions, static_cast<std::int64_t>(kKeys));
}

// ---- Service-layer integration -------------------------------------------

svc::JobSpec codesign_spec(const std::string& id) {
  svc::JobSpec spec;
  spec.kind = svc::JobKind::kCodesign;
  spec.id = id;
  spec.chip = "IVD_chip";
  spec.assay = "IVD";
  spec.outer_iterations = 1;
  spec.outer_particles = 2;
  spec.config_pool_size = 1;
  return spec;
}

TEST(FitnessCacheTest, DispatcherBatchSharesAcrossJobs) {
  // Two identical codesign jobs in one batch: the second must reuse the
  // first's evaluations through the shared cache.
  const std::vector<svc::JobSpec> specs{codesign_spec("a"),
                                        codesign_spec("b")};

  const std::vector<int> slots{0, 1};
  std::vector<svc::JobResult> cold(specs.size());
  const svc::ServiceMetrics plain = svc::run_batch(specs, slots, cold);
  EXPECT_EQ(plain.cache_shared_hits, 0);
  EXPECT_EQ(plain.stats.shared_hits, 0);

  FitnessCache cache;
  std::vector<svc::JobResult> warm(specs.size());
  const svc::ServiceMetrics shared =
      svc::run_batch(specs, slots, warm, {}, &cache);

  EXPECT_GT(shared.cache_shared_hits, 0);
  EXPECT_GT(shared.stats.shared_hits, 0);
  EXPECT_GT(shared.cache_entries, 0);

  // Identical serialized results: the cache changes wall time, not values.
  ASSERT_EQ(cold.size(), warm.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(cold[i].to_json().dump(), warm[i].to_json().dump());
  }
}

std::string two_codesign_jobs_jsonl() {
  return codesign_spec("a").to_json().dump() + "\n" +
         codesign_spec("b").to_json().dump() + "\n";
}

std::string run_jobd_bytes(svc::JobdOptions options,
                           svc::JobdReport* report = nullptr) {
  std::istringstream in(two_codesign_jobs_jsonl());
  std::ostringstream out;
  const svc::JobdReport r = svc::run_jobd(in, out, options);
  EXPECT_TRUE(r.cache_persist.ok()) << r.cache_persist.to_string();
  if (report != nullptr) *report = r;
  return out.str();
}

TEST(FitnessCacheTest, ResultsBytesIdenticalAcrossCacheModesAndThreads) {
  // Reference: each job run on its own, with a private cache.
  const std::vector<svc::JobSpec> specs{codesign_spec("a"),
                                        codesign_spec("b")};
  std::string reference;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    svc::JobResult result = svc::run_job(specs[i]);
    result.index = static_cast<int>(i);
    reference += result.to_json().dump() + "\n";
  }

  // Cache on (memory only), serial and threaded.
  svc::JobdOptions on;
  svc::JobdReport on_report;
  EXPECT_EQ(run_jobd_bytes(on, &on_report), reference);
  EXPECT_GT(on_report.metrics.cache_shared_hits, 0);

  svc::JobdOptions threaded;
  threaded.threads = 4;
  EXPECT_EQ(run_jobd_bytes(threaded), reference);

  // Disk-backed: a cold run that persists, then a warm restart that serves
  // from the loaded tier. Bytes identical in both.
  TempDir dir("jobd");
  svc::JobdOptions disk;
  disk.cache_dir = dir.str();
  EXPECT_EQ(run_jobd_bytes(disk), reference);
  ASSERT_FALSE(segments_in(dir.path).empty());

  svc::JobdReport warm_report;
  EXPECT_EQ(run_jobd_bytes(disk, &warm_report), reference);
  EXPECT_GT(warm_report.metrics.cache_disk_loaded, 0);
}

TEST(FitnessCacheTest, AbortedEvaluationsAreNeverCached) {
  // A control that is already cancelled marks every evaluation aborted;
  // neither tier may retain those values, and nothing reaches disk.
  TempDir dir("aborted");
  svc::JobdOptions options;
  options.cache_dir = dir.str();
  options.deadline_s = 0.000001;  // expires before any evaluation finishes
  std::istringstream in(two_codesign_jobs_jsonl());
  std::ostringstream out;
  const svc::JobdReport report = svc::run_jobd(in, out, options);
  EXPECT_EQ(report.metrics.jobs_ok, 0);
  EXPECT_EQ(report.metrics.cache_entries, 0);
  EXPECT_TRUE(segments_in(dir.path).empty());
}

}  // namespace
}  // namespace mfd::core
