#include "core/fitness_cache.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

namespace mfd::core {
namespace fs = std::filesystem;

namespace {

// Segment wire format (little-endian u64 words throughout):
//   [0]       magic "MFDFITC1"
//   [1]       entry count N
//   [2..2+4N) N records of 4 words each: key.hi, key.lo,
//             bit_cast<u64>(makespan), flags (bit0 schedule_ok,
//             bit1 tests_ok; other bits must be zero)
//   [last]    checksum: splitmix64 fold over words [1..last)
constexpr std::uint64_t kSegmentMagic = 0x314354494644464dull;  // "MFDFITC1"
constexpr std::uint64_t kFlagScheduleOk = 1ull << 0;
constexpr std::uint64_t kFlagTestsOk = 1ull << 1;
constexpr std::size_t kWordsPerRecord = 4;

// Per-entry memory estimate for the byte budget: map node (key + value +
// bucket/link overhead) plus the FIFO deque slot.
constexpr std::size_t kBytesPerEntry = 96;

std::uint64_t fold_checksum(std::uint64_t acc, std::uint64_t word) {
  return splitmix64(acc ^ word) + word;
}

std::uint64_t read_word(const unsigned char* bytes) {
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    word |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
  }
  return word;
}

void write_word(std::uint64_t word, std::string* out) {
  for (std::size_t i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((word >> (8 * i)) & 0xff));
  }
}

int process_id() {
#ifdef _WIN32
  return _getpid();
#else
  return static_cast<int>(::getpid());
#endif
}

}  // namespace

FitnessCache::FitnessCache(FitnessCacheOptions options)
    : options_(std::move(options)) {
  if (options_.max_bytes != 0) {
    const std::size_t total = options_.max_bytes / kBytesPerEntry;
    max_entries_per_shard_ = total / kShards;
    if (max_entries_per_shard_ == 0) max_entries_per_shard_ = 1;
  }
  if (!options_.dir.empty()) load();
}

bool FitnessCache::get(const Hash128& key, FitnessRecord* value) {
  Shard& shard = shard_of(key);
  bool hit = false;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      if (value != nullptr) *value = it->second;
      hit = true;
    }
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  if (hit) {
    ++stats_.hits;
  } else {
    ++stats_.misses;
  }
  return hit;
}

void FitnessCache::put(const Hash128& key, const FitnessRecord& value) {
  insert(key, value, /*from_disk=*/false);
}

bool FitnessCache::insert(const Hash128& key, const FitnessRecord& value,
                          bool from_disk) {
  Shard& shard = shard_of(key);
  bool inserted = false;
  std::int64_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto [it, fresh] = shard.map.emplace(key, value);
    inserted = fresh;
    if (fresh) {
      shard.order.push_back(key);
      while (max_entries_per_shard_ != 0 &&
             shard.order.size() > max_entries_per_shard_) {
        shard.map.erase(shard.order.front());
        shard.order.pop_front();
        ++evicted;
      }
    }
  }
  if (inserted && !from_disk && !options_.dir.empty()) {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    pending_.emplace_back(key, value);
  }
  if (inserted || evicted != 0) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (inserted) ++stats_.insertions;
    stats_.evictions += evicted;
  }
  return inserted;
}

std::size_t FitnessCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.map.size();
  }
  return total;
}

FitnessCacheStats FitnessCache::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void FitnessCache::load() {
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  std::vector<fs::path> segments;
  std::vector<fs::path> temps;
  for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
    if (entry.path().extension() == kSegmentSuffix) {
      segments.push_back(entry.path());
    } else if (entry.path().extension() == ".tmp" &&
               fs::path(entry.path().stem()).extension() == kSegmentSuffix) {
      temps.push_back(entry.path());
    }
  }
  if (ec) return;  // unreadable dir: start cold, persist() will retry I/O

  // Sweep leftover write temps: a persist() that died between write and
  // rename leaves "<segment>.mfc.tmp" behind forever (the extension filter
  // above skips it, so it used to just accumulate). Only temps old enough
  // that no live writer can still own them are removed — a concurrent
  // process mid-persist keeps its fresh temp.
  const auto now = fs::file_time_type::clock::now();
  for (const fs::path& temp : temps) {
    std::error_code temp_ec;
    const auto written = fs::last_write_time(temp, temp_ec);
    if (temp_ec || now - written < kStaleTempAge) continue;
    if (fs::remove(temp, temp_ec) && !temp_ec) {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.disk_temps_swept;
    }
  }
  // Deterministic load order (directory iteration order is unspecified).
  std::sort(segments.begin(), segments.end());

  for (const fs::path& path : segments) {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    const bool read_ok = in.good() || in.eof();

    auto reject = [&] {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.disk_segments_rejected;
    };
    if (!read_ok || bytes.size() < 3 * 8 || bytes.size() % 8 != 0) {
      reject();
      continue;
    }
    const auto* words = reinterpret_cast<const unsigned char*>(bytes.data());
    const std::size_t word_count = bytes.size() / 8;
    if (read_word(words) != kSegmentMagic) {
      reject();
      continue;
    }
    const std::uint64_t count = read_word(words + 8);
    if (word_count != 2 + count * kWordsPerRecord + 1) {
      reject();
      continue;
    }
    std::uint64_t checksum = fold_checksum(0, count);
    for (std::size_t w = 2; w < word_count - 1; ++w) {
      checksum = fold_checksum(checksum, read_word(words + 8 * w));
    }
    if (checksum != read_word(words + 8 * (word_count - 1))) {
      reject();
      continue;
    }

    bool valid = true;
    std::vector<std::pair<Hash128, FitnessRecord>> records;
    records.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      const unsigned char* rec = words + 8 * (2 + i * kWordsPerRecord);
      const std::uint64_t flags = read_word(rec + 24);
      if ((flags & ~(kFlagScheduleOk | kFlagTestsOk)) != 0) {
        valid = false;
        break;
      }
      Hash128 key{read_word(rec), read_word(rec + 8)};
      FitnessRecord record{std::bit_cast<double>(read_word(rec + 16)),
                           (flags & kFlagScheduleOk) != 0,
                           (flags & kFlagTestsOk) != 0};
      records.emplace_back(key, record);
    }
    if (!valid) {
      reject();
      continue;
    }
    std::int64_t loaded = 0;
    for (const auto& [key, record] : records) {
      if (insert(key, record, /*from_disk=*/true)) ++loaded;
    }
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.disk_segments_loaded;
    stats_.disk_entries_loaded += loaded;
  }
}

Status FitnessCache::persist() {
  if (options_.dir.empty()) return Status::Ok();
  std::vector<std::pair<Hash128, FitnessRecord>> entries;
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    if (pending_.empty()) return Status::Ok();
    entries.swap(pending_);
  }

  std::string bytes;
  bytes.reserve(8 * (3 + entries.size() * kWordsPerRecord));
  write_word(kSegmentMagic, &bytes);
  const std::uint64_t count = entries.size();
  write_word(count, &bytes);
  std::uint64_t checksum = fold_checksum(0, count);
  auto emit = [&](std::uint64_t word) {
    write_word(word, &bytes);
    checksum = fold_checksum(checksum, word);
  };
  for (const auto& [key, record] : entries) {
    emit(key.hi);
    emit(key.lo);
    emit(std::bit_cast<std::uint64_t>(record.makespan));
    emit((record.schedule_ok ? kFlagScheduleOk : 0) |
         (record.tests_ok ? kFlagTestsOk : 0));
  }
  write_word(checksum, &bytes);

  auto fail = [&](const std::string& message) {
    // Put the entries back so a later persist() can retry.
    std::lock_guard<std::mutex> lock(pending_mutex_);
    pending_.insert(pending_.begin(), entries.begin(), entries.end());
    return Status::Fail(Outcome::kInternalError, "fitness_cache", message);
  };

  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) return fail("create_directories: " + ec.message());
  // PID + process-wide counter keeps concurrent writers — worker processes
  // sharing one --cache-dir, or several caches in one process — on distinct
  // filenames; the existence check covers a recycled PID meeting an old
  // directory.
  static std::atomic<std::uint64_t> sequence{0};
  fs::path final_path;
  do {
    const std::string name =
        "seg-" + std::to_string(process_id()) + "-" +
        std::to_string(sequence.fetch_add(1, std::memory_order_relaxed)) +
        kSegmentSuffix;
    final_path = fs::path(options_.dir) / name;
  } while (fs::exists(final_path));
  const fs::path tmp_path = final_path.string() + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out.good()) {
      std::error_code ignore;
      fs::remove(tmp_path, ignore);
      return fail("write failed: " + tmp_path.string());
    }
  }
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    std::error_code ignore;
    fs::remove(tmp_path, ignore);
    return fail("rename: " + ec.message());
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.disk_entries_persisted += static_cast<std::int64_t>(count);
  }
  return Status::Ok();
}

}  // namespace mfd::core
