// Bounded multi-class priority queue for the job-service layer.
//
// The queue of the job execution core (svc/executor.hpp), between
// producers (a batch, the daemon's I/O thread) and its executor threads.
// Items carry a class index — 0 is served first (interactive testgen /
// diagnosis queries), higher classes (bulk codesign) wait — with two
// fairness guarantees layered on top of strict priority:
//
//  * FIFO within a class: two bulk jobs are never reordered against each
//    other, so per-client result order (which is restored by sequence
//    number anyway) degrades gracefully to arrival order under one class.
//  * Aging-based starvation protection: an entry whose front-of-class wait
//    exceeds `age_promote_s` competes with every class on global arrival
//    order. A steady interactive stream therefore delays bulk work by at
//    most ~age_promote_s, never forever.
//
// Admission control is split across the two push flavours: push() blocks
// for backpressure (in-process pipelines where the producer can wait),
// try_push() fails fast for overload shedding (the daemon answers
// kUnavailable instead of stalling a client's socket reader). Both share
// one capacity across all classes so a bulk flood cannot starve admission
// of interactive work for longer than the queue drain time.
//
// close() drains: queued items still pop; only then does pop() report
// exhaustion.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace mfd::svc {

template <typename T>
class PriorityQueue {
 public:
  using Clock = std::chrono::steady_clock;

  /// `capacity` is shared across classes; `classes` is the number of
  /// priority levels (class 0 is most urgent); `age_promote_s` (>= 0) is the
  /// front-of-class wait after which an entry is scheduled by global
  /// arrival order instead of class (0: one global FIFO).
  PriorityQueue(std::size_t capacity, int classes, double age_promote_s)
      : capacity_(capacity),
        age_promote_(std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(age_promote_s))),
        classes_(static_cast<std::size_t>(classes)) {
    MFD_REQUIRE(capacity > 0, "PriorityQueue: capacity must be positive");
    MFD_REQUIRE(classes > 0, "PriorityQueue: need at least one class");
    MFD_REQUIRE(age_promote_s >= 0.0, "PriorityQueue: negative aging");
  }

  PriorityQueue(const PriorityQueue&) = delete;
  PriorityQueue& operator=(const PriorityQueue&) = delete;

  /// Blocks until there is room (or the queue is closed). Returns false
  /// when the queue was closed before the item could be admitted.
  bool push(int job_class, T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock, [this] { return closed_ || size_ < capacity_; });
    if (closed_) return false;
    admit(job_class, std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking admission: false when the queue is full or closed. This
  /// is the shed path — the caller answers kUnavailable instead of waiting.
  bool try_push(int job_class, T item) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || size_ >= capacity_) return false;
      admit(job_class, std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed *and*
  /// drained; nullopt means exhaustion (consumers should exit).
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [this] { return closed_ || size_ > 0; });
    if (size_ == 0) return std::nullopt;
    std::deque<Entry>& chosen = *pick(Clock::now());
    T item = std::move(chosen.front().item);
    chosen.pop_front();
    --size_;
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// No further push() succeeds; queued items still drain through pop().
  void close() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

 private:
  struct Entry {
    T item;
    std::uint64_t seq;          ///< Global arrival order.
    Clock::time_point arrived;  ///< For the aging test.
  };

  /// Must hold mutex_; size_ < capacity_ and !closed_ already checked.
  void admit(int job_class, T item) {
    MFD_REQUIRE(job_class >= 0 &&
                    static_cast<std::size_t>(job_class) < classes_.size(),
                "PriorityQueue: class out of range");
    classes_[static_cast<std::size_t>(job_class)].push_back(
        Entry{std::move(item), next_seq_++, Clock::now()});
    ++size_;
  }

  /// Must hold mutex_ with size_ > 0. Strict priority — the lowest-index
  /// non-empty class — unless a lower-priority front entry has both aged
  /// past the promotion threshold and arrived earlier; aged entries are
  /// served in global FIFO order among themselves.
  std::deque<Entry>* pick(Clock::time_point now) {
    std::deque<Entry>* best = nullptr;
    for (std::deque<Entry>& queue : classes_) {
      if (queue.empty()) continue;
      if (best == nullptr) {
        best = &queue;
        continue;
      }
      const Entry& front = queue.front();
      if (now - front.arrived >= age_promote_ &&
          front.seq < best->front().seq) {
        best = &queue;
      }
    }
    return best;
  }

  const std::size_t capacity_;
  const Clock::duration age_promote_;
  std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::vector<std::deque<Entry>> classes_;
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
  bool closed_ = false;
};

}  // namespace mfd::svc
