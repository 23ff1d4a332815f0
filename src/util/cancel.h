#ifndef SHARPCQ_UTIL_CANCEL_H_
#define SHARPCQ_UTIL_CANCEL_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace sharpcq {

// Cooperative cancellation + deadline for one request/execution.
//
// The daemon creates one token per request, arms it with the request's
// deadline (and cancels it outright when the client disconnects), and the
// engine threads it through the execution policy into the kernel's morsel
// claim loops and the strategies' checkpoint sites. Checks are pull-based:
// nothing is interrupted preemptively, loops poll ShouldStop() at morsel
// granularity, so a stopped execution unwinds at the next checkpoint —
// bounded by one morsel (~4K rows) of probe work on the hot paths.
//
// Thread safety: Cancel() and ShouldStop() may race freely from any number
// of threads. SetDeadline() must happen-before the token is shared with the
// execution (the daemon arms it before submitting the request).
class CancelToken {
 public:
  enum class StopReason : std::uint8_t { kNone, kCancelled, kDeadline };

  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  // Requests cancellation; idempotent.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  // Arms the deadline. Call before sharing the token (not thread-safe
  // against concurrent ShouldStop).
  void SetDeadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }
  // Arms the deadline `budget` from now. A budget past the clock's range
  // saturates at time_point::max() (never expires) instead of overflowing.
  void SetDeadlineAfter(std::chrono::milliseconds budget) {
    using Clock = std::chrono::steady_clock;
    const Clock::time_point now = Clock::now();
    const auto headroom = std::chrono::duration_cast<std::chrono::milliseconds>(
        Clock::time_point::max() - now);
    SetDeadline(budget < headroom ? now + budget : Clock::time_point::max());
  }

  // Why the execution should stop, or kNone. Explicit cancellation wins
  // over an expired deadline (the client is gone; no point reporting the
  // deadline to nobody). The deadline verdict latches: once observed
  // expired it stays expired, so every checkpoint after the first agrees.
  StopReason ShouldStop() const {
    if (cancelled_.load(std::memory_order_relaxed)) {
      return StopReason::kCancelled;
    }
    if (has_deadline_) {
      if (deadline_hit_.load(std::memory_order_relaxed)) {
        return StopReason::kDeadline;
      }
      if (std::chrono::steady_clock::now() >= deadline_) {
        deadline_hit_.store(true, std::memory_order_relaxed);
        return StopReason::kDeadline;
      }
    }
    return StopReason::kNone;
  }

  bool stop_requested() const { return ShouldStop() != StopReason::kNone; }

 private:
  std::atomic<bool> cancelled_{false};
  mutable std::atomic<bool> deadline_hit_{false};
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
};

}  // namespace sharpcq

#endif  // SHARPCQ_UTIL_CANCEL_H_
