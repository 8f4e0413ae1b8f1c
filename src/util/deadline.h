#ifndef FTL_UTIL_DEADLINE_H_
#define FTL_UTIL_DEADLINE_H_

/// \file deadline.h
/// Cooperative deadline and cancellation primitives.
///
/// Long-running operations (FtlEngine::Query / BatchQuery) accept a
/// Deadline and a CancelToken and poll them at every window boundary
/// of the scoring loop (QueryOptions::check_every candidates),
/// returning the work completed so far instead of hanging. Both types
/// are cheap values: copying a token shares the underlying flag, and
/// an unset Deadline / default CancelToken never trips and never reads
/// the clock.

#include <atomic>
#include <chrono>
#include <memory>

namespace ftl {

/// A shared cancellation flag. Default-constructed tokens are inert
/// (never cancelled); Create() makes a real token whose copies all
/// observe the same RequestCancel().
class CancelToken {
 public:
  CancelToken() = default;

  /// Makes a cancellable token.
  static CancelToken Create() {
    CancelToken t;
    t.flag_ = std::make_shared<std::atomic<bool>>(false);
    return t;
  }

  /// Requests cancellation; visible to every copy of this token.
  /// No-op on an inert token.
  void RequestCancel() {
    if (flag_) flag_->store(true, std::memory_order_release);
  }

  /// True when cancellation has been requested.
  bool cancel_requested() const {
    return flag_ && flag_->load(std::memory_order_acquire);
  }

  /// True for tokens made by Create() (i.e. cancellation is possible).
  bool can_cancel() const { return flag_ != nullptr; }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// A point in time after which cooperative work should stop. The
/// default Deadline is unset and never expires.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;

  /// A deadline `timeout` from now.
  static Deadline After(std::chrono::nanoseconds timeout) {
    return At(Clock::now() + timeout);
  }

  /// Convenience: a deadline `ms` milliseconds from now.
  static Deadline AfterMillis(int64_t ms) {
    return After(std::chrono::milliseconds(ms));
  }

  /// A deadline at an absolute steady-clock instant.
  static Deadline At(Clock::time_point tp) {
    Deadline d;
    d.has_ = true;
    d.tp_ = tp;
    return d;
  }

  /// True when a deadline is set.
  bool has_deadline() const { return has_; }

  /// True when the deadline has passed (always false when unset).
  bool expired() const { return has_ && Clock::now() >= tp_; }

  /// The instant; only meaningful when has_deadline().
  Clock::time_point time() const { return tp_; }

 private:
  bool has_ = false;
  Clock::time_point tp_{};
};

}  // namespace ftl

#endif  // FTL_UTIL_DEADLINE_H_
