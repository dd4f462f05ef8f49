/// \file
/// LazyPublish: the build-once primitive behind every lazily built index.

#ifndef AUJOIN_UTIL_LAZY_PUBLISH_H_
#define AUJOIN_UTIL_LAZY_PUBLISH_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <utility>

#include "util/status.h"

namespace aujoin {

/// Builds a `const T` once and publishes it to readers that take no
/// lock. The first Get builds under the helper's mutex, so concurrent
/// first callers wait for one build; once published, Get is one acquire
/// load plus the shared_ptr refcount bump. A failed build publishes
/// nothing and the next Get retries. There is no reset: an owner that
/// rebinds replaces the helper, a mutation never concurrent with its
/// readers (an owner that must move holds it by pointer).
template <typename T>
class LazyPublish {
 public:
  LazyPublish() = default;
  /// Published from birth: Get never calls its build.
  explicit LazyPublish(std::shared_ptr<const T> built)
      : value_(std::move(built)), published_(value_ != nullptr) {}
  LazyPublish(const LazyPublish&) = delete;
  LazyPublish& operator=(const LazyPublish&) = delete;

  /// The published value, built first if there is none. `build`
  /// returns a non-null `std::shared_ptr<const T>` (or a Result of one)
  /// and runs only in the call that publishes or fails, under the lock.
  template <typename Build>
  Result<std::shared_ptr<const T>> Get(Build&& build) const {
    if (published_.load(std::memory_order_acquire)) return value_;
    std::lock_guard<std::mutex> lock(mutex_);
    if (value_ == nullptr) {
      Result<std::shared_ptr<const T>> built = build();
      if (!built.ok()) return built.status();
      value_ = std::move(*built);
      published_.store(true, std::memory_order_release);
    }
    return value_;
  }

  /// The published value, or nullptr; never builds.
  std::shared_ptr<const T> Peek() const {
    return published_.load(std::memory_order_acquire) ? value_ : nullptr;
  }

 private:
  mutable std::mutex mutex_;
  /// Written once, under mutex_ and before the release store of
  /// `published_`; read unlocked only after an acquire load sees it.
  mutable std::shared_ptr<const T> value_;
  mutable std::atomic<bool> published_{false};
};

}  // namespace aujoin

#endif  // AUJOIN_UTIL_LAZY_PUBLISH_H_
