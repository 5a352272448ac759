#ifndef HCD_COMMON_INSTALLED_H_
#define HCD_COMMON_INSTALLED_H_

#include <atomic>

#include "common/check.h"

namespace hcd {

/// Process-wide publication shared by the two observability backends
/// (Tracer, MetricsRegistry), so instrumentation anywhere in the
/// library finds each one the same way: `T::Current()` is the installed
/// instance, or null when none is (one relaxed atomic load). Install()
/// checks that no other T is installed; Uninstall() checks that this one
/// is; destroying an installed instance aborts.
template <typename T>
class Installed {
 public:
  static T* Current() {
    return static_cast<T*>(current_.load(std::memory_order_relaxed));
  }

  void Install() {
    Installed* expected = nullptr;
    HCD_CHECK(current_.compare_exchange_strong(expected, this,
                                               std::memory_order_release))
        << "another instance is already installed";
  }

  void Uninstall() {
    Installed* expected = this;
    HCD_CHECK(current_.compare_exchange_strong(expected, nullptr,
                                               std::memory_order_release))
        << "this instance is not the installed one";
  }

 protected:
  Installed() = default;
  ~Installed() {
    HCD_CHECK(current_.load(std::memory_order_relaxed) != this)
        << "destroying the installed instance; Uninstall() first";
  }

 private:
  static inline std::atomic<Installed*> current_{nullptr};
};

}  // namespace hcd

#endif  // HCD_COMMON_INSTALLED_H_
