#pragma once

// Heap-allocation counting for the *_alloc_test binaries. Linking
// counting_allocator.cpp replaces the global operator new/delete for the
// whole test binary; a CountScope counts the operator new calls made while
// it is alive. The replacement operators live in their own translation unit
// so no caller sees the malloc-backed new and its std::free side by side.

#include <cstddef>

namespace rst::test_support {

class CountScope {
 public:
  CountScope();
  ~CountScope();
  CountScope(const CountScope&) = delete;
  CountScope& operator=(const CountScope&) = delete;
  /// operator new calls since this scope opened.
  [[nodiscard]] std::size_t count() const;
};

}  // namespace rst::test_support
