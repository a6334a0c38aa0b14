// One declaration per counter block.
//
// A counter block is a struct of relaxed, monotonic counters.  It names
// them once, in an X-macro list, and DYCUCKOO_COUNTERS expands the list
// inside the struct:
//
//   #define MY_COUNTERS(X) X(submitted) X(completed)
//   struct MyStats {
//     DYCUCKOO_COUNTERS(MY_COUNTERS)
//   };
//
// gives, in list order:
//   - one `std::atomic<uint64_t> NAME{0};` member per entry, and nothing
//     else, so the list fixes the layout;
//   - `struct Snapshot` with one `uint64_t NAME = 0;` field per entry,
//     `operator-` (field-wise delta for before/after diffs), `operator+=`
//     (field-wise sum, for views over several blocks) and `ToString()`,
//     which prints `NAME=value` pairs separated by spaces;
//   - `Snapshot Capture() const` (relaxed loads: each field is exact, the
//     set is coherent only when writers are quiescent) and `void Reset()`.
//
// Real lists put one X(name) per line behind line continuations, so a
// counter's comment must be a /* */ comment: a // comment would swallow
// the continuation.

#ifndef DYCUCKOO_COMMON_COUNTERS_H_
#define DYCUCKOO_COMMON_COUNTERS_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace dycuckoo {

/// The member type of every counter block.
using Counter = std::atomic<uint64_t>;

}  // namespace dycuckoo

// Per-entry expansions.  Each argument follows an identifier, `#`, `.` or
// `->`, which clang-tidy's bugprone-macro-parentheses accepts unbraced
// (the reason for the Counter alias and the `this->`).
#define DYCUCKOO_COUNTER_MEMBER_(name) ::dycuckoo::Counter name{0};
#define DYCUCKOO_COUNTER_FIELD_(name) uint64_t name = 0;
#define DYCUCKOO_COUNTER_DIFF_(name) delta.name = this->name - rhs.name;
#define DYCUCKOO_COUNTER_SUM_(name) this->name += rhs.name;
#define DYCUCKOO_COUNTER_PRINT_(name)                 \
  text += text.empty() ? #name "=" : " " #name "="; \
  text += std::to_string(this->name);
#define DYCUCKOO_COUNTER_LOAD_(name) \
  snap.name = this->name.load(std::memory_order_relaxed);
#define DYCUCKOO_COUNTER_ZERO_(name) \
  this->name.store(0, std::memory_order_relaxed);

#define DYCUCKOO_COUNTERS(LIST)                     \
  LIST(DYCUCKOO_COUNTER_MEMBER_)                    \
  struct Snapshot {                                 \
    LIST(DYCUCKOO_COUNTER_FIELD_)                   \
    Snapshot operator-(const Snapshot& rhs) const { \
      Snapshot delta;                               \
      LIST(DYCUCKOO_COUNTER_DIFF_)                  \
      return delta;                                 \
    }                                               \
    Snapshot& operator+=(const Snapshot& rhs) {     \
      LIST(DYCUCKOO_COUNTER_SUM_)                   \
      return *this;                                 \
    }                                               \
    std::string ToString() const {                  \
      std::string text;                             \
      LIST(DYCUCKOO_COUNTER_PRINT_)                 \
      return text;                                  \
    }                                               \
  };                                                \
  Snapshot Capture() const {                        \
    Snapshot snap;                                  \
    LIST(DYCUCKOO_COUNTER_LOAD_)                    \
    return snap;                                    \
  }                                                 \
  void Reset() { LIST(DYCUCKOO_COUNTER_ZERO_) }

#endif  // DYCUCKOO_COMMON_COUNTERS_H_
