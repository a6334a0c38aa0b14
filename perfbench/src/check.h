// Output checks: what the benchmark compares the program's answers to.
//
//  - PairSet: every (key, value) pair some insert wrote; a find hit must
//    return one of them.
//  - CheckFinds: one BulkFind's hit flags and values against the
//    expectation the benchmark derived from its own inputs.
//  - WriteLedger: the serving workloads' record of every upsert (value =
//    write sequence number) and the step that acknowledged it, which
//    decides whether a find's value was written by an acked upsert or one
//    still in flight, and what a recovered deployment must hold.

#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace perfbench {

/// Open-addressing set of (key, value) pairs packed into 64 bits.  The
/// table's reserved empty key (all ones) never appears in a real pair, so
/// the all-ones word marks an empty slot.
class PairSet {
 public:
  void Reserve(uint64_t n) {
    uint64_t cap = 16;
    while (cap < 2 * n) cap <<= 1;
    slots_.assign(cap, kEmpty);
    mask_ = cap - 1;
    size_ = 0;
  }

  void Insert(uint32_t key, uint32_t value) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    const uint64_t w = Pack(key, value);
    for (uint64_t i = Hash(w) & mask_;; i = (i + 1) & mask_) {
      if (slots_[i] == w) return;
      if (slots_[i] == kEmpty) {
        slots_[i] = w;
        ++size_;
        return;
      }
    }
  }

  bool Contains(uint32_t key, uint32_t value) const {
    if (slots_.empty()) return false;
    const uint64_t w = Pack(key, value);
    for (uint64_t i = Hash(w) & mask_;; i = (i + 1) & mask_) {
      if (slots_[i] == w) return true;
      if (slots_[i] == kEmpty) return false;
    }
  }

  uint64_t size() const { return size_; }

 private:
  static constexpr uint64_t kEmpty = std::numeric_limits<uint64_t>::max();
  static uint64_t Pack(uint32_t k, uint32_t v) {
    return (static_cast<uint64_t>(k) << 32) | v;
  }
  static uint64_t Hash(uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return x;
  }
  void Grow() {
    std::vector<uint64_t> old = std::move(slots_);
    Reserve(old.empty() ? 8 : old.size());
    for (uint64_t w : old) {
      if (w != kEmpty) Insert(static_cast<uint32_t>(w >> 32),
                              static_cast<uint32_t>(w));
    }
  }

  std::vector<uint64_t> slots_;
  uint64_t mask_ = 0;
  uint64_t size_ = 0;
};

/// Open-addressing map from a key to its dense index in the benchmark's
/// key list (keys must be distinct and never all ones).
class KeyIndex {
 public:
  static constexpr uint32_t kMissing = std::numeric_limits<uint32_t>::max();

  explicit KeyIndex(const std::vector<uint32_t>& keys) {
    uint64_t cap = 16;
    while (cap < 2 * keys.size()) cap <<= 1;
    keys_.assign(cap, kMissing);
    ids_.assign(cap, kMissing);
    mask_ = cap - 1;
    for (uint32_t i = 0; i < keys.size(); ++i) {
      uint64_t s = Hash(keys[i]) & mask_;
      while (keys_[s] != kMissing && keys_[s] != keys[i]) s = (s + 1) & mask_;
      keys_[s] = keys[i];
      ids_[s] = i;
    }
  }

  /// Index of `key`, or kMissing.
  uint32_t Find(uint32_t key) const {
    for (uint64_t s = Hash(key) & mask_;; s = (s + 1) & mask_) {
      if (keys_[s] == key) return ids_[s];
      if (keys_[s] == kMissing) return kMissing;
    }
  }

 private:
  static uint64_t Hash(uint32_t k) {
    return (static_cast<uint64_t>(k) * 0x9E3779B97F4A7C15ULL) >> 17;
  }

  std::vector<uint32_t> keys_;
  std::vector<uint32_t> ids_;
  uint64_t mask_ = 0;
};

/// Counts the finds of one batch whose outcome is wrong: the hit flag
/// differs from `expected`, or a hit returned a value no insert of that
/// key wrote.
inline uint64_t CheckFinds(const uint32_t* keys, const uint8_t* found,
                           const uint32_t* values, const uint8_t* expected,
                           uint64_t n, const PairSet& written) {
  uint64_t bad = 0;
  for (uint64_t i = 0; i < n; ++i) {
    const bool hit = found[i] != 0;
    if (hit != (expected[i] != 0)) {
      ++bad;
    } else if (hit && !written.Contains(keys[i], values[i])) {
      ++bad;
    }
  }
  return bad;
}

/// Every upsert the serving workloads issue writes a fresh sequence number
/// as its value; the ledger maps it back to its key and acknowledging step.
class WriteLedger {
 public:
  static constexpr uint32_t kNotAcked = std::numeric_limits<uint32_t>::max();
  static constexpr uint32_t kNever = std::numeric_limits<uint32_t>::max();

  explicit WriteLedger(uint32_t num_keys) : latest_ack_step_(num_keys, kNever) {}

  /// Registers an upsert of key `idx`; returns the value it writes.
  uint32_t NewWrite(uint32_t idx) {
    key_of_.push_back(idx);
    ack_step_.push_back(kNotAcked);
    return static_cast<uint32_t>(key_of_.size() - 1);
  }

  /// The upsert that wrote `value` was acknowledged after step `step`.
  void Ack(uint32_t value, uint32_t step) {
    ack_step_[value] = step;
    uint32_t& latest = latest_ack_step_[key_of_[value]];
    if (latest == kNever || step > latest) latest = step;
  }

  /// Step of the latest acknowledged upsert of `idx` (kNever if none).
  uint32_t latest_ack_step(uint32_t idx) const { return latest_ack_step_[idx]; }

  /// Whether a find of key `idx` may return `value`.  The find was
  /// submitted after `submit_step` steps, when the latest acked upsert of
  /// the key had been acked at `latest_at_submit`.  Valid values were
  /// written to this key by an upsert that was either still in flight at
  /// some point during the find (not acked by submit time) or among the
  /// upserts acked in that latest step (one micro-batch may ack several
  /// upserts of one key; which one lands is racy by contract).
  bool FindValueValid(uint32_t idx, uint32_t value, uint32_t submit_step,
                      uint32_t latest_at_submit) const {
    if (value >= key_of_.size() || key_of_[value] != idx) return false;
    const uint32_t acked = ack_step_[value];
    if (acked == kNotAcked || acked > submit_step) return true;
    return acked == latest_at_submit;
  }

  /// Whether a deployment recovered with nothing in flight may hold
  /// `value` for key `idx`: one of the upserts acked in its latest step.
  bool DurableValueValid(uint32_t idx, uint32_t value) const {
    if (value >= key_of_.size() || key_of_[value] != idx) return false;
    return ack_step_[value] != kNotAcked &&
           ack_step_[value] == latest_ack_step_[idx];
  }

  uint64_t writes() const { return key_of_.size(); }

 private:
  std::vector<uint32_t> key_of_;
  std::vector<uint32_t> ack_step_;
  std::vector<uint32_t> latest_ack_step_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
