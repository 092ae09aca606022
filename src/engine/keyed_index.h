#ifndef MATRYOSHKA_ENGINE_KEYED_INDEX_H_
#define MATRYOSHKA_ENGINE_KEYED_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"

/// The one hash structure behind every keyed build of the engine:
/// BoundedAggregator (ReduceByKey's three builds, GroupByKey), both
/// Distinct passes and the CSR join build (join.h).
///
/// KeyedIndex maps a key to a dense SLOT, numbered 0, 1, 2, ... in the
/// order the keys first occur: exactly the canonical first-occurrence order
/// of the external-execution contract (DESIGN.md), so a caller that appends
/// each new key to its output emits that order with no extra bookkeeping.
/// The index stores no keys. Each key lives once, in the caller's own
/// slot-ordered storage, and lookups reach it through a `key_at(slot)`
/// callback.
///
/// Layout: a power-of-two array of 8-byte entries {32-bit hash tag, 32-bit
/// slot}, at most half full, probed linearly. The tag is the HIGH 32 bits
/// of the 64-bit Hasher value and the home position is the tag's top
/// log2(capacity) bits. The high bits matter: every key of one reduce-side
/// partition shares `Hasher{}(key) % parts` (shuffle.h PartitionOfKey), so
/// with 1,200 = 16 x 75 partitions the low 4 bits are constant within a
/// partition and a low-bits table would use 1/16 of its positions. Because
/// the position is a function of the tag, growth re-places the stored tags
/// without touching a key.
///
/// One index is used by one worker (no internal locking).
namespace matryoshka::engine {

class KeyedIndex {
 public:
  /// The slot of an empty entry, and of a probe that found nothing.
  static constexpr uint32_t kNone = ~uint32_t{0};

  /// Result of Find: the key's slot, or kNone and the free entry where
  /// Insert numbers the missing key.
  struct Probe {
    uint32_t slot;
    uint32_t tag;
    std::size_t pos;
    bool found() const { return slot != kNone; }
  };

  /// Keys numbered so far; the next Insert returns this slot.
  std::size_t size() const { return size_; }

  /// Sizes the table so `keys` keys fit without growth.
  void Reserve(std::size_t keys) {
    std::size_t cap = kMinCapacity;
    while (cap < 2 * keys && cap < kMaxCapacity) cap *= 2;
    if (cap > entries_.size()) Rebuild(cap);
  }

  /// Forgets every key and restarts slot numbering at 0; keeps the table.
  void Clear() {
    std::fill(entries_.begin(), entries_.end(), Entry{0, kNone});
    size_ = 0;
  }

  /// Looks `key` up. `key_at(slot)` returns the stored key of a slot; it is
  /// called only for entries whose tag matches, so equality decides only
  /// among 32-bit tag collisions.
  template <typename K, typename KeyAt>
  Probe Find(const K& key, const KeyAt& key_at) const {
    const auto tag = static_cast<uint32_t>(Hasher{}(key) >> 32);
    if (entries_.empty()) return {kNone, tag, 0};
    const std::size_t mask = entries_.size() - 1;
    for (std::size_t pos = Home(tag);; pos = (pos + 1) & mask) {
      const Entry& e = entries_[pos];
      if (e.slot == kNone) return {kNone, tag, pos};
      if (e.tag == tag && key_at(e.slot) == key) return {e.slot, tag, pos};
    }
  }

  /// Find over keys kept as a slot-ordered vector: slot s is keys[s].
  template <typename K>
  Probe Find(const K& key, const std::vector<K>& keys) const {
    return Find(key, [&keys](uint32_t s) -> decltype(auto) { return keys[s]; });
  }

  /// Numbers the key that `miss` (a Find that found nothing, with no Insert
  /// since) missed, and returns its slot: the index's size before the call.
  uint32_t Insert(const Probe& miss) {
    MATRYOSHKA_CHECK(size_ < kNone - 1)
        << "a keyed build exceeded 2^32 - 2 distinct keys";
    std::size_t pos = miss.pos;
    if (2 * (size_ + 1) > entries_.size() && entries_.size() < kMaxCapacity) {
      Rebuild(std::max(kMinCapacity, 2 * entries_.size()));
      pos = FreePos(miss.tag);
    }
    entries_[pos] = Entry{miss.tag, static_cast<uint32_t>(size_)};
    return static_cast<uint32_t>(size_++);
  }

 private:
  struct Entry {
    uint32_t tag;
    uint32_t slot;
  };

  static constexpr std::size_t kMinCapacity = 16;
  /// Positions come from the 32-bit tag, so the table stops doubling here.
  static constexpr std::size_t kMaxCapacity = std::size_t{1} << 32;

  std::size_t Home(uint32_t tag) const {
    return static_cast<std::size_t>(tag) >> shift_;
  }

  std::size_t FreePos(uint32_t tag) const {
    const std::size_t mask = entries_.size() - 1;
    std::size_t pos = Home(tag);
    while (entries_[pos].slot != kNone) pos = (pos + 1) & mask;
    return pos;
  }

  /// Moves every entry into a fresh table of `cap` (a power of two).
  void Rebuild(std::size_t cap) {
    std::vector<Entry> old(cap, Entry{0, kNone});
    old.swap(entries_);
    shift_ = 32;
    while ((std::size_t{1} << (32 - shift_)) < cap) --shift_;
    for (const Entry& e : old) {
      if (e.slot != kNone) entries_[FreePos(e.tag)] = e;
    }
  }

  std::vector<Entry> entries_;
  int shift_ = 32;  ///< 32 - log2(capacity)
  std::size_t size_ = 0;
};

/// Fills the empty `*out` with the distinct elements of `in`, in
/// first-occurrence order, and returns the index that numbers them: slot s
/// is (*out)[s].
template <typename T>
KeyedIndex DistinctInto(const std::vector<T>& in, std::vector<T>* out) {
  KeyedIndex index;
  index.Reserve(in.size());
  for (const T& x : in) {
    const KeyedIndex::Probe probe = index.Find(x, *out);
    if (probe.found()) continue;
    index.Insert(probe);
    out->push_back(x);
  }
  return index;
}

}  // namespace matryoshka::engine

#endif  // MATRYOSHKA_ENGINE_KEYED_INDEX_H_
