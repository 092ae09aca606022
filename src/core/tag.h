#ifndef MATRYOSHKA_CORE_TAG_H_
#define MATRYOSHKA_CORE_TAG_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>

#include "common/hash.h"
#include "common/logging.h"
#include "common/sizing.h"

namespace matryoshka::core {

/// Identifier of one invocation of an original (unlifted) UDF.
///
/// Every element of the flat bag representing an InnerScalar or InnerBag
/// carries a Tag saying which inner computation it belongs to (Sec. 4.3-4.4
/// of the paper). For programs with more than two levels of parallelism the
/// tag is *composite*: one component per surrounding lifted UDF (Sec. 7,
/// "lifting tags for three or more levels are composed of one lifting tag
/// for each outer level"). A depth-1 tag identifies an invocation at the
/// second level and a depth-2 tag one at the third, the deepest level
/// supported (AvgDistances's three levels of parallelism need no more).
///
/// Every lifted element carries one, so a tag is two 64-bit words: the root
/// id in full, and a word packing the child id (62 bits, 0 below depth 2)
/// over the depth in its 2 low bits. Unused ids are zero, so equality is
/// bitwise. Tags are trivially copyable, hashable and totally ordered, so
/// they shuffle, spill and serve as composite join keys cheaply.
class Tag {
 public:
  static constexpr uint32_t kMaxDepth = 2;
  /// Width of a child id (the id at level 1).
  static constexpr uint32_t kChildIdBits = 62;

  Tag() = default;

  /// A depth-1 tag for top-level lifted UDF invocation `id`.
  static Tag Root(uint64_t id) { return Tag(id, 1); }

  /// Derives the tag of an invocation nested inside this one. Below the
  /// root, `id` must fit in kChildIdBits.
  Tag Child(uint64_t id) const {
    MATRYOSHKA_CHECK(depth() < kMaxDepth) << "tag nesting deeper than "
                                          << kMaxDepth << " levels";
    if (depth() == 0) return Root(id);
    MATRYOSHKA_CHECK(id >> kChildIdBits == 0)
        << "child tag id " << id << " wider than " << kChildIdBits << " bits";
    return Tag(root_, (id << kDepthBits) | (depth() + 1));
  }

  /// The tag of the enclosing invocation (depth reduced by one).
  Tag Parent() const {
    MATRYOSHKA_CHECK(depth() > 0);
    return depth() == 1 ? Tag() : Root(root_);
  }

  uint32_t depth() const {
    return static_cast<uint32_t>(child_depth_ & kDepthMask);
  }
  uint64_t id_at(uint32_t level) const {
    MATRYOSHKA_DCHECK(level < depth());
    return level == 0 ? root_ : child_depth_ >> kDepthBits;
  }

  friend bool operator==(const Tag& a, const Tag& b) {
    return a.root_ == b.root_ && a.child_depth_ == b.child_depth_;
  }
  friend bool operator!=(const Tag& a, const Tag& b) { return !(a == b); }
  /// Depth first, then the ids level by level.
  friend bool operator<(const Tag& a, const Tag& b) {
    if (a.depth() != b.depth()) return a.depth() < b.depth();
    if (a.root_ != b.root_) return a.root_ < b.root_;
    return a.child_depth_ < b.child_depth_;
  }

  /// Seeded with the depth, then one HashCombine per id: partition
  /// assignment, and with it the simulated clock, depends on this value.
  std::size_t HashValue() const {
    const uint32_t d = depth();
    std::size_t seed = d;
    if (d > 0) seed = HashCombine(seed, root_);
    if (d > 1) seed = HashCombine(seed, child_depth_ >> kDepthBits);
    return seed;
  }

  std::string ToString() const {
    std::string s = "[";
    for (uint32_t i = 0; i < depth(); ++i) {
      if (i > 0) s += ".";
      s += std::to_string(id_at(i));
    }
    s += "]";
    return s;
  }

 private:
  static constexpr uint32_t kDepthBits = 64 - kChildIdBits;
  static constexpr uint64_t kDepthMask = (uint64_t{1} << kDepthBits) - 1;

  Tag(uint64_t root, uint64_t child_depth)
      : root_(root), child_depth_(child_depth) {}

  uint64_t root_ = 0;
  uint64_t child_depth_ = 0;  // (child id << kDepthBits) | depth
};

// Every lifted element is a pair<Tag, E>: scatters, keyed builds and joins
// move these bytes, and the spill serde copies them raw into runs and their
// checksums, so a padding byte would be spilled and hashed.
static_assert(sizeof(Tag) == 16);
static_assert(std::is_trivially_copyable_v<Tag>);
static_assert(std::has_unique_object_representations_v<Tag>);

}  // namespace matryoshka::core

namespace matryoshka::sizing_internal {
// On the wire a tag is one 64-bit id per level; the simulated clock charges
// that serialized form, not the two in-memory words.
template <>
struct Sizer<core::Tag> {
  static std::size_t Of(const core::Tag& t) {
    return sizeof(uint64_t) * std::max<uint32_t>(1, t.depth());
  }
};
}  // namespace matryoshka::sizing_internal

namespace std {
template <>
struct hash<matryoshka::core::Tag> {
  std::size_t operator()(const matryoshka::core::Tag& t) const {
    return t.HashValue();
  }
};
}  // namespace std

#endif  // MATRYOSHKA_CORE_TAG_H_
