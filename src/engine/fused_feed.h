#ifndef MATRYOSHKA_ENGINE_FUSED_FEED_H_
#define MATRYOSHKA_ENGINE_FUSED_FEED_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "engine/bag.h"

/// Static (expression-template) representation of a pending fused chain.
///
/// Composing Map/Filter/FlatMap/MapValues/FlatMapValues/ZipWithUniqueId
/// builds a concrete `MapFeed<F, FilterFeed<P, SourceFeed<T>>>`-style value
/// whose `Drive` is one monomorphic loop the compiler can fully inline — no
/// virtual or indirect calls in the hot path.
///
/// Type erasure happens exactly once, at the chain boundary: every chain is
/// wrapped into a `Run` closure that `Force()` calls per partition and into
/// the erased `Feed` a downstream chain roots at when it only sees a
/// `Bag<T>`, so `Bag<T>`'s public surface and `PendingState` stay
/// non-templated on the chain. The typed chain itself travels on the side
/// in a `FusedBag<Chain>` subclass handle; slicing a `FusedBag` back to
/// `Bag<T>` (crossing an opaque API boundary) costs one erased hop, never a
/// wrong answer. See DESIGN.md, "The fusion contract".
namespace matryoshka::engine::internal {

/// Chain root: streams the upstream bag's elements. Holds EITHER the
/// materialized partitions (zero indirection) OR the upstream's erased
/// pending feed (one erased hop — the cost of composing across a `Bag<T>`
/// boundary that hid the upstream's concrete chain type).
template <typename T>
struct SourceFeed {
  using Out = T;

  std::shared_ptr<const typename Bag<T>::Partitions> parts;
  typename Bag<T>::Feed feed;

  template <typename Sink>
  void Drive(std::size_t p, Sink&& sink) const {
    if (parts != nullptr) {
      for (const T& x : (*parts)[p]) sink(x);
    } else {
      const typename Bag<T>::Sink emit = [&sink](T&& x) {
        sink(std::move(x));
      };
      feed(p, emit);
    }
  }
};

/// Map: f applied to every element.
template <typename F, typename Up>
struct MapFeed {
  using Out = std::decay_t<decltype(std::declval<const F&>()(
      std::declval<const typename Up::Out&>()))>;

  Up up;
  F f;

  template <typename Sink>
  void Drive(std::size_t p, Sink&& sink) const {
    up.Drive(p, [this, &sink](auto&& x) { sink(f(x)); });
  }
};

/// Filter: keeps elements passing pred. Materializes the kept element
/// (copying from a materialized upstream, moving a chain temporary) so
/// downstream stages always see an owned value.
template <typename P, typename Up>
struct FilterFeed {
  using Out = typename Up::Out;

  Up up;
  P pred;

  template <typename Sink>
  void Drive(std::size_t p, Sink&& sink) const {
    up.Drive(p, [this, &sink](auto&& x) {
      if (pred(x)) sink(Out(std::forward<decltype(x)>(x)));
    });
  }
};

/// FlatMap: concatenates the iterables produced per element.
template <typename F, typename Up>
struct FlatMapFeed {
  using Out = std::decay_t<decltype(*std::begin(std::declval<const F&>()(
      std::declval<const typename Up::Out&>())))>;

  Up up;
  F f;

  template <typename Sink>
  void Drive(std::size_t p, Sink&& sink) const {
    up.Drive(p, [this, &sink](auto&& x) {
      for (auto&& y : f(x)) sink(std::move(y));
    });
  }
};

/// MapValues: f on the value of every pair, key unchanged. The value is
/// forwarded into `f`, so a chain temporary's heap payload moves through a
/// by-value parameter instead of reallocating (same bytes out either way —
/// this is a wall-clock distinction only, invisible to bit-identity).
template <typename F, typename Up>
struct MapValuesFeed {
  using K = typename Up::Out::first_type;
  using V = typename Up::Out::second_type;
  using Out = std::pair<K, std::decay_t<decltype(std::declval<const F&>()(
                               std::declval<const V&>()))>>;

  Up up;
  F f;

  template <typename Sink>
  void Drive(std::size_t p, Sink&& sink) const {
    up.Drive(p, [this, &sink](auto&& kv) {
      sink(Out(std::forward<decltype(kv)>(kv).first,
               f(std::forward<decltype(kv)>(kv).second)));
    });
  }
};

/// FlatMapValues: one output pair per produced value, same key.
template <typename F, typename Up>
struct FlatMapValuesFeed {
  using K = typename Up::Out::first_type;
  using V = typename Up::Out::second_type;
  using Out = std::pair<K, std::decay_t<decltype(*std::begin(
                               std::declval<const F&>()(
                                   std::declval<const V&>())))>>;

  Up up;
  F f;

  template <typename Sink>
  void Drive(std::size_t p, Sink&& sink) const {
    up.Drive(p, [this, &sink](auto&& kv) {
      for (auto&& w : f(kv.second)) sink(Out(kv.first, std::move(w)));
    });
  }
};

/// ZipWithUniqueId: ids from the stream offset, which equals the
/// materialized offset because only size-preserving chains reach this op
/// unforced (ForceBoundary in ops.h forces the others).
template <typename Up>
struct ZipUniqueIdFeed {
  using Out = std::pair<uint64_t, typename Up::Out>;

  Up up;
  uint64_t stride;

  template <typename Sink>
  void Drive(std::size_t p, Sink&& sink) const {
    uint64_t j = 0;
    up.Drive(p, [this, &sink, &j, p](auto&& x) {
      sink(Out(j++ * stride + p, std::forward<decltype(x)>(x)));
    });
  }
};

/// Roots a fresh chain at `bag`: at the materialized partitions when the
/// bag is (or can freely become) materialized, at its erased pending feed
/// otherwise. When a sibling handle already forced the shared chain state,
/// flip this handle to the memoized partitions instead of re-running the
/// pending chain through its feed.
template <typename T>
SourceFeed<T> MakeSourceFeed(const Bag<T>& bag) {
  SourceFeed<T> src;
  if (bag.pending_materialized()) bag.Force();
  if (bag.pending()) {
    src.feed = bag.pending_feed();
  } else {
    src.parts = bag.shared_partitions();
  }
  return src;
}

/// The single type-erasure boundary: wraps one shared concrete chain into
/// the erased `Feed` (for `Bag<T>`-only consumers composing downstream) and
/// the `Run` closure `Force()` drives — the latter pushes straight into the
/// output vector, so a force costs zero per-element indirect calls.
template <typename Chain>
void EraseChain(const std::shared_ptr<const Chain>& chain,
                typename Bag<typename Chain::Out>::Feed* feed,
                typename Bag<typename Chain::Out>::Run* run) {
  using Out = typename Chain::Out;
  *feed = [chain](std::size_t p, const typename Bag<Out>::Sink& emit) {
    chain->Drive(p, [&emit](auto&& x) {
      emit(Out(std::forward<decltype(x)>(x)));
    });
  };
  *run = [chain](std::size_t p, std::vector<Out>& dst) {
    chain->Drive(p, [&dst](auto&& x) {
      dst.push_back(std::forward<decltype(x)>(x));
    });
  };
}

/// A Bag handle that additionally carries its pending chain's concrete
/// type, letting the next narrow op extend the chain without erasure. The
/// chain pointer is null when the op could not extend `Chain` and re-rooted
/// instead (its pending chain then starts at the re-rooted input, so it is
/// not a `Chain`), after a plain Bag was assigned, or when the cluster had
/// failed; everything still works through the erased base state then.
/// Slicing to `Bag<T>` is always safe: the base carries the erased feed and
/// the Force run path.
template <typename Chain>
class FusedBag : public Bag<typename Chain::Out> {
 public:
  using Element = typename Chain::Out;

  FusedBag(Bag<Element> base, std::shared_ptr<const Chain> chain)
      : Bag<Element>(std::move(base)), chain_(std::move(chain)) {}

  /// `auto`-held chain handles get reassigned across loop iterations
  /// (`labels = NextRound(labels)` where the right side is an opaque Bag).
  /// Accepting any Bag of the element type keeps those call sites working:
  /// the concrete chain is dropped, so the next narrow op simply re-roots
  /// at the assigned bag's state. (Same-type FusedBag assignment still uses
  /// the implicit copy/move operators, which keep the chain.)
  FusedBag& operator=(Bag<Element> base) {
    Bag<Element>::operator=(std::move(base));
    chain_.reset();
    return *this;
  }

  /// The concrete chain; null when this handle has no extendable chain.
  const std::shared_ptr<const Chain>& chain() const { return chain_; }

 private:
  std::shared_ptr<const Chain> chain_;
};

}  // namespace matryoshka::engine::internal

#endif  // MATRYOSHKA_ENGINE_FUSED_FEED_H_
