#ifndef MATRYOSHKA_SERVE_PLAN_H_
#define MATRYOSHKA_SERVE_PLAN_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "engine/bag.h"
#include "engine/cluster.h"
#include "engine/ops.h"
#include "lang/value.h"

/// Shared vocabulary of the serving layer (registry.h, serving_driver.h):
/// what a registered plan takes (PlanParams) and what it returns
/// (PlanOutput). Both are deliberately dynamic — lang::Value rows — so one
/// registry holds typed src/core plans (converted through CollectOutput)
/// and src/lang programs side by side, and the memo cache and the
/// bit-identity tests compare every plan's output the same way.
namespace matryoshka::serve {

/// Parameters of one serving request: an ordered (name -> Value) map. The
/// ordering makes Fingerprint() independent of insertion order, so two
/// requests with the same bindings share a memo-cache slot no matter how
/// the caller built them.
class PlanParams {
 public:
  PlanParams() = default;

  PlanParams& Set(const std::string& key, lang::Value value) {
    kv_[key] = std::move(value);
    return *this;
  }

  const lang::Value* Find(const std::string& key) const {
    auto it = kv_.find(key);
    return it == kv_.end() ? nullptr : &it->second;
  }

  int64_t GetInt(const std::string& key, int64_t fallback) const {
    const lang::Value* v = Find(key);
    return v != nullptr && v->is_int() ? v->AsInt() : fallback;
  }

  std::string GetString(const std::string& key, std::string fallback) const {
    const lang::Value* v = Find(key);
    return v != nullptr && v->is_string() ? v->AsString()
                                          : std::move(fallback);
  }

  bool empty() const { return kv_.empty(); }
  std::size_t size() const { return kv_.size(); }
  const std::map<std::string, lang::Value>& entries() const { return kv_; }

  /// Order-independent content fingerprint (the params leg of the memo
  /// cache key). Folds (key, value-hash) pairs in the map's sorted order.
  uint64_t Fingerprint() const {
    uint64_t fp = 0x706172616d730ULL;  // "params"
    for (const auto& [key, value] : kv_) {
      fp = Mix64(fp ^ Mix64(std::hash<std::string>{}(key)));
      fp = Mix64(fp ^ static_cast<uint64_t>(value.HashValue()));
    }
    return fp;
  }

  /// "{a=1, b=\"x\"}" — for error messages and run names.
  std::string ToString() const {
    std::string out = "{";
    bool first = true;
    for (const auto& [key, value] : kv_) {
      if (!first) out += ", ";
      first = false;
      out += key;
      out += "=";
      out += value.ToString();
    }
    out += "}";
    return out;
  }

 private:
  std::map<std::string, lang::Value> kv_;
};

/// A plan's result: partitioned rows plus the partitioner metadata, i.e.
/// exactly the payload the serving determinism contract compares (data,
/// order, key_partitions). Comparable and cacheable.
struct PlanOutput {
  std::vector<std::vector<lang::Value>> partitions;
  int64_t key_partitions = 0;

  int64_t NumRows() const {
    int64_t n = 0;
    for (const auto& p : partitions) n += static_cast<int64_t>(p.size());
    return n;
  }

  friend bool operator==(const PlanOutput& a, const PlanOutput& b) {
    return a.key_partitions == b.key_partitions &&
           a.partitions == b.partitions;
  }
  friend bool operator!=(const PlanOutput& a, const PlanOutput& b) {
    return !(a == b);
  }
};

namespace internal {

/// Row conversion from the typed engine world into serving rows. Pairs
/// become 2-tuples so keyed results keep their shape.
inline lang::Value ToValue(int64_t x) { return lang::Value(x); }
inline lang::Value ToValue(double x) { return lang::Value(x); }
inline lang::Value ToValue(bool x) { return lang::Value(x); }
inline lang::Value ToValue(std::string x) {
  return lang::Value(std::move(x));
}
inline lang::Value ToValue(lang::Value x) { return x; }
template <typename A, typename B>
lang::Value ToValue(const std::pair<A, B>& p) {
  return lang::Value::MakeTuple({ToValue(p.first), ToValue(p.second)});
}

}  // namespace internal

/// Terminates a plan body: charges a collect action (job launch + scan +
/// network to the driver, exactly like engine::Collect) and snapshots the
/// bag per partition into a PlanOutput. The per-partition layout — not
/// Collect's flattened vector — is what lets the determinism suite compare
/// order within partitions and the partitioner metadata.
template <typename T>
PlanOutput CollectOutput(const engine::Bag<T>& bag,
                         const char* label = "serve-collect") {
  engine::Cluster* c = bag.cluster();
  PlanOutput out;
  if (!c->ok()) return out;
  bag.Force();
  c->BeginJob(label);
  engine::internal::ChargeScanStage(bag, 0.25, label);
  const double bytes = engine::RealBagBytes(bag);
  if (bytes > c->config().memory_per_machine_bytes) {
    c->Fail(Status::OutOfMemory(
        std::string(label) + ": result does not fit on the driver"));
    return out;
  }
  c->AccrueCollect(bytes, label);
  if (!c->ok()) return out;
  out.key_partitions = bag.key_partitions();
  const auto& parts = bag.partitions();
  out.partitions.reserve(parts.size());
  for (const auto& part : parts) {
    std::vector<lang::Value> rows;
    rows.reserve(part.size());
    for (const auto& x : part) rows.push_back(internal::ToValue(x));
    out.partitions.push_back(std::move(rows));
  }
  return out;
}

}  // namespace matryoshka::serve

#endif  // MATRYOSHKA_SERVE_PLAN_H_
