#ifndef MATRYOSHKA_ENGINE_PARALLEL_SHUFFLE_H_
#define MATRYOSHKA_ENGINE_PARALLEL_SHUFFLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "common/thread_pool.h"

/// The deterministic parallel shuffle kernel: every wide operator's data
/// movement (Repartition, PartitionByKey, the ReduceByKey / Distinct
/// reduce-side scatters, both join sides) funnels through ParallelScatter
/// below.
///
/// Determinism contract (locked by engine_parallel_determinism_test):
/// the output is BIT-IDENTICAL — contents and element order per partition —
/// to the reference sequential scatter loop
///
///   for (p in input partition order)
///     for (x in inputs[p] in element order)
///       out[part_of(x)].push_back(x)
///
/// for every pool size, including no pool at all. The kernel achieves this
/// with the two-phase partitioned layout of cache-conscious radix join /
/// sort-shuffle writers:
///
///  Phase 1 (parallel across input partitions / "producers"): each producer
///  scans its elements once to count per-bucket occupancy (the counting
///  pre-pass), prefix-sums the counts into bucket offsets, and writes its
///  elements grouped by destination bucket into one contiguous scratch
///  vector — one exact reservation per producer, no push_back growth, and
///  element order within each (producer, bucket) pair is input order.
///
///  Phase 2 (parallel across output partitions): each output partition
///  reserves its exact total size and concatenates the producers' buckets
///  for it in ascending producer order, moving elements out of the scratch.
///
/// Since phase 2 concatenates in producer order and phase 1 preserves
/// element order within a bucket, the result equals the sequential loop's
/// regardless of which thread ran what when.
namespace matryoshka::engine::internal {

/// Redistributes `inputs` into `num_parts` buckets by `part_of(element)`
/// (which must be pure and return a value in [0, num_parts)). Elements are
/// copied out of `inputs`; T must be default-constructible (scratch storage)
/// — true of every bag element type the engine shuffles.
template <typename T, typename PartOf>
std::vector<std::vector<T>> ParallelScatter(
    ThreadPool* pool, const std::vector<std::vector<T>>& inputs,
    std::size_t num_parts, const PartOf& part_of) {
  std::vector<std::vector<T>> out(num_parts);
  const std::size_t producers = inputs.size();
  if (producers == 0 || num_parts == 0) return out;

  if (pool == nullptr || pool->num_threads() < 2) {
    // Single-threaded fast path (also taken when the pool cannot provide
    // two concurrent workers, where the two-phase layout's extra copy can
    // never pay for itself): same counting pre-pass (destinations are
    // hashed once and remembered), exact reservation of every output
    // partition, then ONE copy pass straight into the outputs — strictly
    // less work than the two-phase layout, identical results by the same
    // ordering argument (producers ascending, element order within).
    std::vector<std::vector<uint32_t>> dests(producers);
    std::vector<std::size_t> counts(num_parts, 0);
    for (std::size_t p = 0; p < producers; ++p) {
      const std::vector<T>& in = inputs[p];
      std::vector<uint32_t>& dest = dests[p];
      dest.resize(in.size());
      for (std::size_t j = 0; j < in.size(); ++j) {
        dest[j] = static_cast<uint32_t>(part_of(in[j]));
        ++counts[dest[j]];
      }
    }
    for (std::size_t b = 0; b < num_parts; ++b) out[b].reserve(counts[b]);
    for (std::size_t p = 0; p < producers; ++p) {
      const std::vector<T>& in = inputs[p];
      const std::vector<uint32_t>& dest = dests[p];
      for (std::size_t j = 0; j < in.size(); ++j) {
        out[dest[j]].push_back(in[j]);
      }
    }
    return out;
  }

  // Phase 1: per-producer counting pre-pass + bucket-grouped scatter into
  // contiguous scratch. offsets[p][b] .. offsets[p][b+1] is producer p's
  // bucket b inside scratch[p].
  std::vector<std::vector<std::size_t>> offsets(producers);
  std::vector<std::vector<T>> scratch(producers);
  std::vector<std::vector<uint32_t>> dests(producers);
  ParallelFor(pool, producers, [&](std::size_t p) {
    const std::vector<T>& in = inputs[p];
    std::vector<uint32_t>& dest = dests[p];
    dest.resize(in.size());
    std::vector<std::size_t>& off = offsets[p];
    off.assign(num_parts + 1, 0);
    for (std::size_t j = 0; j < in.size(); ++j) {
      dest[j] = static_cast<uint32_t>(part_of(in[j]));
      ++off[dest[j] + 1];
    }
    for (std::size_t b = 1; b <= num_parts; ++b) off[b] += off[b - 1];
    std::vector<std::size_t> cursor(off.begin(), off.end() - 1);
    std::vector<T>& sc = scratch[p];
    sc.resize(in.size());
    for (std::size_t j = 0; j < in.size(); ++j) {
      sc[cursor[dest[j]]++] = in[j];
    }
  });

  // Phase 2: exact-reserve + concatenate in producer order. Distinct output
  // partitions touch disjoint scratch ranges, so moving elements out is safe
  // across concurrent phase-2 tasks.
  ParallelFor(pool, num_parts, [&](std::size_t b) {
    std::size_t total = 0;
    for (std::size_t p = 0; p < producers; ++p) {
      total += offsets[p][b + 1] - offsets[p][b];
    }
    std::vector<T>& dst = out[b];
    dst.reserve(total);
    for (std::size_t p = 0; p < producers; ++p) {
      auto begin = scratch[p].begin() +
                   static_cast<std::ptrdiff_t>(offsets[p][b]);
      auto end = scratch[p].begin() +
                 static_cast<std::ptrdiff_t>(offsets[p][b + 1]);
      dst.insert(dst.end(), std::make_move_iterator(begin),
                 std::make_move_iterator(end));
    }
  });
  return out;
}

}  // namespace matryoshka::engine::internal

#endif  // MATRYOSHKA_ENGINE_PARALLEL_SHUFFLE_H_
