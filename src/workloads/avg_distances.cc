#include "workloads/avg_distances.h"

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "baselines/baselines.h"
#include "core/matryoshka.h"
#include "engine/join.h"
#include "engine/ops.h"
#include "engine/shuffle.h"
#include "workloads/connected_components.h"

namespace matryoshka::workloads {

namespace {

using datagen::Edge;
using engine::Bag;
using engine::Cluster;
using Vertex = int64_t;

/// BFS distances from `start` over an adjacency map; returns the sum of
/// distances to every reachable vertex.
int64_t BfsDistanceSum(
    const std::unordered_map<Vertex, std::vector<Vertex>>& adj, Vertex start) {
  std::unordered_map<Vertex, int64_t> dist;
  dist[start] = 0;
  std::deque<Vertex> queue{start};
  int64_t sum = 0;
  while (!queue.empty()) {
    Vertex v = queue.front();
    queue.pop_front();
    auto it = adj.find(v);
    if (it == adj.end()) continue;
    for (Vertex w : it->second) {
      if (dist.emplace(w, dist[v] + 1).second) {
        sum += dist[w];
        queue.push_back(w);
      }
    }
  }
  return sum;
}

std::unordered_map<Vertex, std::vector<Vertex>> BuildAdjacency(
    const std::vector<Edge>& edges) {
  std::unordered_map<Vertex, std::vector<Vertex>> adj;
  for (const Edge& e : edges) adj[e.src].push_back(e.dst);
  return adj;
}

/// Number of BFS settles a sequential all-pairs run performs (for the
/// outer-parallel cost model): one pass over the edge list per BFS.
int64_t AllPairsCostElements(const std::vector<Edge>& edges) {
  std::unordered_set<Vertex> verts;
  for (const Edge& e : edges) {
    verts.insert(e.src);
    verts.insert(e.dst);
  }
  return static_cast<int64_t>(verts.size()) *
         static_cast<int64_t>(edges.size());
}

}  // namespace

double SequentialAvgDistance(const std::vector<Edge>& edges) {
  auto adj = BuildAdjacency(edges);
  std::unordered_set<Vertex> verts;
  for (const Edge& e : edges) {
    verts.insert(e.src);
    verts.insert(e.dst);
  }
  const int64_t n = static_cast<int64_t>(verts.size());
  if (n <= 1) return 0.0;
  int64_t total = 0;
  for (Vertex v : verts) total += BfsDistanceSum(adj, v);
  return static_cast<double>(total) / static_cast<double>(n * (n - 1));
}

AvgDistancesResult AvgDistancesMatryoshka(Cluster* cluster,
                                          const Bag<Edge>& edges,
                                          const AvgDistancesParams& params,
                                          core::OptimizerOptions options) {
  using core::InnerBag;
  using core::InnerScalar;

  // Level 1: components, via the flat library function, then grouped into
  // the nested representation.
  auto comps = ConnectedComponents(edges);
  auto edges_by_comp = EdgesByComponent(edges, comps);
  auto nested = core::GroupByKeyIntoNestedBag(edges_by_comp, options);

  auto avg = core::MapWithLiftedUdf(nested, [&](const core::LiftingContext&
                                                    ctx,
                                                const InnerScalar<int64_t>&,
                                                const InnerBag<Edge>& es) {
    // Component vertex sets (level-1 tags) and per-source adjacency.
    auto vertices = core::LiftedDistinct(
        core::LiftedFlatMap(es, [](const Edge& e) {
          return std::vector<Vertex>{e.src, e.dst};
        }));
    auto edges_by_src = core::LiftedMap(es, [](const Edge& e) {
      return std::pair<Vertex, Vertex>(e.src, e.dst);
    });
    // Every BFS step of every instance probes the component's edges:
    // rekey + partition them once.
    auto edges_static = core::MakeStaticJoinSide(edges_by_src);

    // Level 2: one BFS instance per vertex — each vertex of each component
    // becomes its own child-tagged invocation.
    InnerScalar<Vertex> starts = core::LiftElements(vertices);

    // BFS state at level 2: the visited set with distances; the frontier at
    // iteration i is exactly the vertices discovered at distance i.
    auto visited0 = core::LiftedMap(
        core::InnerBag<Vertex>(starts.ctx(), starts.repr()),
        [](Vertex v) {
          return std::pair<Vertex, int64_t>(v, 0);
        });

    auto final_visited = core::LiftedWhile(
        visited0,
        [&](const core::LiftingContext& loop_ctx,
            const InnerBag<std::pair<Vertex, int64_t>>& visited,
            int64_t iter) {
          // Level 3 (parallel frontier expansion): expand the frontier
          // through the component's edges — a join across nesting levels
          // on the parent (component) tag.
          auto frontier = core::LiftedFilter(
              visited, [iter](const std::pair<Vertex, int64_t>& p) {
                return p.second == iter;
              });
          auto expanded = core::LiftedJoinWithParentStatic(
              core::LiftedMap(frontier,
                              [](const std::pair<Vertex, int64_t>& p) {
                                return std::pair<Vertex, char>(p.first, 0);
                              }),
              edges_static);
          auto candidates = core::LiftedReduceByKey(
              core::LiftedMap(
                  expanded,
                  [iter](const std::pair<Vertex,
                                         std::pair<char, Vertex>>& p) {
                    return std::pair<Vertex, int64_t>(p.second.second,
                                                      iter + 1);
                  }),
              [](int64_t a, int64_t) { return a; });  // dedup per instance
          // Keep only candidates not already visited.
          auto fresh = core::LiftedMap(
              core::LiftedFilter(
                  core::LiftedLeftOuterJoin(candidates, visited),
                  [](const std::pair<
                      Vertex, std::pair<int64_t, std::optional<int64_t>>>&
                         p) { return !p.second.second.has_value(); }),
              [](const std::pair<Vertex,
                                 std::pair<int64_t, std::optional<int64_t>>>&
                     p) {
                return std::pair<Vertex, int64_t>(p.first, p.second.first);
              });
          auto next = core::LiftedUnion(visited, fresh);
          // A BFS instance continues while it discovered new vertices.
          auto new_count = core::LiftedFold(
              fresh, int64_t{0},
              [](const std::pair<Vertex, int64_t>&) { return int64_t{1}; },
              [](int64_t a, int64_t b) { return a + b; });
          auto cond = core::UnaryScalarOp(
              new_count, [](int64_t c) { return c > 0; });
          (void)loop_ctx;
          return std::make_pair(next, cond);
        },
        params.max_bfs_iterations);

    // Per BFS instance: the distance sum; then ascend to the component
    // level and average over all n*(n-1) ordered pairs.
    auto per_start_sum = core::LiftedFold(
        final_visited, int64_t{0},
        [](const std::pair<Vertex, int64_t>& p) { return p.second; },
        [](int64_t a, int64_t b) { return a + b; });
    auto sums_at_comp = core::LowerToParent(per_start_sum, ctx);
    auto total = core::LiftedFold(
        sums_at_comp, int64_t{0}, [](int64_t s) { return s; },
        [](int64_t a, int64_t b) { return a + b; });
    auto n = core::LiftedCount(vertices);
    return core::BinaryScalarOp(total, n, [](int64_t t, int64_t nv) {
      return nv <= 1 ? 0.0
                     : static_cast<double>(t) /
                           static_cast<double>(nv * (nv - 1));
    });
  });

  auto collected = engine::Collect(core::ZipWithKeys(nested.keys(), avg));
  return FinishRun<int64_t, double>(cluster, std::move(collected));
}

AvgDistancesResult AvgDistancesOuterParallel(Cluster* cluster,
                                             const Bag<Edge>& edges,
                                             const AvgDistancesParams&) {
  constexpr double kExpansion = 4.0;
  // Sequential all-pairs BFS is pointer chasing through hash maps.
  constexpr double kSeqWeight = 5.0;
  auto comps = ConnectedComponents(edges);
  auto edges_by_comp = EdgesByComponent(edges, comps);
  auto grouped = engine::GroupByKey(edges_by_comp, -1, kExpansion);
  auto avgs = baselines::ProcessGroupsSequentially(
      grouped,
      [](const int64_t&, const std::vector<Edge>& es) {
        return SequentialAvgDistance(es);
      },
      [](const int64_t&, const std::vector<Edge>& es) {
        return AllPairsCostElements(es);
      },
      kExpansion, kSeqWeight);
  auto collected = engine::Collect(avgs);
  return FinishRun<int64_t, double>(cluster, std::move(collected));
}

AvgDistancesResult AvgDistancesInnerParallel(Cluster* cluster,
                                             const Bag<Edge>& edges,
                                             const AvgDistancesParams& params) {
  auto comps = ConnectedComponents(edges);
  auto edges_by_comp = EdgesByComponent(edges, comps);
  std::vector<std::pair<int64_t, double>> avgs;
  baselines::ForEachGroupInnerParallel(
      edges_by_comp, [&](const int64_t& comp, const Bag<Edge>& es) {
        constexpr int64_t kGroupParallelism = 16;
        auto edges_by_src = engine::Map(es, [](const Edge& e) {
          return std::pair<Vertex, Vertex>(e.src, e.dst);
        });
        std::vector<Vertex> verts = engine::Collect(engine::Distinct(
            engine::FlatMap(es,
                            [](const Edge& e) {
                              return std::vector<Vertex>{e.src, e.dst};
                            }),
            kGroupParallelism));
        const int64_t n = static_cast<int64_t>(verts.size());
        int64_t total = 0;
        // Driver loop over start vertices: one engine-parallel BFS each.
        for (Vertex start : verts) {
          if (!cluster->ok()) return;
          auto visited = engine::Parallelize(
              cluster, std::vector<std::pair<Vertex, int64_t>>{{start, 0}},
              1);
          for (int64_t iter = 0;
               iter < params.max_bfs_iterations && cluster->ok(); ++iter) {
            auto frontier = engine::Filter(
                visited, [iter](const std::pair<Vertex, int64_t>& p) {
                  return p.second == iter;
                });
            auto expanded = engine::RepartitionJoin(
                engine::Map(frontier,
                            [](const std::pair<Vertex, int64_t>& p) {
                              return std::pair<Vertex, char>(p.first, 0);
                            }),
                edges_by_src, kGroupParallelism);
            auto candidates = engine::ReduceByKey(
                engine::Map(
                    expanded,
                    [iter](const std::pair<Vertex,
                                           std::pair<char, Vertex>>& p) {
                      return std::pair<Vertex, int64_t>(p.second.second,
                                                        iter + 1);
                    }),
                [](int64_t a, int64_t) { return a; }, kGroupParallelism);
            auto fresh = engine::Map(
                engine::Filter(
                    engine::LeftOuterJoin(candidates, visited,
                                          kGroupParallelism),
                    [](const std::pair<
                        Vertex, std::pair<int64_t, std::optional<int64_t>>>&
                           p) { return !p.second.second.has_value(); }),
                [](const std::pair<
                    Vertex, std::pair<int64_t, std::optional<int64_t>>>& p) {
                  return std::pair<Vertex, int64_t>(p.first, p.second.first);
                });
            visited = engine::Union(visited, fresh);
            if (!engine::NotEmpty(fresh)) break;  // one job per BFS step
          }
          for (auto& [v, d] : engine::Collect(visited)) {
            (void)v;
            total += d;
          }
        }
        avgs.emplace_back(
            comp, n <= 1 ? 0.0
                         : static_cast<double>(total) /
                               static_cast<double>(n * (n - 1)));
      });
  if (!cluster->ok()) avgs.clear();
  return FinishRun<int64_t, double>(cluster, std::move(avgs));
}

AvgDistancesResult RunAvgDistances(Cluster* cluster, const Bag<Edge>& edges,
                                   const AvgDistancesParams& params,
                                   Variant variant,
                                   core::OptimizerOptions options) {
  switch (variant) {
    case Variant::kMatryoshka:
      return AvgDistancesMatryoshka(cluster, edges, params, options);
    case Variant::kOuterParallel:
      return AvgDistancesOuterParallel(cluster, edges, params);
    case Variant::kInnerParallel:
      return AvgDistancesInnerParallel(cluster, edges, params);
    case Variant::kDiqlLike:
      break;
  }
  AvgDistancesResult r;
  r.status = Status::Unsupported(
      "DIQL-like baseline cannot run iterative tasks");
  return r;
}

std::vector<std::pair<int64_t, double>> AvgDistancesReference(
    const std::vector<Edge>& edges) {
  auto comps = ConnectedComponentsReference(edges);
  std::unordered_map<Vertex, int64_t> comp_of;
  for (const auto& [c, v] : comps) comp_of[v] = c;
  std::map<int64_t, std::vector<Edge>> by_comp;
  for (const Edge& e : edges) by_comp[comp_of[e.src]].push_back(e);
  std::vector<std::pair<int64_t, double>> out;
  out.reserve(by_comp.size());
  for (const auto& [c, es] : by_comp) {
    out.emplace_back(c, SequentialAvgDistance(es));
  }
  return out;
}

}  // namespace matryoshka::workloads
