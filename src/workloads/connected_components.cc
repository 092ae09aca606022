#include "workloads/connected_components.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <unordered_map>

#include "common/logging.h"
#include "engine/iterate.h"
#include "engine/join.h"
#include "engine/ops.h"
#include "engine/shuffle.h"

namespace matryoshka::workloads {

namespace {
using datagen::Edge;
using engine::Bag;
using Vertex = int64_t;
using Label = int64_t;
}  // namespace

Bag<std::pair<Label, Vertex>> ConnectedComponents(const Bag<Edge>& edges,
                                                  int64_t max_iterations) {
  engine::Cluster* c = edges.cluster();
  auto vertices = engine::Distinct(engine::FlatMap(edges, [](const Edge& e) {
    return std::vector<Vertex>{e.src, e.dst};
  }));
  auto edges_by_src = engine::Map(edges, [](const Edge& e) {
    return std::pair<Vertex, Vertex>(e.src, e.dst);
  });
  // Every vertex starts labeled with itself; labels propagate along edges
  // and each vertex keeps the minimum it has seen.
  auto labels = engine::Map(vertices, [](Vertex v) {
    return std::pair<Vertex, Label>(v, v);
  });
  // Label propagation as a native in-engine loop (engine::Iterate): the
  // convergence test — "did any vertex's label shrink this round?" — is
  // answered by a fused AnyMatch that never materializes the filtered
  // `improved` intermediate, while charging exactly what the Filter +
  // NotEmpty it replaces would. The state carries both the freshly reduced
  // labels and the labels the round started from, since convergence
  // compares them.
  struct LoopState {
    Bag<std::pair<Vertex, Label>> labels;
    Bag<std::pair<Vertex, Label>> prev;
  };
  engine::IterateOptions options;
  options.max_iterations = max_iterations;
  options.label = "connected-components";
  // A zero-iteration cap skips the loop without failing (the old for-loop
  // semantics); running out of a positive budget is non-convergence.
  options.exhausted = [](int64_t iterations) {
    return iterations == 0
               ? Status::OK()
               : Status::Internal("connected components did not converge");
  };
  LoopState state = engine::Iterate(
      c, LoopState{std::move(labels), Bag<std::pair<Vertex, Label>>(c)},
      [&edges_by_src](LoopState s, int64_t) {
        auto msgs = engine::Map(
            engine::RepartitionJoin(edges_by_src, s.labels),
            [](const std::pair<Vertex, std::pair<Vertex, Label>>& p) {
              // Send the source's label to the destination.
              return std::pair<Vertex, Label>(p.second.first,
                                              p.second.second);
            });
        auto next = engine::ReduceByKey(
            engine::Union(s.labels, msgs),
            [](Label a, Label b) { return std::min(a, b); });
        s.prev = std::move(s.labels);
        s.labels = std::move(next);
        return s;
      },
      [](LoopState* s, int64_t) {
        // Converged when no vertex's label shrank this round.
        return !engine::AnyMatch(
            engine::RepartitionJoin(s->labels, s->prev),
            [](const std::pair<Vertex, std::pair<Label, Label>>& p) {
              return p.second.first < p.second.second;
            });
      },
      options);
  labels = std::move(state.labels);
  // (component id, vertex)
  return engine::Map(labels, [](const std::pair<Vertex, Label>& p) {
    return std::pair<Label, Vertex>(p.second, p.first);
  });
}

Bag<std::pair<Label, Edge>> EdgesByComponent(
    const Bag<Edge>& edges, const Bag<std::pair<Label, Vertex>>& components) {
  auto vertex_to_comp =
      engine::Map(components, [](const std::pair<Label, Vertex>& p) {
        return std::pair<Vertex, Label>(p.second, p.first);
      });
  auto edges_by_src = engine::Map(edges, [](const Edge& e) {
    return std::pair<Vertex, Edge>(e.src, e);
  });
  return engine::Map(
      engine::RepartitionJoin(edges_by_src, vertex_to_comp),
      [](const std::pair<Vertex, std::pair<Edge, Label>>& p) {
        return std::pair<Label, Edge>(p.second.second, p.second.first);
      });
}

std::vector<std::pair<Label, Vertex>> ConnectedComponentsReference(
    const std::vector<Edge>& edges) {
  std::unordered_map<Vertex, Vertex> parent;
  std::function<Vertex(Vertex)> find = [&](Vertex v) {
    auto it = parent.find(v);
    if (it == parent.end()) {
      parent[v] = v;
      return v;
    }
    if (it->second == v) return v;
    Vertex root = find(it->second);
    parent[v] = root;
    return root;
  };
  for (const Edge& e : edges) {
    Vertex a = find(e.src), b = find(e.dst);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }
  std::vector<std::pair<Label, Vertex>> out;
  out.reserve(parent.size());
  for (const auto& [v, p] : parent) {
    (void)p;
    out.emplace_back(find(v), v);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace matryoshka::workloads
