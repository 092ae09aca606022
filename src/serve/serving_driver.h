#ifndef MATRYOSHKA_SERVE_SERVING_DRIVER_H_
#define MATRYOSHKA_SERVE_SERVING_DRIVER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "engine/cluster.h"
#include "serve/memo_cache.h"
#include "serve/plan.h"
#include "serve/registry.h"

/// The plan-serving driver: executes registered plans concurrently over
/// ONE shared chunked thread pool, one isolated Cluster per request.
///
/// The serving isolation contract (DESIGN.md): a request's response —
/// data, partition order, key_partitions, full Metrics, exported trace —
/// is a pure function of (plan, params, engine config), bit-identical
/// whether the request runs alone or concurrently under load. The
/// architecture that guarantees it:
///  - per-request Cluster: each request gets its own simulated clock,
///    Metrics, fault-draw state, sticky status, and trace sink, created
///    on the worker thread that runs it (which makes that worker the
///    cluster's driver thread — Bag::Force() checks this);
///  - shared ThreadPool only for real CPU: ParallelFor is safe for
///    concurrent independent callers and all engine accounting happens
///    on the request's own driver thread;
///  - deterministic fault draws: keyed on (seed, stage, task, attempt),
///    independent of pool interleaving;
///  - cache-agnostic responses: a memo hit returns the memoized bytes of
///    the original computation, and hit/miss counters surface only in
///    the driver's aggregate stats (hit timing is load-dependent).
///
/// Admission control: `max_in_flight` worker threads bound concurrent
/// execution structurally; beyond that, requests queue up to
/// `max_queue_depth` and are then rejected with kResourceExhausted.
/// Fairness: queued requests are popped round-robin across tenants, so a
/// tenant flooding the queue cannot starve another's trickle.
namespace matryoshka::serve {

struct ServingConfig {
  /// Template for every per-request Cluster (parallelism, cost model,
  /// faults, fusion depth, recovery). `shared_pool` and
  /// `recovery.run_deadline_s` are overwritten per request; the rest is
  /// copied verbatim.
  engine::ClusterConfig cluster;
  /// Concurrent requests in execution (= worker threads).
  int max_in_flight = 4;
  /// Queued (admitted, not yet executing) requests beyond which Submit
  /// rejects with kResourceExhausted.
  int max_queue_depth = 64;
  /// Deadline (simulated seconds) for requests that don't set their own;
  /// 0 = none.
  double default_deadline_s = 0.0;
  /// Memo cache capacity in entries; 0 disables caching.
  std::size_t cache_entries = 128;
  /// Real threads of the shared pool (0 = ThreadPool::DefaultThreads()).
  /// Only consulted when cluster.execute_parallel is on.
  int pool_threads = 0;
  /// Record a per-request trace for every request (the response carries
  /// it as Chrome JSON).
  bool record_traces = false;
  /// Scheduling weight per tenant (weighted round-robin): a tenant with
  /// weight w is served up to w queued requests per turn before the
  /// scheduler moves on. Unlisted tenants weigh 1.
  std::unordered_map<std::string, int> tenant_weights;
  /// Extra serving-level attempts for requests that fail with kIOError or
  /// kDataCorruption even after the engine's own driver recovery gives up.
  /// Each retry re-runs the plan on a FRESH Cluster with the real-fault
  /// epoch advanced (fresh deterministic draws — a transient storm may have
  /// passed). kResourceExhausted is never retried here: the request is shed
  /// (retrying against a full disk or budget only adds load). 0 = off.
  int real_fault_retries = 0;
  /// Real wall-clock backoff before serving-level retry k, doubling:
  /// real_fault_backoff_ms * 2^(k-1) milliseconds. 0 = retry immediately.
  double real_fault_backoff_ms = 0.0;
};

struct ServeRequest {
  std::string plan;
  std::string tenant = "default";
  PlanParams params;
  /// Per-request deadline in simulated seconds; < 0 = use the config
  /// default, 0 = explicitly none.
  double deadline_s = -1.0;
  bool use_cache = true;
};

struct ServeResponse {
  Status status;
  PlanOutput output;
  /// The request's isolated engine metrics (cache counters always zero
  /// here — see the isolation contract).
  engine::Metrics metrics;
  /// Chrome-trace JSON of this request's lane ("" unless record_traces).
  std::string trace_json;
  bool cache_hit = false;
  /// True when admission control turned the request away (status is
  /// kResourceExhausted and no execution happened).
  bool rejected = false;
  /// Real wall-clock seconds from Submit to completion.
  double wall_s = 0.0;
};

/// Completion handle for a submitted request. Wait() blocks until the
/// response is ready and returns a reference valid for the ticket's
/// lifetime; it may be called from any thread, any number of times.
class ServeTicket {
 public:
  const ServeResponse& Wait();
  bool Ready() const;

 private:
  friend class ServingDriver;
  void Complete(ServeResponse response);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool ready_ = false;
  ServeResponse response_;
};

/// Owns the worker threads, the shared pool and the memo cache. The
/// registry must outlive this object and must not be mutated while requests
/// reference its specs (register everything first, then serve — the
/// intended lifecycle).
class ServingDriver {
 public:
  ServingDriver(const PlanRegistry* registry, ServingConfig config);
  ~ServingDriver();
  ServingDriver(const ServingDriver&) = delete;
  ServingDriver& operator=(const ServingDriver&) = delete;

  /// Admits or rejects the request; never blocks on execution. Unknown
  /// plans and rejections complete the ticket immediately.
  std::shared_ptr<ServeTicket> Submit(ServeRequest request);

  /// Submit + Wait.
  ServeResponse Execute(ServeRequest request);

  /// Blocks until every admitted request has completed.
  void Drain();

  struct Stats {
    int64_t submitted = 0;
    int64_t accepted = 0;
    int64_t rejected = 0;
    int64_t completed = 0;  // executed to any terminal status
    int64_t failed = 0;     // completed with !status.ok()
    int64_t deadline_exceeded = 0;
    /// Requests whose final status was kIOError / kDataCorruption (after
    /// all serving-level retries).
    int64_t io_errors = 0;
    int64_t corruptions = 0;
    /// Serving-level re-runs taken for IO failures (ServingConfig::
    /// real_fault_retries); the engine's own driver retries are counted in
    /// aggregate.driver_retries instead.
    int64_t real_fault_retries = 0;
    /// Executed requests shed with kResourceExhausted (admission rejects
    /// are counted in `rejected`, not here).
    int64_t shed = 0;
    int64_t cache_hits = 0;
    MemoCache::Stats cache;
    /// Sum of per-request Metrics (peaks are maxed), plus the cache
    /// counters — the only place they appear.
    engine::Metrics aggregate;
  };
  Stats GetStats() const;

  ThreadPool* shared_pool() const { return pool_.get(); }
  const ServingConfig& config() const { return config_; }

 private:
  struct QueuedItem {
    ServeRequest request;
    const PlanSpec* spec = nullptr;
    std::shared_ptr<ServeTicket> ticket;
    std::chrono::steady_clock::time_point submit_time;
  };

  void WorkerLoop();
  bool PopNext(QueuedItem* item);  // under mu_
  ServeResponse RunOne(const QueuedItem& item);

  const PlanRegistry* registry_;
  const ServingConfig config_;
  std::unique_ptr<ThreadPool> pool_;
  MemoCache cache_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for queued items
  std::condition_variable drain_cv_;  // Drain waits for quiescence
  bool stop_ = false;
  /// Weighted round-robin state: tenants in first-seen order, the cursor,
  /// and how many requests the cursor tenant was served this turn; the
  /// scheduler stays on a tenant until its weight is spent, then advances.
  std::vector<std::string> tenant_order_;
  std::unordered_map<std::string, std::deque<QueuedItem>> queues_;
  std::size_t rr_cursor_ = 0;
  int turn_served_ = 0;
  int queued_ = 0;
  int executing_ = 0;
  Stats stats_;

  std::vector<std::thread> workers_;
};

}  // namespace matryoshka::serve

#endif  // MATRYOSHKA_SERVE_SERVING_DRIVER_H_
