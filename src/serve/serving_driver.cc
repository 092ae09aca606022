#include "serve/serving_driver.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "common/logging.h"
#include "engine/recovery.h"
#include "obs/chrome_trace.h"
#include "obs/trace_recorder.h"

namespace matryoshka::serve {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Field-wise sum of per-request metrics into the driver aggregate.
/// Counters add; peak footprints max (they describe different simulated
/// clusters, summing them would be meaningless).
void Accumulate(engine::Metrics* into, const engine::Metrics& m) {
  into->simulated_time_s += m.simulated_time_s;
  into->jobs += m.jobs;
  into->stages += m.stages;
  into->tasks += m.tasks;
  into->elements_processed += m.elements_processed;
  into->shuffle_bytes += m.shuffle_bytes;
  into->broadcast_bytes += m.broadcast_bytes;
  into->spilled_bytes += m.spilled_bytes;
  into->spill_events += m.spill_events;
  into->peak_task_bytes = std::max(into->peak_task_bytes, m.peak_task_bytes);
  into->peak_machine_bytes =
      std::max(into->peak_machine_bytes, m.peak_machine_bytes);
  into->failed_tasks += m.failed_tasks;
  into->task_retries += m.task_retries;
  into->speculative_launches += m.speculative_launches;
  into->machines_lost += m.machines_lost;
  into->recovery_time_s += m.recovery_time_s;
  into->checkpoints_written += m.checkpoints_written;
  into->checkpoint_bytes += m.checkpoint_bytes;
  into->driver_retries += m.driver_retries;
  into->plan_fallbacks += m.plan_fallbacks;
  into->real_spilled_bytes += m.real_spilled_bytes;
  into->real_spill_events += m.real_spill_events;
  into->real_spill_runs += m.real_spill_runs;
  into->real_io_faults_injected += m.real_io_faults_injected;
  into->real_io_retries += m.real_io_retries;
  into->checksum_failures += m.checksum_failures;
  into->inmemory_fallbacks += m.inmemory_fallbacks;
}

std::string RunName(const PlanSpec& spec, const PlanParams& params) {
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(params.Fingerprint()));
  return "serve/" + spec.name + "#" + fp;
}

}  // namespace

// --- ServeTicket ---

const ServeResponse& ServeTicket::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return ready_; });
  return response_;
}

bool ServeTicket::Ready() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ready_;
}

void ServeTicket::Complete(ServeResponse response) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    MATRYOSHKA_CHECK(!ready_) << "ServeTicket completed twice";
    response_ = std::move(response);
    ready_ = true;
  }
  cv_.notify_all();
}

// --- ServingDriver ---

ServingDriver::ServingDriver(const PlanRegistry* registry,
                             ServingConfig config)
    : registry_(registry),
      config_(std::move(config)),
      cache_(config_.cache_entries) {
  MATRYOSHKA_CHECK(registry_ != nullptr);
  MATRYOSHKA_CHECK(config_.max_in_flight > 0)
      << "ServingConfig.max_in_flight must be positive";
  if (config_.cluster.execute_parallel) {
    const std::size_t threads =
        config_.pool_threads > 0
            ? static_cast<std::size_t>(config_.pool_threads)
            : ThreadPool::DefaultThreads();
    pool_ = std::make_unique<ThreadPool>(threads);
  }
  workers_.reserve(static_cast<std::size_t>(config_.max_in_flight));
  for (int i = 0; i < config_.max_in_flight; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ServingDriver::~ServingDriver() {
  Drain();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::shared_ptr<ServeTicket> ServingDriver::Submit(ServeRequest request) {
  auto ticket = std::make_shared<ServeTicket>();
  const auto submit_time = std::chrono::steady_clock::now();

  Result<const PlanSpec*> spec = registry_->Lookup(request.plan);
  if (!spec.ok()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.submitted;
      ++stats_.rejected;
    }
    ServeResponse resp;
    resp.status = spec.status();
    resp.rejected = true;
    resp.wall_s = SecondsSince(submit_time);
    ticket->Complete(std::move(resp));
    return ticket;
  }

  Status reject_status;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.submitted;
    if (queued_ >= config_.max_queue_depth) {
      // Check and (non-)enqueue are one critical section: the queue bound
      // is exact even under racing Submits.
      ++stats_.rejected;
      reject_status = Status::ResourceExhausted(
          "serving queue full (" + std::to_string(queued_) + " queued, " +
          std::to_string(executing_) + " executing); retry later");
    } else {
      ++stats_.accepted;
      auto it = queues_.find(request.tenant);
      if (it == queues_.end()) {
        tenant_order_.push_back(request.tenant);
        it = queues_.emplace(request.tenant, std::deque<QueuedItem>()).first;
      }
      QueuedItem item;
      item.request = std::move(request);
      item.spec = *spec;
      item.ticket = ticket;
      item.submit_time = submit_time;
      it->second.push_back(std::move(item));
      ++queued_;
    }
  }
  if (!reject_status.ok()) {
    ServeResponse resp;
    resp.status = std::move(reject_status);
    resp.rejected = true;
    resp.wall_s = SecondsSince(submit_time);
    ticket->Complete(std::move(resp));
    return ticket;
  }
  work_cv_.notify_one();
  return ticket;
}

ServeResponse ServingDriver::Execute(ServeRequest request) {
  return Submit(std::move(request))->Wait();
}

void ServingDriver::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [this] { return queued_ == 0 && executing_ == 0; });
}

bool ServingDriver::PopNext(QueuedItem* item) {
  if (tenant_order_.empty()) return false;
  const std::size_t n = tenant_order_.size();
  for (std::size_t step = 0; step < n; ++step) {
    const std::size_t i = (rr_cursor_ + step) % n;
    const std::string& tenant = tenant_order_[i];
    auto& q = queues_[tenant];
    if (q.empty()) continue;
    *item = std::move(q.front());
    q.pop_front();
    --queued_;
    // Weighted round-robin: stay on this tenant until its weight is spent
    // (skipping ahead past empty tenants starts a fresh turn).
    turn_served_ = (i == rr_cursor_) ? turn_served_ + 1 : 1;
    auto weight_it = config_.tenant_weights.find(tenant);
    const int weight =
        weight_it != config_.tenant_weights.end() && weight_it->second > 0
            ? weight_it->second
            : 1;
    if (turn_served_ >= weight) {
      rr_cursor_ = (i + 1) % n;
      turn_served_ = 0;
    } else {
      rr_cursor_ = i;
    }
    return true;
  }
  return false;
}

void ServingDriver::WorkerLoop() {
  for (;;) {
    QueuedItem item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || queued_ > 0; });
      if (stop_ && queued_ == 0) return;
      if (!PopNext(&item)) continue;
      ++executing_;
    }

    ServeResponse resp = RunOne(item);
    resp.wall_s = SecondsSince(item.submit_time);

    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.completed;
      if (!resp.status.ok()) ++stats_.failed;
      if (resp.status.IsDeadlineExceeded()) ++stats_.deadline_exceeded;
      if (resp.status.IsIOError()) ++stats_.io_errors;
      if (resp.status.IsDataCorruption()) ++stats_.corruptions;
      // Only executed requests reach this loop (admission rejects complete
      // in Submit), so ResourceExhausted here means the run was shed.
      if (resp.status.IsResourceExhausted()) ++stats_.shed;
      if (resp.cache_hit) ++stats_.cache_hits;
      Accumulate(&stats_.aggregate, resp.metrics);
      --executing_;
    }
    drain_cv_.notify_all();

    // Complete outside the lock: Wait()ers may immediately Submit more.
    item.ticket->Complete(std::move(resp));
  }
}

ServeResponse ServingDriver::RunOne(const QueuedItem& item) {
  const PlanSpec& spec = *item.spec;
  const ServeRequest& req = item.request;
  ServeResponse resp;

  const CacheKey key{spec.name, req.params.Fingerprint(),
                     spec.input_fingerprint};
  const bool cacheable = spec.cacheable && req.use_cache && cache_.enabled();
  if (cacheable) {
    if (std::shared_ptr<const CachedResult> hit = cache_.Lookup(key)) {
      // The memoized response IS the original computation's response,
      // byte for byte — output, metrics, and trace all replayed.
      resp.status = hit->status;
      resp.output = hit->output;
      resp.metrics = hit->metrics;
      resp.trace_json = hit->trace_json;
      resp.cache_hit = true;
      return resp;
    }
  }

  // Per-request isolation: a fresh Cluster on THIS worker thread (which
  // becomes its driver thread), sharing only the real thread pool.
  engine::ClusterConfig cfg = config_.cluster;
  cfg.shared_pool = pool_.get();
  cfg.recovery.run_deadline_s =
      req.deadline_s >= 0.0 ? req.deadline_s : config_.default_deadline_s;

  // Serving-level real-fault retry: when a run ends in kIOError /
  // kDataCorruption after the engine's own recovery gave up, re-run the
  // whole plan on a fresh Cluster with the fault epoch advanced (fresh
  // deterministic draws), after a doubling real-time backoff.
  // kResourceExhausted is shed, never retried.
  obs::TraceRecorder recorder;
  int fault_retries = 0;
  const int max_attempts = std::max(0, config_.real_fault_retries) + 1;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      ++fault_retries;
      if (config_.real_fault_backoff_ms > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            config_.real_fault_backoff_ms *
            static_cast<double>(int64_t{1} << (attempt - 1))));
      }
      recorder = obs::TraceRecorder();  // keep only this attempt's lane
    }
    cfg.real_faults.initial_epoch =
        config_.cluster.real_faults.initial_epoch + attempt;
    engine::Cluster cluster(cfg);
    if (config_.record_traces) {
      recorder.SetRunNameHint(RunName(spec, req.params));
      cluster.set_trace(&recorder);
    }

    resp.status = engine::RunWithRecovery(
        &cluster,
        [&](int /*attempt*/) {
          // A plan body that throws fails THIS request typed instead of
          // unwinding the serving worker into std::terminate.
          try {
            resp.output = spec.body(&cluster, req.params);
          } catch (const std::exception& e) {
            cluster.Fail(Status::Internal(
                std::string("uncaught exception in plan body: ") + e.what()));
          } catch (...) {
            cluster.Fail(
                Status::Internal("uncaught non-std exception in plan body"));
          }
        },
        "serve");
    resp.metrics = cluster.metrics();
    if (resp.status.ok() ||
        !(resp.status.IsIOError() || resp.status.IsDataCorruption())) {
      break;
    }
  }
  if (fault_retries > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.real_fault_retries += fault_retries;
  }
  if (config_.record_traces) {
    resp.trace_json = obs::ChromeTraceToString(recorder);
  }

  if (cacheable && resp.status.ok()) {
    auto cached = std::make_shared<CachedResult>();
    cached->status = resp.status;
    cached->output = resp.output;
    cached->metrics = resp.metrics;
    cached->trace_json = resp.trace_json;
    cache_.Insert(key, std::move(cached));
  }
  return resp;
}

ServingDriver::Stats ServingDriver::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats = stats_;
  stats.cache = cache_.GetStats();
  stats.aggregate.cache_hits = stats.cache.hits;
  stats.aggregate.cache_misses = stats.cache.misses;
  stats.aggregate.cache_evictions = stats.cache.evictions;
  return stats;
}

}  // namespace matryoshka::serve
