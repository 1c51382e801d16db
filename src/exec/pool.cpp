#include "pfsem/exec/pool.hpp"

#include <algorithm>

namespace pfsem::exec {

namespace {

/// Process-wide observer for transient pools (see set_observer).
std::atomic<obs::Run*> g_observer{nullptr};

[[nodiscard]] obs::Run* observer() {
  return g_observer.load(std::memory_order_acquire);
}

/// Account a sequential (inline) execution of n items.
void note_sequential(obs::Run* obs, std::size_t n, std::int64_t t0,
                     std::int64_t t1) {
  if (obs == nullptr || n == 0) return;
  obs->metrics.add(obs->pool_jobs);
  obs->metrics.add(obs->pool_items, n);
  if (obs->metrics.value(obs->pool_workers) < 1) {
    obs->metrics.set(obs->pool_workers, 1);
  }
  if (obs->tracing()) {
    obs->tracer.complete({obs::kPidPool, 0}, "busy", t0, t1 - t0,
                         {"items", static_cast<std::int64_t>(n)},
                         {"steals", 0});
  }
}

}  // namespace

void set_observer(obs::Run* run) {
  g_observer.store(run, std::memory_order_release);
}

int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int resolve_threads(int requested) {
  if (requested <= 0) return hardware_threads();
  // Explicit counts are honored only up to the host's parallelism:
  // workers beyond it just time-slice the same cores, so an
  // oversubscribed "scaling" run measures scheduler churn, not the
  // pool (the output is identical at any count either way).
  return std::min(requested, hardware_threads());
}

ThreadPool::ThreadPool(int threads) : nthreads_(resolve_threads(threads)) {
  stats_.resize(static_cast<std::size_t>(nthreads_));
  deques_.reserve(static_cast<std::size_t>(nthreads_));
  for (int i = 0; i < nthreads_; ++i) {
    deques_.push_back(std::make_unique<TaskDeque>());
  }
  workers_.reserve(static_cast<std::size_t>(nthreads_ - 1));
  for (int i = 1; i < nthreads_; ++i) {
    workers_.emplace_back([this, i] { worker_loop(static_cast<std::size_t>(i)); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(job_m_);
    shutdown_ = true;
  }
  job_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::pop_local(std::size_t who, Range& out) {
  TaskDeque& d = *deques_[who];
  std::lock_guard lk(d.m);
  if (d.q.empty()) return false;
  out = d.q.back();
  d.q.pop_back();
  return true;
}

bool ThreadPool::steal(std::size_t thief, Range& out) {
  const auto n = deques_.size();
  for (std::size_t off = 1; off < n; ++off) {
    TaskDeque& d = *deques_[(thief + off) % n];
    std::lock_guard lk(d.m);
    if (d.q.empty()) continue;
    out = d.q.front();  // steal the oldest (coarsest remaining) range
    d.q.pop_front();
    return true;
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t who) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock lk(job_m_);
      job_cv_.wait(lk, [&] { return shutdown_ || epoch_ != seen; });
      if (shutdown_) return;
      seen = epoch_;
    }
    participate(who);
  }
}

void ThreadPool::participate(std::size_t who) {
  Range r;
  while (outstanding_.load(std::memory_order_acquire) > 0) {
    bool stole = false;
    if (!pop_local(who, r)) {
      if (!steal(who, r)) {
        std::this_thread::yield();
        continue;
      }
      stole = true;
    }
    WorkerStats* s = job_obs_ != nullptr ? &stats_[who] : nullptr;
    if (s != nullptr) {
      s->items += r.end - r.begin;
      if (stole) ++s->steals;
      if (job_obs_->tracing() && !s->active) {
        s->active = true;
        s->t0 = job_obs_->wall_ns();
      }
    }
    // After a failure the remaining ranges are drained unexecuted so
    // parallel_for can return (and rethrow) promptly.
    if (!failed_.load(std::memory_order_acquire)) {
      for (std::size_t i = r.begin; i < r.end; ++i) {
        try {
          (*job_)(i);
        } catch (...) {
          if (!failed_.exchange(true, std::memory_order_acq_rel)) {
            std::lock_guard lk(error_m_);
            error_ = std::current_exception();
          }
          break;
        }
      }
    }
    if (s != nullptr && s->active) s->t1 = job_obs_->wall_ns();
    outstanding_.fetch_sub(r.end - r.begin, std::memory_order_acq_rel);
  }
}

void ThreadPool::publish_stats() {
  obs::Run* obs = job_obs_;
  job_obs_ = nullptr;
  if (obs == nullptr) return;
  obs->metrics.add(obs->pool_jobs);
  if (obs->metrics.value(obs->pool_workers) < nthreads_) {
    obs->metrics.set(obs->pool_workers, nthreads_);
  }
  for (std::size_t w = 0; w < stats_.size(); ++w) {
    const WorkerStats& s = stats_[w];
    if (s.items == 0) continue;
    obs->metrics.add(obs->pool_items, s.items);
    if (obs->tracing() && s.active) {
      obs->tracer.complete({obs::kPidPool, static_cast<std::int32_t>(w)},
                           "busy", s.t0, s.t1 - s.t0,
                           {"items", static_cast<std::int64_t>(s.items)},
                           {"steals", static_cast<std::int64_t>(s.steals)});
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  obs::Run* obs = observer();
  if (nthreads_ == 1 || n == 1) {
    const std::int64_t t0 = obs != nullptr && obs->tracing() ? obs->wall_ns() : 0;
    for (std::size_t i = 0; i < n; ++i) body(i);
    note_sequential(obs, n,
                    t0, obs != nullptr && obs->tracing() ? obs->wall_ns() : 0);
    return;
  }
  failed_.store(false, std::memory_order_relaxed);
  error_ = nullptr;
  job_obs_ = obs;
  if (obs != nullptr) {
    for (auto& s : stats_) s = {};
  }

  // Publication order matters: a worker that never went back to sleep
  // after the previous job (it was spinning in participate when that
  // job's count hit zero) grabs new ranges straight off the deques, not
  // via the epoch wakeup. job_ and outstanding_ must therefore be set
  // BEFORE any range becomes poppable — the deque mutex then carries the
  // happens-before edge — or such a laggard would invoke a stale job
  // pointer / decrement a count that is about to be overwritten.
  job_ = &body;
  outstanding_.store(n, std::memory_order_release);

  // Split [0,n) into ~4 ranges per participant and deal them round-robin
  // so every deque starts non-empty; stealing evens out any imbalance.
  const auto participants = static_cast<std::size_t>(nthreads_);
  const std::size_t chunk =
      std::max<std::size_t>(1, n / (participants * 4) +
                                   (n % (participants * 4) != 0));
  std::size_t next_deque = 0;
  for (std::size_t begin = 0; begin < n; begin += chunk) {
    const Range r{begin, std::min(n, begin + chunk)};
    TaskDeque& d = *deques_[next_deque];
    std::lock_guard lk(d.m);
    d.q.push_back(r);
    next_deque = (next_deque + 1) % participants;
  }
  {
    std::lock_guard lk(job_m_);
    ++epoch_;
  }
  job_cv_.notify_all();
  participate(0);  // the caller is participant 0
  publish_stats();
  if (failed_.load(std::memory_order_acquire)) {
    std::lock_guard lk(error_m_);
    if (error_) std::rethrow_exception(error_);
  }
}

void parallel_for(int threads, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  const int resolved = resolve_threads(threads);
  if (resolved == 1 || n <= 1) {
    obs::Run* obs = observer();
    const std::int64_t t0 = obs != nullptr && obs->tracing() ? obs->wall_ns() : 0;
    for (std::size_t i = 0; i < n; ++i) body(i);
    note_sequential(obs, n,
                    t0, obs != nullptr && obs->tracing() ? obs->wall_ns() : 0);
    return;
  }
  ThreadPool pool(resolved);
  pool.parallel_for(n, body);
}

}  // namespace pfsem::exec
