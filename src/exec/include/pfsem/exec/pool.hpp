#pragma once
// pfsem::exec — a small work-stealing thread pool for the offline
// analysis pipeline.
//
// The analysis stages (overlap sweep, conflict conditions, pattern
// statistics, metadata pairing, happens-before validation) decompose
// into independent index-addressed shards whose results are merged in
// shard order, so the pool only needs one primitive: parallel_for(n, f)
// runs f(0..n-1) across the workers and blocks until every index
// finished. Scheduling is work-stealing: each participant owns a deque
// of index ranges, pops from its own back (LIFO, cache-warm) and steals
// from other fronts (FIFO, coarse) when it runs dry. The calling thread
// participates, so a pool of size N uses N OS threads total, and
// size 1 executes inline — byte-identical to a plain sequential loop,
// which is what keeps the `threads=1` path usable as the differential
// oracle.
//
// Determinism contract: parallel_for promises nothing about execution
// order. Callers obtain deterministic results by writing into slot i
// and reducing the slots in index order after the call returns.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "pfsem/obs/obs.hpp"

namespace pfsem::exec {

/// Detected hardware parallelism; never less than 1.
[[nodiscard]] int hardware_threads();

/// Map a user-facing --threads value to a concrete thread count:
/// requested <= 0 means "auto" (hardware_threads()), anything else is
/// clamped to hardware_threads() — oversubscribing the host never helps
/// a CPU-bound pool and used to distort the bench scaling curves.
[[nodiscard]] int resolve_threads(int requested);

/// Attach an observability context to every pool created afterwards
/// (nullptr = off, the default). A global because pools are transient —
/// constructed deep inside the analysis functions — and the pool.*
/// metrics are declared Volatile anyway. They are counts that repeat
/// exactly at a fixed thread count (jobs, items, workers); the per-worker
/// steal count is a scheduling race, so it is reported only as the
/// `steals` arg of each worker's `busy` span, never in the registry.
/// Workers tally into private per-participant slots; only the calling
/// thread touches the registry and tracer (after the job's completion
/// barrier), so the non-thread-safe registry contract holds. Pool spans
/// carry wall-clock timestamps relative to the Run's creation, keyed by
/// worker index, not thread id.
void set_observer(obs::Run* run);

class ThreadPool {
 public:
  /// A pool of `threads` participants (0 = auto). Spawns threads-1
  /// workers; the thread calling parallel_for is the final participant.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const { return nthreads_; }

  /// Run body(i) for every i in [0, n), then return. The first
  /// exception thrown by any body is rethrown here (the remaining
  /// ranges are drained without executing). Not reentrant: do not call
  /// parallel_for from inside a body on the same pool.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

 private:
  struct Range {
    std::size_t begin = 0, end = 0;
  };
  /// One participant's task queue. A mutex-guarded deque keeps the
  /// stealing protocol obviously correct (and TSan-clean); the ranges
  /// are coarse enough that the lock is not a bottleneck.
  struct TaskDeque {
    std::mutex m;
    std::deque<Range> q;
  };

  /// Per-participant observability tallies for the current job. Each
  /// participant writes only its own slot while the job runs; the
  /// calling thread merges every slot into the registry after the
  /// completion barrier (the release-sequence through outstanding_'s
  /// RMW chain makes the slots visible).
  struct WorkerStats {
    std::uint64_t items = 0;
    std::uint64_t steals = 0;
    std::int64_t t0 = 0;  ///< wall ns at first executed range
    std::int64_t t1 = 0;  ///< wall ns after last executed range
    bool active = false;
  };

  bool pop_local(std::size_t who, Range& out);
  bool steal(std::size_t thief, Range& out);
  void worker_loop(std::size_t who);
  /// Pop/steal/execute until the current job has no outstanding items.
  void participate(std::size_t who);
  /// Merge the per-participant tallies into the observer (caller only).
  void publish_stats();

  int nthreads_;
  std::vector<std::unique_ptr<TaskDeque>> deques_;  // slot 0 = caller
  std::vector<std::thread> workers_;                // nthreads_-1 helpers

  std::mutex job_m_;
  std::condition_variable job_cv_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::uint64_t epoch_ = 0;
  bool shutdown_ = false;

  std::atomic<std::size_t> outstanding_{0};  // items not yet finished
  std::atomic<bool> failed_{false};
  std::mutex error_m_;
  std::exception_ptr error_;

  /// Observability of the current job (nullptr = off). Published to the
  /// workers through the same edges as job_ (see parallel_for).
  obs::Run* job_obs_ = nullptr;
  std::vector<WorkerStats> stats_;  // one slot per participant
};

/// Convenience: run body(0..n-1) on a transient pool of `threads`
/// participants. threads==1 executes inline with zero pool setup.
void parallel_for(int threads, std::size_t n,
                  const std::function<void(std::size_t)>& body);

}  // namespace pfsem::exec
