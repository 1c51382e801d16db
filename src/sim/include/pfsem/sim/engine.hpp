#pragma once
// Discrete-event simulation engine.
//
// Single-threaded and fully deterministic: events fire in (time, insertion
// sequence) order, so a given workload + seed always produces bit-identical
// traces. Rank programs are coroutines spawned as root tasks; they advance
// simulated time only through `co_await engine.delay(d)` (directly or via
// the I/O-cost models layered above).
//
// The event queue is a binary heap ordered by (time, insertion seq).
// tests/test_sim_determinism.cpp checks that order as a property over
// seeded random schedules, and tests/test_capture_golden.cpp pins the
// traces it produces for every registered app.

#include <coroutine>
#include <cstdint>
#include <exception>
#include <queue>
#include <vector>

#include "pfsem/obs/obs.hpp"
#include "pfsem/sim/task.hpp"
#include "pfsem/util/types.hpp"

namespace pfsem::sim {

/// Thrown inside a root task to terminate it cleanly (fail-stop crash
/// injection: pfsem::fault). The engine absorbs it — the root unwinds,
/// counts as killed rather than failed, and the simulation continues.
class TaskKilled : public std::exception {
 public:
  explicit TaskKilled(int label = -1) : label_(label) {}
  /// The spawn() label (the harness passes the rank) of the killed task.
  [[nodiscard]] int label() const noexcept { return label_; }
  [[nodiscard]] const char* what() const noexcept override {
    return "simulated task killed (fail-stop crash)";
  }

 private:
  int label_;
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time (global, skew-free).
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule a coroutine to resume at absolute time `t` (>= now).
  void schedule(SimTime t, std::coroutine_handle<> h);

  /// Awaiter of delay(): suspends the caller for `dur` simulated
  /// nanoseconds, counted from the co_await.
  struct [[nodiscard]] Delay {
    Engine* engine;
    SimDuration dur;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      engine->schedule(engine->now_ + dur, h);
    }
    void await_resume() const noexcept {}
  };

  /// Awaitable that suspends the caller for `d` simulated nanoseconds.
  /// delay(0) still round-trips through the event queue, which gives every
  /// runnable coroutine a fair, deterministic turn.
  [[nodiscard]] Delay delay(SimDuration d) { return Delay{this, d}; }

  /// Launch a root task (e.g. one simulated rank's program). The engine
  /// owns it; it starts when run() reaches time 0. `label` identifies the
  /// task in deadlock diagnostics (the harness passes the rank; -1 =
  /// anonymous, omitted from messages).
  void spawn(Task<void> task, int label = -1);

  /// Run until the event queue drains. Throws the first unhandled exception
  /// from any root task, or pfsem::Error if roots are still blocked when the
  /// queue empties (deadlock, e.g. a barrier some rank never reaches); the
  /// deadlock message lists the blocked ranks' labels and the simulated
  /// time. A root that exits via TaskKilled is absorbed (see killed_roots).
  /// Before throwing, run() drops the pending events and destroys every
  /// unfinished root's coroutine frames: nothing could resume them, and a
  /// failed run must not leak. The engine cannot be run again after that.
  void run();

  /// Number of root tasks that have not yet finished.
  [[nodiscard]] int live_roots() const { return live_roots_; }

  /// Number of root tasks terminated by TaskKilled (fail-stop crashes).
  [[nodiscard]] int killed_roots() const { return killed_roots_; }

  /// Total events dispatched so far (for tests/benches).
  [[nodiscard]] std::uint64_t events_dispatched() const { return dispatched_; }

  /// Attach an observability context (nullptr = off, the default). The
  /// engine then counts dispatches, spawned and killed roots, and the
  /// simulated end time. Call before run().
  void set_observer(obs::Run* run) { obs_ = run; }

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    std::coroutine_handle<> handle;
    bool operator>(const Event& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };

  // Fire-and-forget wrapper that owns a root Task for its whole run. The
  // frame frees itself on completion; `frame` lets a failed run() destroy
  // a root that never completes.
  struct Detached {
    struct promise_type {
      Detached get_return_object() {
        return {std::coroutine_handle<promise_type>::from_promise(*this)};
      }
      std::suspend_never initial_suspend() noexcept { return {}; }
      std::suspend_never final_suspend() noexcept { return {}; }
      void return_void() noexcept {}
      void unhandled_exception() noexcept { std::terminate(); }  // run_root catches
    };
    std::coroutine_handle<> frame;
  };
  /// `slot` indexes roots_; the root clears its frame when it finishes.
  Detached run_root(Task<void> task, std::size_t slot);

  /// Drop every pending event and destroy the frames of unfinished roots
  /// (each destroys the nested task frames it owns). Failed runs only.
  void reclaim_roots();

  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  int live_roots_ = 0;
  int killed_roots_ = 0;
  /// Every spawned root, by spawn order. The frame is null once the root
  /// finished; the label names it in deadlock diagnostics.
  struct Root {
    std::coroutine_handle<> frame;
    int label = -1;
  };
  std::vector<Root> roots_;
  std::exception_ptr first_error_;

  /// Observability (off = nullptr; one branch per hot-path site).
  obs::Run* obs_ = nullptr;
};

}  // namespace pfsem::sim
