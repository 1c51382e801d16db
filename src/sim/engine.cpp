#include "pfsem/sim/engine.hpp"

#include <algorithm>
#include <utility>

#include "pfsem/util/error.hpp"

namespace pfsem::sim {

void Engine::schedule(SimTime t, std::coroutine_handle<> h) {
  require(t >= now_, "cannot schedule an event in the simulated past");
  queue_.push(Event{t, next_seq_++, h});
}

Engine::Detached Engine::run_root(Task<void> task, std::size_t slot) {
  // Hold the task in this frame so its coroutine outlives every suspension.
  ++live_roots_;
  try {
    co_await delay(0);  // defer the program body to the event loop
    co_await std::move(task);
  } catch (const TaskKilled&) {
    // Fail-stop crash: the task unwound cleanly (its nested coroutine
    // frames are destroyed by normal exception propagation); the run
    // itself is healthy and continues.
    ++killed_roots_;
    if (obs_ != nullptr) obs_->metrics.add(obs_->sim_roots_killed);
  } catch (...) {
    if (!first_error_) first_error_ = std::current_exception();
  }
  --live_roots_;
  roots_[slot].frame = {};
}

void Engine::spawn(Task<void> task, int label) {
  require(task.valid(), "spawn() needs a valid task");
  if (obs_ != nullptr) obs_->metrics.add(obs_->sim_roots);
  // The root suspends at its first delay(0), so it is still live here.
  const std::size_t slot = roots_.size();
  roots_.push_back({{}, label});
  roots_[slot].frame = run_root(std::move(task), slot).frame;
}

void Engine::reclaim_roots() {
  queue_ = {};
  for (Root& root : roots_) {
    if (root.frame) std::exchange(root.frame, {}).destroy();
  }
}

void Engine::run() {
  while (!queue_.empty()) {
    const Event ev = queue_.top();
    queue_.pop();
    now_ = ev.time;
    ++dispatched_;
    if (obs_ != nullptr) obs_->metrics.add(obs_->sim_events);
    ev.handle.resume();
    if (first_error_) break;
  }
  if (obs_ != nullptr) obs_->metrics.set(obs_->sim_end_time, now_);
  if (first_error_) {
    // The other roots cannot be unwound by resuming them (some are
    // parked in wait queues); destroy their frames and report the root
    // cause.
    auto err = first_error_;
    first_error_ = nullptr;
    reclaim_roots();
    std::rethrow_exception(err);
  }
  if (live_roots_ != 0) {
    // Name the blocked roots (labelled spawns carry the rank id) and the
    // simulated time — fault-induced deadlocks are hard to debug blind.
    std::vector<int> labels;
    for (const Root& root : roots_) {
      if (root.frame && root.label >= 0) labels.push_back(root.label);
    }
    std::sort(labels.begin(), labels.end());
    std::string ids;
    for (const int label : labels) {
      if (!ids.empty()) ids += ", ";
      ids += std::to_string(label);
    }
    Error deadlock("simulation deadlock at t=" + std::to_string(now_) +
                   " ns: event queue drained with " +
                   std::to_string(live_roots_) + " root task(s) still blocked" +
                   (ids.empty() ? std::string{}
                                : " (blocked ranks: " + ids + ")"));
    reclaim_roots();
    throw deadlock;
  }
}

}  // namespace pfsem::sim
