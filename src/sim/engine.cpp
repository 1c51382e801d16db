#include "pfsem/sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "pfsem/util/error.hpp"

namespace pfsem::sim {

void Engine::schedule(SimTime t, std::coroutine_handle<> h) {
  require(t >= now_, "cannot schedule an event in the simulated past");
  const std::uint64_t seq = next_seq_++;
  if (kind_ == SchedulerKind::Heap || t - now_ >= kRingWindow) {
    if (obs_ != nullptr) obs_->metrics.add(obs_->sim_heap_scheduled);
    queue_.push(Event{t, seq, h});
    return;
  }
  const auto slot = static_cast<std::size_t>(t & (kRingWindow - 1));
  Bucket& b = ring_[slot];
  if (b.empty()) {
    b.time = t;
    b.head = 0;
    b.entries.clear();  // keeps capacity from earlier occupancies
    ring_mask_ |= std::uint64_t{1} << slot;
  }
  // Injectivity of [now, now+W) -> slots guarantees one time per bucket.
  b.entries.emplace_back(seq, h);
}

Engine::Bucket* Engine::ring_front() {
  if (ring_mask_ == 0) return nullptr;
  // Rotate the occupancy mask so now's slot is bit 0; the count of trailing
  // zeros is then the distance to the earliest occupied bucket, because
  // every pending ring time lives in [now, now + kRingWindow).
  const auto base = static_cast<unsigned>(now_ & (kRingWindow - 1));
  const int d = std::countr_zero(std::rotr(ring_mask_, base));
  return &ring_[(base + static_cast<unsigned>(d)) & (kRingWindow - 1)];
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
  for (Bucket& b : ring_) {
    b.entries.clear();
    b.head = 0;
  }
  ring_mask_ = 0;
  queue_ = {};
  for (Root& root : roots_) {
    if (root.frame) std::exchange(root.frame, {}).destroy();
  }
}

void Engine::note_dispatch(bool ring) {
  obs_->metrics.add(obs_->sim_events);
  obs_->metrics.add(ring ? obs_->sim_ring_pops : obs_->sim_heap_pops);
  if (!obs_->tracing()) return;
  // Aggregate consecutive same-tier dispatches into one span: tier
  // switches are rare, so the span count stays far below the event
  // count while Perfetto still shows which tier served which interval.
  if (tier_run_.open && tier_run_.ring == ring) {
    tier_run_.last = now_;
    ++tier_run_.events;
    return;
  }
  flush_tier_span();
  tier_run_ = {true, ring, now_, now_, 1};
}

void Engine::flush_tier_span() {
  if (!tier_run_.open) return;
  obs_->tracer.complete(
      {obs::kPidSim, tier_run_.ring ? 0 : 1},
      tier_run_.ring ? "ring" : "heap", tier_run_.t0,
      tier_run_.last - tier_run_.t0,
      {"events", static_cast<std::int64_t>(tier_run_.events)});
  tier_run_.open = false;
}

void Engine::run() {
  while (ring_mask_ != 0 || !queue_.empty()) {
    Bucket* b = ring_front();
    // A same-time burst appends to the bucket being drained, so the (time,
    // seq) winner may sit in either tier; compare front against heap top.
    bool use_ring = b != nullptr;
    if (b != nullptr && !queue_.empty()) {
      const Event& top = queue_.top();
      use_ring = b->time != top.time ? b->time < top.time
                                     : b->entries[b->head].first < top.seq;
    }
    std::coroutine_handle<> h;
    if (use_ring) {
      now_ = b->time;
      h = b->entries[b->head++].second;
      if (b->empty()) {
        b->head = 0;
        b->entries.clear();
        ring_mask_ &=
            ~(std::uint64_t{1} << static_cast<std::size_t>(
                  b - ring_.data()));
      } else if (b->head >= 4096 && b->head * 2 >= b->entries.size()) {
        // Long same-time bursts push while we pop; drop the consumed
        // prefix once it dominates so the bucket stays memory-bounded.
        if (obs_ != nullptr) {
          obs_->metrics.add(obs_->sim_compactions);
          if (obs_->tracing()) {
            obs_->tracer.instant({obs::kPidSim, 0}, "compaction", now_,
                                 {"dropped", static_cast<std::int64_t>(b->head)});
          }
        }
        b->entries.erase(b->entries.begin(),
                         b->entries.begin() +
                             static_cast<std::ptrdiff_t>(b->head));
        b->head = 0;
      }
    } else {
      const Event ev = queue_.top();
      queue_.pop();
      now_ = ev.time;
      h = ev.handle;
    }
    ++dispatched_;
    if (obs_ != nullptr) note_dispatch(use_ring);
    h.resume();
    if (first_error_) break;
  }
  if (obs_ != nullptr) {
    flush_tier_span();
    obs_->metrics.set(obs_->sim_end_time, now_);
  }
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
