#include "capture_kernel.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <vector>

#include "pfsem/trace/serialize.hpp"

namespace pfsem_bench {

namespace {

using namespace pfsem;

double now_seconds() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

}  // namespace

CaptureRun run_capture(int roots, int rounds, int reps) {
  constexpr int kRanks = 64;
  CaptureRun out;
  trace::TraceBundle bundle;
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = now_seconds();
    sim::Engine engine;
    trace::Collector collector(kRanks);
    collector.reserve(kRanks, static_cast<std::size_t>(roots) *
                                  static_cast<std::size_t>(rounds) / kRanks);
    std::vector<FileId> files;
    files.reserve(kRanks);
    for (int f = 0; f < kRanks; ++f) {
      files.push_back(
          collector.intern("/scratch/capture/shard." + std::to_string(f)));
    }
    auto proc = [](sim::Engine* eng, trace::Collector* col, Rank rank,
                   FileId file, int id, int n) -> sim::Task<void> {
      for (int i = 0; i < n; ++i) {
        // Each emitted record rides on a burst of fairness round-trips —
        // the shape of contended collective I/O, where ranks yield many
        // times per operation. Almost all delays are 0 with a sprinkle of
        // short and long delays (the mix is deterministic per task),
        // keeping the pending set ~roots deep.
        for (int s = 0; s < 8; ++s) {
          SimDuration d = 0;
          const int step = i * 8 + s;
          if ((step + id) % 61 == 7) d = 1 + (id % 3);
          if ((step + id) % 257 == 21) d = 100 + (id % 50);
          co_await eng->delay(d);
        }
        trace::Record rec;
        rec.tstart = eng->now();
        rec.tend = eng->now() + 1;
        rec.rank = rank;
        rec.func = trace::Func::pwrite;
        rec.offset = static_cast<Offset>(i) * 4096;
        rec.count = 4096;
        rec.ret = 4096;
        rec.file = file;
        col->emit(rec);
      }
    };
    for (int id = 0; id < roots; ++id) {
      engine.spawn(proc(&engine, &collector, static_cast<Rank>(id % kRanks),
                        files[static_cast<std::size_t>(id % kRanks)], id,
                        rounds));
    }
    engine.run();
    bundle = collector.take();
    out.events = engine.events_dispatched();
    best = std::min(best, now_seconds() - t0);
  }
  out.seconds = best;
  std::ostringstream os;
  trace::write_compact(bundle, os);
  out.compact_bytes = os.str();
  return out;
}

}  // namespace pfsem_bench
