// ThreadSanitizer exercise for pfsem::exec (built only when -DPFSEM_TSAN=ON;
// plain main so the gtest runtime doesn't pollute the TSan report). Drives
// the pool through the access patterns the analysis pipeline uses — slot
// writes, shared read-only input, repeated jobs, exceptions — so a data
// race in the deque/steal/publication logic shows up as a TSan error and a
// nonzero exit.

#include <atomic>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "pfsem/exec/pool.hpp"
#include "pfsem/obs/obs.hpp"
#include "pfsem/trace/collector.hpp"

int main() {
  using pfsem::exec::ThreadPool;

  // Slot-write pattern: every task writes its own slot, caller reduces.
  for (const int threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    const std::vector<int> input(20'000, 3);
    std::vector<long> out(input.size());
    for (int round = 0; round < 20; ++round) {
      pool.parallel_for(input.size(),
                        [&](std::size_t i) { out[i] = input[i] * round; });
      const long sum = std::accumulate(out.begin(), out.end(), 0l);
      if (sum != static_cast<long>(input.size()) * 3 * round) {
        std::fprintf(stderr, "bad sum %ld in round %d\n", sum, round);
        return 1;
      }
    }

    // Atomic-counter pattern + exception propagation under contention.
    std::atomic<int> hits{0};
    try {
      pool.parallel_for(10'000, [&](std::size_t i) {
        ++hits;
        if (i == 9'999) throw std::runtime_error("expected");
      });
    } catch (const std::runtime_error&) {
    }
    // Pool must stay usable after a failed job.
    hits = 0;
    pool.parallel_for(1'000, [&](std::size_t) { ++hits; });
    if (hits.load() != 1'000) {
      std::fprintf(stderr, "pool broken after exception: %d\n", hits.load());
      return 1;
    }

    // Concurrent per-shard capture: each pool task owns an independent
    // Collector, drives its emission path (reserve, emit, take), and
    // publishes its bundle into its own slot. Any hidden shared
    // state in the collector internals would trip TSan here.
    constexpr std::size_t kShards = 16;
    std::vector<pfsem::trace::TraceBundle> bundles(kShards);
    pool.parallel_for(kShards, [&](std::size_t shard) {
      pfsem::trace::Collector collector(4);
      collector.reserve(4, 256);
      const auto file =
          collector.intern("/tsan/shard." + std::to_string(shard));
      for (int i = 0; i < 1'000; ++i) {
        pfsem::trace::Record rec;
        rec.tstart = i;
        rec.tend = i + 1;
        rec.rank = static_cast<pfsem::Rank>(i % 4);
        rec.func = pfsem::trace::Func::pwrite;
        rec.offset = static_cast<pfsem::Offset>(i) * 64;
        rec.count = 64;
        rec.ret = 64;
        rec.file = file;
        collector.emit(rec);
      }
      bundles[shard] = collector.take();
    });
    for (std::size_t shard = 0; shard < kShards; ++shard) {
      if (bundles[shard].records.size() != 1'000 ||
          bundles[shard].file_op_counts.size() != 1) {
        std::fprintf(stderr, "bad shard bundle %zu\n", shard);
        return 1;
      }
    }

    // Observer pattern: workers tally into per-participant stats slots
    // while the caller merges them after the completion barrier — the
    // release sequence through the outstanding-counter RMW chain is the
    // only thing making the slots visible, so TSan must bless it here.
    pfsem::obs::Run run(
        pfsem::obs::Config{.metrics = true, .tracing = true});
    pfsem::exec::set_observer(&run);
    std::atomic<long> seen{0};
    for (int round = 0; round < 10; ++round) {
      pool.parallel_for(20'000, [&](std::size_t) {
        seen.fetch_add(1, std::memory_order_relaxed);
      });
    }
    pfsem::exec::set_observer(nullptr);
    if (run.metrics.value(run.pool_jobs) != 10 ||
        run.metrics.value(run.pool_items) != 200'000) {
      std::fprintf(stderr, "observer lost work: jobs=%llu items=%llu\n",
                   static_cast<unsigned long long>(
                       run.metrics.value(run.pool_jobs)),
                   static_cast<unsigned long long>(
                       run.metrics.value(run.pool_items)));
      return 1;
    }
  }
  std::puts("tsan exercise passed");
  return 0;
}
