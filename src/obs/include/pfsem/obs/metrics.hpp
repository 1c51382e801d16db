#pragma once
// pfsem::obs metrics: a registry of named counters, gauges, and
// log2-bucketed histograms that is deterministic by construction.
//
// Hot-path discipline: handles are registered once at wiring time (cold)
// and are plain indices into flat arrays, so an update is one add/store
// behind the caller's single `if (obs != nullptr)` branch — the whole
// cost of compiled-in-but-disabled observability.
//
// Determinism contract: a metric registered `Stability::Stable` may
// derive only from simulated time and event counts — never wall clock,
// thread ids, or scheduling races — so the stable dump is byte-identical
// across `--threads N` and stream modes and can itself be diff-tested
// (tests/test_obs.cpp). Implementation-dependent values (pool job
// counts, chunk-flush occupancy) must be registered
// `Stability::Volatile`; dump() excludes them unless asked. A Volatile
// metric may vary with --threads and stream mode, but it still repeats
// exactly for a fixed configuration on a fixed host, so obs-diff on two
// identical runs passes. The outcome of a race (which worker stole which
// range) is neither: it belongs on trace spans, never in the registry.
//
// The registry is not thread-safe: updates must come from one thread at
// a time (the DES simulation is single-threaded; the analysis pool
// accumulates per-worker and publishes from the calling thread).

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "pfsem/util/error.hpp"

namespace pfsem::obs {

/// Whether a metric participates in the byte-identical stable dump
/// (see file comment).
enum class Stability : std::uint8_t { Stable, Volatile };

/// Typed hot-path handles: plain slots into the kind-specific arrays.
struct Counter {
  std::uint32_t slot = 0;
};
struct Gauge {
  std::uint32_t slot = 0;
};
struct Hist {
  std::uint32_t slot = 0;
};

class MetricsRegistry {
 public:
  /// Histogram buckets: bucket 0 holds value 0; bucket k (1..64) holds
  /// values in [2^(k-1), 2^k); bucket 64 is the open-ended overflow
  /// bucket (it also catches every value with the top bit set).
  static constexpr std::size_t kHistBuckets = 65;

  /// Register (or re-find) a metric. Registering an existing name
  /// returns the existing handle; the kind and stability must match.
  Counter counter(const std::string& name, Stability st = Stability::Stable);
  Gauge gauge(const std::string& name, Stability st = Stability::Stable);
  Hist histogram(const std::string& name, Stability st = Stability::Stable);

  // --- hot-path updates -------------------------------------------------
  void add(Counter c, std::uint64_t delta = 1) {
    counters_[c.slot].value += delta;
  }
  void set(Gauge g, std::int64_t v) { gauges_[g.slot].value = v; }
  void observe(Hist h, std::uint64_t v) {
    HistData& d = hists_[h.slot];
    ++d.buckets[bucket_of(v)];
    ++d.count;
    d.sum += v;  // u64 wrap-around is well-defined and deterministic
  }

  // --- introspection ----------------------------------------------------
  [[nodiscard]] std::uint64_t value(Counter c) const {
    return counters_[c.slot].value;
  }
  [[nodiscard]] std::int64_t value(Gauge g) const {
    return gauges_[g.slot].value;
  }
  [[nodiscard]] std::uint64_t count(Hist h) const { return hists_[h.slot].count; }
  [[nodiscard]] std::uint64_t sum(Hist h) const { return hists_[h.slot].sum; }
  [[nodiscard]] std::uint64_t bucket(Hist h, std::size_t k) const {
    return hists_[h.slot].buckets[k];
  }

  /// Bucket index for `v` (see kHistBuckets).
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t v);
  /// Human label for bucket k ("0", "[1,2)", "[2^63,inf)").
  [[nodiscard]] static std::string bucket_label(std::size_t k);

  /// Render the registry as text, one metric per line, sorted by name.
  /// The default (stable-only) dump is the byte-diffable artifact;
  /// `include_volatile` appends the implementation-dependent section.
  void dump(std::ostream& os, bool include_volatile = false) const;

  /// Render one stability class as the body of a JSON object: three
  /// name-sorted sub-objects ("counters", "gauges", "hists"; hists carry
  /// count/sum and the sparse non-zero buckets), each line prefixed by
  /// `indent`. No surrounding braces and no trailing comma — the obs JSON
  /// export (obs/export.hpp) owns the enclosing structure.
  void dump_json(std::ostream& os, Stability want,
                 std::string_view indent) const;

 private:
  struct CounterData {
    std::string name;
    Stability stability;
    std::uint64_t value = 0;
  };
  struct GaugeData {
    std::string name;
    Stability stability;
    std::int64_t value = 0;
  };
  struct HistData {
    std::string name;
    Stability stability;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t buckets[kHistBuckets] = {};
  };
  enum class Kind : std::uint8_t { Counter, Gauge, Hist };

  /// Dedupe table: name -> (kind, slot). Registration-time only.
  std::map<std::string, std::pair<Kind, std::uint32_t>> index_;
  std::vector<CounterData> counters_;
  std::vector<GaugeData> gauges_;
  std::vector<HistData> hists_;
};

}  // namespace pfsem::obs
