#include "pfsem/core/pattern.hpp"

#include <algorithm>
#include <set>
#include <span>

#include "pfsem/exec/pool.hpp"

namespace pfsem::core {

const char* to_string(FileLayout l) {
  switch (l) {
    case FileLayout::Consecutive: return "consecutive";
    case FileLayout::Strided: return "strided";
    case FileLayout::StridedCyclic: return "strided-cyclic";
    case FileLayout::Random: return "random";
  }
  return "?";
}

namespace {

using Seq = std::span<const Access* const>;

void count_transitions(TransitionMix& mix, Seq seq) {
  for (std::size_t i = 1; i < seq.size(); ++i) {
    const Offset prev_end = seq[i - 1]->ext.end;
    const Offset begin = seq[i]->ext.begin;
    if (begin == prev_end) {
      ++mix.consecutive;
    } else if (begin > prev_end) {
      ++mix.monotonic;
    } else {
      ++mix.random;
    }
  }
}

/// Data accesses of the file: metadata-sized ops filtered out, and only
/// the dominant access type kept (a verification read-back must not make
/// a write-streamed file look random, and vice versa). Falls back to the
/// unfiltered list if the filter removes everything.
std::vector<const Access*> data_accesses(const FileLog& file,
                                         const PatternOptions& opts) {
  std::uint64_t wbytes = 0, rbytes = 0;
  for (const auto& a : file.accesses) {
    if (a.ext.size() < opts.min_data_bytes) continue;
    (a.type == AccessType::Write ? wbytes : rbytes) += a.ext.size();
  }
  const AccessType dominant =
      wbytes >= rbytes ? AccessType::Write : AccessType::Read;
  std::vector<const Access*> out;
  for (const auto& a : file.accesses) {
    if (a.ext.size() >= opts.min_data_bytes && a.type == dominant) {
      out.push_back(&a);
    }
  }
  if (out.empty()) {
    for (const auto& a : file.accesses) out.push_back(&a);
  }
  return out;
}

/// True if every adjacent transition moves forward by at most `gap` bytes
/// (interspersed metadata is allowed to fill small gaps).
bool is_consecutive(Seq seq, Offset gap = 0) {
  for (std::size_t i = 1; i < seq.size(); ++i) {
    const Offset begin = seq[i]->ext.begin;
    const Offset prev_end = seq[i - 1]->ext.end;
    if (begin < prev_end || begin > prev_end + gap) return false;
  }
  return true;
}

bool is_monotonic(Seq seq) {
  for (std::size_t i = 1; i < seq.size(); ++i) {
    if (seq[i]->ext.begin < seq[i - 1]->ext.end) return false;
  }
  return true;
}

/// All gaps between successive accesses equal (arithmetic progression of
/// starts with constant stride >= access size).
bool is_arithmetic(Seq seq) {
  if (seq.size() < 2) return false;
  const auto stride = static_cast<std::int64_t>(seq[1]->ext.begin) -
                      static_cast<std::int64_t>(seq[0]->ext.begin);
  if (stride <= 0) return false;
  for (std::size_t i = 1; i < seq.size(); ++i) {
    const auto d = static_cast<std::int64_t>(seq[i]->ext.begin) -
                   static_cast<std::int64_t>(seq[i - 1]->ext.begin);
    if (d != stride) return false;
  }
  return true;
}

/// A sequence of accesses grouped by rank with one stable sort: ranks
/// ascending, each rank's accesses in their original (time) order.
class RankRuns {
 public:
  explicit RankRuns(std::vector<const Access*> seq) : seq_(std::move(seq)) {
    const auto by_rank = [](const Access* a, const Access* b) {
      return a->rank < b->rank;
    };
    if (!std::is_sorted(seq_.begin(), seq_.end(), by_rank)) {
      std::stable_sort(seq_.begin(), seq_.end(), by_rank);
    }
    for (std::size_t i = 0; i < seq_.size(); ++i) {
      if (i == 0 || seq_[i]->rank != seq_[i - 1]->rank) starts_.push_back(i);
    }
    starts_.push_back(seq_.size());
  }

  [[nodiscard]] std::size_t size() const { return starts_.size() - 1; }
  [[nodiscard]] Seq operator[](std::size_t i) const {
    return Seq(seq_).subspan(starts_[i], starts_[i + 1] - starts_[i]);
  }
  /// True if `pred` holds for every rank's run.
  template <class Pred>
  [[nodiscard]] bool all(Pred pred) const {
    for (std::size_t i = 0; i < size(); ++i) {
      if (!pred((*this)[i])) return false;
    }
    return true;
  }

 private:
  std::vector<const Access*> seq_;
  std::vector<std::size_t> starts_;
};

/// Offsets of one "round" (one access per rank), sorted by rank, equally
/// spaced — the paper's "process i accesses offset a*i+b" phase shape.
/// Returns the stride a, or 0 when the round is not affine.
std::int64_t round_stride(std::vector<std::pair<Rank, Offset>> round) {
  if (round.size() < 2) return 0;
  std::sort(round.begin(), round.end());
  const auto stride = static_cast<std::int64_t>(round[1].second) -
                      static_cast<std::int64_t>(round[0].second);
  if (stride <= 0) return 0;
  for (std::size_t i = 1; i < round.size(); ++i) {
    const auto d = static_cast<std::int64_t>(round[i].second) -
                   static_cast<std::int64_t>(round[i - 1].second);
    if (d != stride) return 0;
  }
  return stride;
}

}  // namespace

namespace {

/// Sum per-file TransitionMix partials computed on the pool. Addition is
/// commutative over exact integers, so any completion order yields the
/// identical aggregate.
TransitionMix sum_per_file(const AccessLog& log, int threads,
                           const std::function<TransitionMix(const FileLog&)>& per_file) {
  // One task per store slot (FileId); inactive slots contribute an empty
  // mix and integer sums make the merge order-invariant.
  std::vector<TransitionMix> parts(log.files.size());
  exec::parallel_for(threads, log.files.size(),
                     [&](std::size_t f) { parts[f] = per_file(log.files[f]); });
  TransitionMix mix;
  for (const auto& p : parts) mix += p;
  return mix;
}

}  // namespace

TransitionMix local_transitions(const FileLog& file) {
  TransitionMix mix;
  std::vector<const Access*> seq;
  seq.reserve(file.accesses.size());
  for (const auto& a : file.accesses) seq.push_back(&a);
  const RankRuns per_rank(std::move(seq));
  for (std::size_t i = 0; i < per_rank.size(); ++i) {
    count_transitions(mix, per_rank[i]);
  }
  return mix;
}

TransitionMix global_transitions(const FileLog& file) {
  TransitionMix mix;
  std::vector<const Access*> seq;
  seq.reserve(file.accesses.size());
  for (const auto& a : file.accesses) seq.push_back(&a);  // time order
  count_transitions(mix, seq);
  return mix;
}

TransitionMix local_pattern(const AccessLog& log, int threads) {
  return sum_per_file(log, threads, local_transitions);
}

TransitionMix global_pattern(const AccessLog& log, int threads) {
  return sum_per_file(log, threads, global_transitions);
}

FileLayout classify_file_layout(const FileLog& file, PatternOptions opts) {
  const auto data = data_accesses(file, opts);
  if (data.size() < 2) return FileLayout::Consecutive;

  const RankRuns per_rank(data);

  // Rule 1: every rank's own stream is consecutive (small metadata-fill
  // gaps tolerated). A single writer, or every rank covering the same
  // range, is the paper's "consecutive" class; per-process segments at
  // offset a*i+b (tiled or gapped) are its "strided" class.
  const Offset gap_tol = opts.consecutive_gap_tolerance;
  const bool all_rank_consecutive =
      per_rank.all([gap_tol](Seq seq) { return is_consecutive(seq, gap_tol); });
  if (all_rank_consecutive) {
    if (per_rank.size() == 1) return FileLayout::Consecutive;
    // Per-rank overall segments.
    std::vector<Extent> segs;
    for (std::size_t i = 0; i < per_rank.size(); ++i) {
      const Seq seq = per_rank[i];
      segs.push_back({seq.front()->ext.begin, seq.back()->ext.end});
    }
    std::sort(segs.begin(), segs.end(),
              [](const Extent& a, const Extent& b) { return a.begin < b.begin; });
    const bool identical = std::all_of(
        segs.begin(), segs.end(), [&](const Extent& e) { return e == segs[0]; });
    if (identical) return FileLayout::Consecutive;  // e.g. everyone reads all
    bool disjoint = true;
    for (std::size_t i = 1; i < segs.size(); ++i) {
      if (segs[i].begin < segs[i - 1].end) {
        disjoint = false;
        break;
      }
    }
    if (disjoint) return FileLayout::Strided;  // one segment per process
  }

  // Rule 2: round structure — split the time-ordered stream each time a
  // rank repeats; affine rounds repeated over >= 2 rounds are the
  // collective-I/O "strided cyclic" shape, a single affine round is
  // "strided".
  {
    std::vector<std::vector<std::pair<Rank, Offset>>> rounds;
    std::set<Rank> seen;
    rounds.emplace_back();
    for (const auto* a : data) {
      if (seen.contains(a->rank)) {
        rounds.emplace_back();
        seen.clear();
      }
      seen.insert(a->rank);
      rounds.back().emplace_back(a->rank, a->ext.begin);
    }
    std::size_t multi = 0, affine = 0;
    std::int64_t common_stride = 0;
    bool strides_agree = true;
    for (auto& r : rounds) {
      if (r.size() < 2) continue;
      ++multi;
      const std::int64_t stride = round_stride(r);
      if (stride > 0) {
        ++affine;
        if (common_stride == 0) {
          common_stride = stride;
        } else if (stride != common_stride) {
          strides_agree = false;  // incidental affinity, not a cyclic phase
        }
      }
    }
    if (multi >= 2 && strides_agree && affine * 5 >= multi * 4) {
      return FileLayout::StridedCyclic;
    }
    if (multi == 1 && affine == 1 && rounds.size() <= 2) return FileLayout::Strided;
  }

  // Rule 3: per-rank arithmetic progressions (array-of-structs striding).
  if (per_rank.all([](Seq seq) {
        return seq.size() < 2 || is_arithmetic(seq) || is_consecutive(seq);
      })) {
    return FileLayout::Strided;
  }

  // Rule 4: per-rank monotonic forward progress with irregular gaps
  // (independent-I/O FLASH), still "strided" in the paper's loose sense.
  if (per_rank.all([](Seq seq) { return is_monotonic(seq); })) {
    return FileLayout::Strided;
  }

  return FileLayout::Random;
}

FileFamilyStats file_family_stats(const FileLog& file,
                                  const PatternOptions& opts) {
  const auto data = data_accesses(file, opts);
  FileFamilyStats s;
  std::set<Rank> writers, io_ranks;
  for (const auto* a : data) {
    s.bytes += a->ext.size();
    io_ranks.insert(a->rank);
    if (a->type == AccessType::Write) writers.insert(a->rank);
  }
  s.io_ranks.assign(io_ranks.begin(), io_ranks.end());
  s.writers = writers.size();
  return s;
}

HighLevelPattern classify_families(
    std::span<const FamilyFileInput> files_by_path, int nranks,
    FileId* dominant) {
  *dominant = kNoFile;
  // Group files into families: digit runs in the path are wildcards, so
  // "chk_0001" and "chk_0002" (or per-rank "out.17") are one family.
  auto family_key = [](std::string_view path) {
    std::string key;
    bool in_digits = false;
    for (char ch : path) {
      if (ch >= '0' && ch <= '9') {
        if (!in_digits) key += '#';
        in_digits = true;
      } else {
        key += ch;
        in_digits = false;
      }
    }
    return key;
  };

  struct Family {
    std::uint64_t bytes = 0;
    std::set<Rank> ranks;
    std::size_t max_writers_per_file = 0;
    std::size_t max_io_ranks_per_file = 0;
    int files = 0;
    FileId dominant = kNoFile;
    std::string_view dominant_path;
    std::uint64_t dominant_bytes = 0;
  };
  // Families interned like paths: dense ids, Family slots in a vector.
  // Files are visited in path order (the retired map's iteration order),
  // so dominant-file ties resolve exactly as before.
  trace::PathTable family_keys;
  std::vector<Family> families;
  for (const FamilyFileInput& in : files_by_path) {
    const FileFamilyStats& st = *in.stats;
    if (st.bytes == 0) continue;
    const FileId fam_id = family_keys.intern(family_key(in.path));
    if (fam_id >= families.size()) families.resize(fam_id + 1);
    Family& fam = families[fam_id];
    fam.bytes += st.bytes;
    fam.ranks.insert(st.io_ranks.begin(), st.io_ranks.end());
    fam.max_writers_per_file = std::max(fam.max_writers_per_file, st.writers);
    fam.max_io_ranks_per_file =
        std::max(fam.max_io_ranks_per_file, st.io_ranks.size());
    ++fam.files;
    if (st.bytes > fam.dominant_bytes) {
      fam.dominant_bytes = st.bytes;
      fam.dominant = in.id;
      fam.dominant_path = in.path;
    }
  }

  HighLevelPattern out;
  // Scan families in sorted-key order so byte-count ties pick the same
  // family the string-keyed map did.
  std::vector<FileId> fam_order(families.size());
  for (FileId i = 0; i < families.size(); ++i) fam_order[i] = i;
  std::sort(fam_order.begin(), fam_order.end(), [&](FileId a, FileId b) {
    return family_keys.view(a) < family_keys.view(b);
  });
  const Family* best = nullptr;
  for (const FileId i : fam_order) {
    if (!best || families[i].bytes > best->bytes) best = &families[i];
  }
  if (!best || best->dominant == kNoFile) {
    out.xy = "0-0";
    return out;
  }

  const auto w = static_cast<int>(best->ranks.size());
  const char x = w == nranks ? 'N' : (w == 1 ? '1' : 'M');
  // Sharing shape: per-process files vs one shared file vs group files.
  const std::size_t per_file =
      std::max<std::size_t>(best->max_writers_per_file, 1);
  char y;
  if (per_file <= 1 && best->max_io_ranks_per_file <= 1) {
    y = x;  // matching per-process files: N-N / M-M / 1-1
  } else if (best->max_io_ranks_per_file >= best->ranks.size()) {
    y = '1';  // every participating rank shares each file
  } else {
    y = 'M';  // group files
  }
  out.xy = std::string(1, x) + "-" + std::string(1, y);
  out.io_ranks = w;
  out.family_files = best->files;
  out.dominant_file = std::string(best->dominant_path);
  *dominant = best->dominant;
  return out;
}

HighLevelPattern classify_high_level(const AccessLog& log, int nranks,
                                     PatternOptions opts) {
  const std::vector<FileId> ids = log.ids_by_path();
  std::vector<FileFamilyStats> stats(ids.size());
  std::vector<FamilyFileInput> inputs(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    stats[i] = file_family_stats(log.files[ids[i]], opts);
    inputs[i] = {ids[i], log.path(ids[i]), &stats[i]};
  }
  FileId dominant = kNoFile;
  HighLevelPattern out = classify_families(inputs, nranks, &dominant);
  // Layout resolved here (not inside the aggregation) so the windowed
  // path can substitute the layout it already computed per file.
  if (dominant != kNoFile) {
    out.layout = classify_file_layout(log.files[dominant], opts);
  }
  return out;
}

}  // namespace pfsem::core
