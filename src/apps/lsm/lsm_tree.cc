#include "apps/lsm/lsm_tree.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <sstream>
#include <utility>

#include "core/filter_io.h"
#include "core/sizing.h"
#include "expandable/ring_filter.h"
#include "expandable/taffy_filter.h"

namespace bbf::lsm {

namespace {

// The one merge of "the newest version wins, and a tombstone hides older
// ones": one pass over key-sorted entry spans ordered newest to oldest.
// Each key comes out once, from the newest span holding it, and
// tombstones are dropped when `drop_tombstones` is set. With k spans and
// n entries this costs O(n·k) key comparisons; a compaction merges one
// level's runs and at most one more, and a scan the memtable and every
// run, so k stays small.
std::vector<Entry> MergeNewestFirst(
    std::span<const std::span<const Entry>> sources, bool drop_tombstones) {
  struct Cursor {
    const Entry* at;
    const Entry* end;
  };
  std::vector<Cursor> cursors;
  cursors.reserve(sources.size());
  size_t total = 0;
  for (std::span<const Entry> e : sources) {
    if (e.empty()) continue;
    cursors.push_back({e.data(), e.data() + e.size()});
    total += e.size();
  }
  std::vector<Entry> out;
  out.reserve(total);
  while (!cursors.empty()) {
    // The smallest head key; on a tie the earlier (newer) cursor wins.
    const Entry* winner = cursors.front().at;
    for (const Cursor& c : cursors) {
      if (c.at->key < winner->key) winner = c.at;
    }
    const uint64_t key = winner->key;
    if (!(winner->tombstone && drop_tombstones)) out.push_back(*winner);
    // Step past `key` in every span that holds it, dropping spent spans.
    for (size_t i = 0; i < cursors.size();) {
      Cursor& c = cursors[i];
      if (c.at->key == key && ++c.at == c.end) {
        cursors.erase(cursors.begin() + i);
      } else {
        ++i;
      }
    }
  }
  return out;
}

}  // namespace

LsmTree::LsmTree(LsmOptions options, StorageEnv* env)
    : options_(std::move(options)), env_(env != nullptr ? env : RealEnv()) {
  if (!options_.dir.empty()) {
    env_->CreateDir(options_.dir);
    store_ = std::make_unique<ManifestStore>(options_.dir, env_);
  }
  memtable_filter_ = MakeMemtableFilter();
}

std::unique_ptr<LsmTree> LsmTree::Open(LsmOptions options, StorageEnv* env) {
  auto tree =
      std::unique_ptr<LsmTree>(new LsmTree(std::move(options), env));
  if (tree->store_ != nullptr && !tree->RecoverOrInit()) return nullptr;
  return tree;
}

bool LsmTree::RecoverOrInit() {
  bool current_ok = false;
  const std::vector<std::string> candidates =
      store_->CandidateManifests(&current_ok);
  if (!current_ok && !candidates.empty()) ++recovery_.manifest_fallbacks;
  bool loaded = candidates.empty();  // Fresh directory: nothing to load.
  for (const std::string& name : candidates) {
    ManifestData m;
    if (!store_->ReadManifest(name, &m) || !LoadGeneration(m)) {
      ++recovery_.manifest_fallbacks;
      continue;
    }
    generation_ = m.generation;
    next_run_id_ = m.next_run_id;
    committed_ = std::move(m);
    loaded = true;
    break;
  }
  // Manifests exist but none yields a loadable generation: fail cleanly
  // rather than serve an empty tree as if it were the data.
  if (!loaded) return false;
  recovery_.generations_committed = generation_;
  ReplayWal();
  // No GC here on purpose: stale manifests widen the fallback pool until
  // the next commit's GC trims it, and orphaned run files from a crashed
  // generation are overwritten atomically when their ids are reused.
  return true;
}

bool LsmTree::LoadGeneration(const ManifestData& m) {
  std::vector<Level> levels(m.levels.size());
  uint64_t quarantined = 0;
  for (size_t li = 0; li < m.levels.size(); ++li) {
    for (const RunManifest& rm : m.levels[li].runs) {
      // Run data is a hard requirement — a run we cannot read means this
      // generation is unusable (the caller falls back to an older one).
      std::string bytes;
      if (!env_->ReadFileBytes(store_->PathOf(RunDataFileName(rm.id)),
                               &bytes)) {
        return false;
      }
      std::istringstream ds(bytes);
      std::vector<Entry> entries;
      if (!SortedRun::LoadData(ds, &entries) || entries.size() != rm.entries) {
        return false;
      }
      // Filters are soft: a corrupt frame quarantines the run (served
      // filterless, rebuilt from its key stream at the next flush)
      // instead of failing recovery.
      std::unique_ptr<Filter> pf;
      bool point_quarantined = false;
      if (rm.has_point_filter) {
        std::string pf_bytes;
        if (env_->ReadFileBytes(store_->PathOf(PointFilterFileName(rm.id)),
                                &pf_bytes)) {
          std::istringstream ps(pf_bytes);
          pf = LoadFilterSnapshot(ps);
        }
        if (pf == nullptr) {
          point_quarantined = true;
          ++quarantined;
        }
      }
      std::unique_ptr<RangeFilter> rf;
      bool range_quarantined = false;
      if (rm.has_range_filter) {
        std::string rf_bytes;
        if (env_->ReadFileBytes(store_->PathOf(RangeFilterFileName(rm.id)),
                                &rf_bytes)) {
          std::istringstream rs(rf_bytes);
          rf = LoadRangeFilterSnapshot(rs);
        }
        if (rf == nullptr) {
          range_quarantined = true;
          ++quarantined;
        }
      }
      levels[li].runs.push_back(std::make_shared<SortedRun>(
          rm.id, std::move(entries), std::move(pf), point_quarantined,
          std::move(rf), range_quarantined));
    }
  }
  levels_ = std::move(levels);
  recovery_.filters_quarantined += quarantined;
  return true;
}

void LsmTree::ReplayWal() {
  std::string bytes;
  if (!env_->ReadFileBytes(store_->PathOf(kWalFileName), &bytes)) return;
  std::vector<Entry> records;
  recovery_.wal_records_replayed = DecodeWalRecords(bytes, &records);
  for (const Entry& e : records) {
    ApplyWrite(e);
    ++ingested_;
  }
  // Rewrite the log to exactly the replayed prefix: a torn tail frame
  // would otherwise wedge the log (appends after it could never be
  // decoded past the bad frame).
  std::string valid;
  for (const Entry& e : records) valid += EncodeWalRecord(e);
  wal_.reset();  // A held WAL handle would outlive the file it names.
  store_->WriteFileAtomic(kWalFileName, valid);
  if (memtable_.size() >= options_.memtable_entries) FlushMemtable();
}

void LsmTree::ApplyWrite(const Entry& e) {
  const bool fresh = memtable_.find(e.key) == memtable_.end();
  memtable_[e.key] = e;
  if (fresh && memtable_filter_ != nullptr &&
      !memtable_filter_->Insert(e.key)) {
    // An expandable filter refusing an insert is out of policy; drop it
    // and let the flush build the L0 filter from scratch instead.
    memtable_filter_ = nullptr;
  }
}

bool LsmTree::Put(uint64_t key, uint64_t value) {
  return LogAndApply({key, value, false});
}

bool LsmTree::Delete(uint64_t key) { return LogAndApply({key, 0, true}); }

bool LsmTree::LogAndApply(const Entry& e) {
  bool acked = true;
  if (store_ != nullptr) {
    if (wal_ == nullptr) {
      wal_ = env_->OpenAppender(store_->PathOf(kWalFileName));
    }
    acked = wal_ != nullptr && wal_->Append(EncodeWalRecord(e));
    if (!acked) {
      ++wal_append_failures_total_;
      wal_.reset();  // The next append reopens.
    }
  }
  ApplyWrite(e);
  ++ingested_;
  if (memtable_.size() >= options_.memtable_entries) FlushMemtable();
  return acked;
}

std::optional<uint64_t> LsmTree::Get(uint64_t key) {
  const uint64_t quarantined_before = io_.quarantined_reads;
  const auto result = [&]() -> std::optional<uint64_t> {
    const auto mit = memtable_.find(key);
    if (mit != memtable_.end()) {
      if (mit->second.tombstone) return std::nullopt;
      return mit->second.value;
    }
    for (const Level& level : levels_) {
      for (const auto& run : level.runs) {  // Newest first within a level.
        const std::optional<Entry> e = run->Get(key, &io_);
        if (e.has_value()) {
          if (e->tombstone) return std::nullopt;
          return e->value;
        }
      }
    }
    return std::nullopt;
  }();
  quarantined_reads_total_ += io_.quarantined_reads - quarantined_before;
  return result;
}

std::vector<std::pair<uint64_t, uint64_t>> LsmTree::Scan(uint64_t lo,
                                                         uint64_t hi) {
  const uint64_t quarantined_before = io_.quarantined_reads;
  // Each source's matches, newest source first: the memtable, then every
  // run. `ends[i]` is where source i's entries end in `scanned`.
  std::vector<Entry> scanned;
  std::vector<size_t> ends;
  for (auto it = memtable_.lower_bound(lo);
       it != memtable_.end() && it->first <= hi; ++it) {
    scanned.push_back(it->second);
  }
  ends.push_back(scanned.size());
  for (const Level& level : levels_) {
    for (const auto& run : level.runs) {
      run->Scan(lo, hi, &scanned, &io_);
      ends.push_back(scanned.size());
    }
  }
  std::vector<std::span<const Entry>> sources;
  sources.reserve(ends.size());
  size_t begin = 0;
  for (size_t end : ends) {
    sources.emplace_back(scanned.data() + begin, end - begin);
    begin = end;
  }
  std::vector<std::pair<uint64_t, uint64_t>> out;
  for (const Entry& e : MergeNewestFirst(sources, /*drop_tombstones=*/true)) {
    out.emplace_back(e.key, e.value);
  }
  quarantined_reads_total_ += io_.quarantined_reads - quarantined_before;
  return out;
}

uint64_t LsmTree::LevelCapacity(size_t level_idx) const {
  // Level i holds up to memtable * T^(i+1) entries.
  double cap = static_cast<double>(options_.memtable_entries);
  for (size_t i = 0; i <= level_idx; ++i) cap *= options_.size_ratio;
  return static_cast<uint64_t>(cap);
}

double LsmTree::PointBitsForLevel(size_t level_idx) const {
  if (options_.allocation == FilterAllocation::kUniform ||
      options_.point_filter == PointFilterKind::kNone) {
    return options_.point_bits_per_key;
  }
  // Monkey: FPR_i = eps0 / T^(L-1-i) — the bottom level carries the base
  // rate, each smaller level a T-times lower one, so the SUM of FPRs (the
  // expected wasted I/Os per negative lookup) converges to eps0*T/(T-1)
  // instead of growing linearly in L.
  //
  // Memory matching: level i spends 1.44*lg(T) extra bits per key per
  // level of distance from the bottom, but holds a T^-distance fraction
  // of the keys, so the total overhead versus uniform allocation is
  // 1.44*lg(T)*sum(j T^-j) = 1.44*lg(T)*T/(T-1)^2 bits/key. We give the
  // bottom level that much less so total memory matches the uniform
  // budget.
  const size_t num_levels = std::max<size_t>(levels_.size(), 1);
  const double t = static_cast<double>(options_.size_ratio);
  const double overhead = 1.44 * std::log2(t) * t / ((t - 1) * (t - 1));
  const double base_bits =
      std::max(1.0, options_.point_bits_per_key - overhead);
  const double base_fpr = std::exp2(-base_bits / 1.44);
  const double distance =
      static_cast<double>(num_levels - 1 -
                          std::min(level_idx, num_levels - 1));
  const double fpr = base_fpr / std::pow(t, distance);
  return -std::log2(std::max(fpr, 1e-12)) * 1.44;
}

std::shared_ptr<SortedRun> LsmTree::BuildRun(std::vector<Entry> entries,
                                             size_t level_idx) {
  return std::make_shared<SortedRun>(
      next_run_id_++, std::move(entries), options_.point_filter,
      PointBitsForLevel(level_idx), options_.range_filter,
      options_.range_bits_per_key, ++run_seed_);
}

std::unique_ptr<Filter> LsmTree::MakeMemtableFilter() const {
  if (options_.point_filter == PointFilterKind::kNone) return nullptr;
  switch (options_.memtable_filter) {
    case MemtableFilterKind::kNone:
      return nullptr;
    case MemtableFilterKind::kTaffy: {
      // Size for the flush threshold at the max load factor; expansion
      // covers overshoot (replays of an over-threshold WAL).
      const uint64_t target = std::max<uint64_t>(options_.memtable_entries, 64);
      const int q_bits = QuotientBitsFor(target, TaffyFilter::kMaxLoadFactor);
      const int fp_bits = std::max(
          4, static_cast<int>(std::lround(options_.point_bits_per_key)) - 4);
      return std::make_unique<TaffyFilter>(q_bits, fp_bits,
                                           0x15A + run_seed_);
    }
    case MemtableFilterKind::kRing: {
      const int r_bits = std::max(
          4, static_cast<int>(std::lround(options_.point_bits_per_key)));
      return std::make_unique<RingFilter>(
          r_bits, std::max<uint64_t>(options_.memtable_entries, 256),
          0x15A + run_seed_);
    }
  }
  return nullptr;
}

void LsmTree::FlushMemtable() {
  if (memtable_.empty()) return;
  std::vector<Entry> entries;
  entries.reserve(memtable_.size());
  for (const auto& [k, e] : memtable_) entries.push_back(e);
  memtable_.clear();
  if (levels_.empty()) levels_.emplace_back();
  std::shared_ptr<SortedRun> run;
  if (memtable_filter_ != nullptr) {
    // Adoption (§13): the expandable memtable filter already covers
    // exactly these keys, so the L0 run takes it whole — no
    // rebuild-on-flush (the Taffy/Aleph argument).
    run = std::make_shared<SortedRun>(
        next_run_id_++, std::move(entries), std::move(memtable_filter_),
        options_.range_filter, options_.range_bits_per_key);
  } else {
    run = BuildRun(std::move(entries), 0);
  }
  memtable_filter_ = MakeMemtableFilter();
  levels_[0].runs.insert(levels_[0].runs.begin(), std::move(run));
  MaybeCompact(0);
  RebuildMissingFilters();
  PersistGeneration();
}

void LsmTree::MaybeCompact(size_t level_idx) {
  if (level_idx >= levels_.size()) return;
  uint64_t level_entries = 0;
  for (const auto& run : levels_[level_idx].runs) {
    level_entries += run->size();
  }
  const size_t max_runs = options_.tiering
                              ? static_cast<size_t>(options_.size_ratio)
                              : 1;
  const bool overflow = options_.tiering
                            ? levels_[level_idx].runs.size() > max_runs
                            : level_entries > LevelCapacity(level_idx);
  if (!overflow || levels_[level_idx].runs.empty()) return;

  // Merge every run of this level with the next level's runs. NOTE:
  // emplace_back can reallocate levels_, so only index-based access here.
  if (level_idx + 1 >= levels_.size()) levels_.emplace_back();
  std::vector<std::shared_ptr<SortedRun>> sources = levels_[level_idx].runs;
  if (!options_.tiering) {
    // Leveling: the next level's single run participates in the merge.
    for (const auto& run : levels_[level_idx + 1].runs) {
      sources.push_back(run);
    }
    levels_[level_idx + 1].runs.clear();
  }
  levels_[level_idx].runs.clear();

  // Tombstones may only be dropped when nothing older can resurrect the
  // key: the destination is the last level and (under tiering) holds no
  // older runs that escaped this merge.
  const bool bottom_level =
      level_idx + 2 >= levels_.size() &&
      (!options_.tiering || levels_[level_idx + 1].runs.empty());
  std::vector<std::span<const Entry>> spans;
  spans.reserve(sources.size());
  for (const auto& run : sources) spans.emplace_back(run->entries());
  std::vector<Entry> entries = MergeNewestFirst(spans, bottom_level);
  compaction_writes_ += entries.size();
  if (!entries.empty()) {
    levels_[level_idx + 1].runs.insert(
        levels_[level_idx + 1].runs.begin(),
        BuildRun(std::move(entries), level_idx + 1));
  }
  MaybeCompact(level_idx + 1);
}

void LsmTree::RebuildMissingFilters() {
  for (size_t li = 0; li < levels_.size(); ++li) {
    for (auto& run : levels_[li].runs) {
      if (run->size() == 0) continue;
      if (options_.point_filter != PointFilterKind::kNone &&
          run->point_filter() == nullptr) {
        run->ReplacePointFilter(BuildPointFilter(run->Keys(),
                                                 options_.point_filter,
                                                 PointBitsForLevel(li),
                                                 ++run_seed_));
        ++filters_rebuilt_total_;
        ++recovery_.filters_rebuilt;
      }
      if (options_.range_filter != RangeFilterKind::kNone &&
          run->range_filter() == nullptr) {
        run->ReplaceRangeFilter(BuildRangeFilter(run->Keys(),
                                                 options_.range_filter,
                                                 options_.range_bits_per_key));
        ++filters_rebuilt_total_;
        ++recovery_.filters_rebuilt;
      }
    }
  }
}

void LsmTree::PersistGeneration() {
  if (store_ == nullptr) return;
  // Stage every unpersisted artifact — each file written to a temp
  // sibling and renamed into place, so readers (and recovery) never see
  // half a file. Any failure aborts the generation: CURRENT still names
  // the old one, and the in-memory tree keeps serving.
  for (auto& level : levels_) {
    for (auto& run : level.runs) {
      if (!run->data_persisted()) {
        std::ostringstream os;
        if (!run->SaveData(os) ||
            !store_->WriteFileAtomic(RunDataFileName(run->id()),
                                     std::move(os).str())) {
          ++persist_failures_total_;
          return;
        }
        run->set_data_persisted();
      }
      if (run->point_filter() != nullptr && !run->point_filter_persisted()) {
        std::ostringstream os;
        if (!run->point_filter()->Save(os) ||
            !store_->WriteFileAtomic(PointFilterFileName(run->id()),
                                     std::move(os).str())) {
          ++persist_failures_total_;
          return;
        }
        run->set_point_filter_persisted(true);
      }
      if (run->range_filter() != nullptr && !run->range_filter_persisted()) {
        std::ostringstream os;
        // Not every range family snapshots (DESIGN.md §13); the ones
        // that don't are rebuilt from the key stream after recovery.
        if (run->range_filter()->Save(os)) {
          if (!store_->WriteFileAtomic(RangeFilterFileName(run->id()),
                                       std::move(os).str())) {
            ++persist_failures_total_;
            return;
          }
          run->set_range_filter_persisted(true);
        }
      }
    }
  }
  ManifestData m;
  m.generation = generation_ + 1;
  m.next_run_id = next_run_id_;
  m.levels.resize(levels_.size());
  for (size_t li = 0; li < levels_.size(); ++li) {
    for (const auto& run : levels_[li].runs) {
      RunManifest rm;
      rm.id = run->id();
      rm.entries = run->size();
      rm.has_point_filter = run->point_filter_persisted();
      rm.has_range_filter = run->range_filter_persisted();
      m.levels[li].runs.push_back(rm);
    }
  }
  if (!store_->Commit(m)) {
    ++persist_failures_total_;
    return;
  }
  ++generation_;
  ++generations_committed_total_;
  previous_ = std::move(committed_);
  committed_ = std::move(m);
  // Every acked key the WAL held is now owned by the committed
  // generation; a crash here at worst replays it idempotently. The held
  // handle goes first: appends through it would land in the old file.
  wal_.reset();
  store_->WriteFileAtomic(kWalFileName, "");
  // Advisory GC: keep the committed and previous generations (the
  // fallback pool), drop temp litter and orphaned runs.
  std::vector<const ManifestData*> keep;
  if (committed_.has_value()) keep.push_back(&*committed_);
  if (previous_.has_value()) keep.push_back(&*previous_);
  store_->GarbageCollect(keep);
}

uint64_t LsmTree::TotalEntries() const {
  uint64_t total = memtable_.size();
  for (const Level& level : levels_) {
    for (const auto& run : level.runs) total += run->size();
  }
  return total;
}

size_t LsmTree::TotalFilterBits() const {
  size_t bits = 0;
  for (const Level& level : levels_) {
    for (const auto& run : level.runs) bits += run->FilterBits();
  }
  return bits;
}

uint64_t LsmTree::QuarantinedRuns() const {
  uint64_t n = 0;
  for (const Level& level : levels_) {
    for (const auto& run : level.runs) {
      if (run->point_quarantined() || run->range_quarantined()) ++n;
    }
  }
  return n;
}

obs::MetricsSnapshot LsmTree::ObsSnapshot() const {
  obs::MetricsSnapshot s;
  s.counters.push_back(
      {"lsm_generations_committed_total", generations_committed_total_});
  s.counters.push_back({"lsm_persist_failures_total", persist_failures_total_});
  s.counters.push_back(
      {"lsm_wal_append_failures_total", wal_append_failures_total_});
  s.counters.push_back(
      {"lsm_wal_records_replayed_total", recovery_.wal_records_replayed});
  s.counters.push_back(
      {"lsm_filters_quarantined_total", recovery_.filters_quarantined});
  s.counters.push_back({"lsm_filters_rebuilt_total", filters_rebuilt_total_});
  s.counters.push_back(
      {"lsm_manifest_fallbacks_total", recovery_.manifest_fallbacks});
  s.counters.push_back(
      {"lsm_quarantined_reads_total", quarantined_reads_total_});
  uint64_t runs = 0;
  for (const Level& level : levels_) runs += level.runs.size();
  s.gauges.push_back({"lsm_levels", static_cast<double>(levels_.size())});
  s.gauges.push_back({"lsm_runs", static_cast<double>(runs)});
  s.gauges.push_back(
      {"lsm_quarantined_runs", static_cast<double>(QuarantinedRuns())});
  s.gauges.push_back({"lsm_entries", static_cast<double>(TotalEntries())});
  s.gauges.push_back(
      {"lsm_filter_bits", static_cast<double>(TotalFilterBits())});
  s.gauges.push_back({"lsm_generation", static_cast<double>(generation_)});
  s.gauges.push_back({"lsm_write_amplification", WriteAmplification()});
  return s;
}

}  // namespace bbf::lsm
