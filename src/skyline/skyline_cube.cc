#include "skyline/skyline_cube.h"

#include <algorithm>

#include "common/stopwatch.h"

namespace rankcube {

namespace {

/// Verifies predicates by fetching the tuple (the "Ranking" configuration).
class TableVerifyPruner : public BooleanPruner {
 public:
  TableVerifyPruner(const Table& table, const std::vector<Predicate>& preds)
      : table_(table), preds_(preds) {}

  bool MayContain(EntryRef, IoSession*, ExecStats*) override {
    return true;
  }
  bool Qualifies(Tid tid, EntryRef, IoSession* io, ExecStats*) override {
    table_.ChargeRowFetch(io, tid);
    for (const auto& p : preds_) {
      if (table_.sel(tid, p.dim) != p.value) return false;
    }
    return true;
  }

 private:
  const Table& table_;
  const std::vector<Predicate>& preds_;
};

}  // namespace

SkylineEngine::SkylineEngine(const Table& table, IoSession& io)
    : table_(table), cube_(table, io), posting_(table) {}

Result<std::vector<Tid>> SkylineEngine::Signature(
    const std::vector<Predicate>& predicates,
    const SkylineTransform& transform, IoSession* io, ExecStats* stats,
    BBSJournal* journal) const {
  auto pruner = cube_.MakePruner(predicates);
  if (!pruner.ok()) return pruner.status();
  return BBSSkyline(table_, cube_.rtree(), transform, pruner.value().get(),
                    io, stats, journal);
}

std::vector<Tid> SkylineEngine::RankingFirst(
    const std::vector<Predicate>& predicates,
    const SkylineTransform& transform, IoSession* io, ExecStats* stats) const {
  TableVerifyPruner pruner(table_, predicates);
  return BBSSkyline(table_, cube_.rtree(), transform,
                    predicates.empty() ? nullptr : &pruner, io, stats);
}

std::vector<Tid> SkylineEngine::BooleanFirst(
    const std::vector<Predicate>& predicates,
    const SkylineTransform& transform, IoSession* io, ExecStats* stats) const {
  Stopwatch watch;
  uint64_t pages_before = io->TotalPhysical();
  std::vector<Tid> candidates;
  if (predicates.empty()) {
    table_.ChargeFullScan(io);
    candidates.reserve(table_.num_live());
    for (Tid t = 0; t < static_cast<Tid>(table_.num_rows()); ++t) {
      if (table_.is_live(t)) candidates.push_back(t);
    }
  } else {
    const Predicate* best = &predicates.front();
    for (const auto& p : predicates) {
      if (posting_.ListSize(p.dim, p.value) <
          posting_.ListSize(best->dim, best->value)) {
        best = &p;
      }
    }
    posting_.ChargeListScan(io, best->dim, best->value);
    for (Tid t : posting_.Lookup(best->dim, best->value)) {
      table_.ChargeRowFetch(io, t);
      bool ok = true;
      for (const auto& p : predicates) {
        if (table_.sel(t, p.dim) != p.value) {
          ok = false;
          break;
        }
      }
      if (ok) candidates.push_back(t);
    }
  }
  stats->tuples_evaluated += candidates.size();
  auto skyline = SkylineOfTuples(table_, candidates, transform);
  stats->time_ms += watch.ElapsedMs();
  stats->pages_read += io->TotalPhysical() - pages_before;
  return skyline;
}

}  // namespace rankcube
