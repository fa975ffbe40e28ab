#include "baselines/baselines.h"

namespace rankcube {

namespace {

/// Verifies boolean predicates by fetching the tuple from the base table
/// (random access, charged), exactly the "Ranking" configuration of §4.4.1.
class TableVerifyPruner : public BooleanPruner {
 public:
  TableVerifyPruner(const Table& table, const std::vector<Predicate>& preds)
      : table_(table), preds_(preds) {}

  bool MayContain(EntryRef, IoSession*, ExecStats*) override {
    return true;  // no pre-computed boolean knowledge
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

Result<std::vector<ScoredTuple>> RankingFirst::TopK(const TopKQuery& query,
                                                    IoSession* io,
                                                    ExecStats* stats) const {
  RC_RETURN_IF_ERROR(ValidateQuery(query, table_.schema()));
  TableVerifyPruner pruner(table_, query.predicates);
  return RTreeBranchAndBoundTopK(table_, *rtree_, query, &pruner, io, stats);
}

}  // namespace rankcube
