#include "join/ranked_stream.h"

namespace rankcube {

CubeRankedStream::CubeRankedStream(const Table& table,
                                   const SignatureCube& cube,
                                   RankingFunctionPtr function,
                                   std::unique_ptr<BooleanPruner> pruner,
                                   IoSession* io, ExecStats* stats)
    : table_(table),
      cube_(cube),
      f_(std::move(function)),
      eval_(table, *f_),
      pruner_(std::move(pruner)),
      io_(io),
      stats_(stats) {
  const RTree& rtree = cube_.rtree();
  heap_.push({f_->LowerBound(rtree.node(rtree.root()).mbr), rtree.root(),
              false, 0, 0});
}

bool CubeRankedStream::GetNext(Tid* tid, double* score) {
  const RTree& rtree = cube_.rtree();
  const int M = rtree.max_entries();
  while (!heap_.empty()) {
    const Entry e = heap_.top();
    heap_.pop();
    if (e.is_tuple) {
      if (pruner_ == nullptr ||
          pruner_->Qualifies(e.id, {e.parent, e.pos}, io_, stats_)) {
        *tid = e.id;
        *score = e.score;
        return true;
      }
      continue;
    }
    if (pruner_ != nullptr &&
        !pruner_->MayContain({e.parent, e.pos}, io_, stats_)) {
      continue;
    }
    const Sid sid = e.pos == 0 ? 0 : ChildSid(e.parent, e.pos, M);
    const RTreeNode& node = rtree.node(e.id);
    rtree.ChargeNodeAccess(io_, e.id);
    if (node.is_leaf) {
      ScoreLeafEntries(eval_, node, &leaf_tids_, &leaf_scores_, stats_);
      for (size_t i = 0; i < node.entries.size(); ++i) {
        heap_.push({leaf_scores_[i], leaf_tids_[i], true,
                    static_cast<uint32_t>(i + 1), sid});
      }
    } else {
      for (size_t i = 0; i < node.children.size(); ++i) {
        heap_.push({f_->LowerBound(rtree.node(node.children[i]).mbr),
                    node.children[i], false, static_cast<uint32_t>(i + 1),
                    sid});
      }
    }
    stats_->MergeMax(heap_.size());
  }
  return false;
}

double CubeRankedStream::BestPossibleNext() const {
  return heap_.empty() ? kInfScore : heap_.top().score;
}

}  // namespace rankcube
