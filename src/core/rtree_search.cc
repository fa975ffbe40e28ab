#include "core/rtree_search.h"

#include <queue>

#include "common/stopwatch.h"

namespace rankcube {

namespace {

/// Heap entry: an R-tree node or a fully-scored data object, addressed by
/// its parent's SID and its position there (no path is stored).
struct HeapEntry {
  double score;  ///< lower bound (node) or exact score (tuple)
  uint32_t id;   ///< node id, or tid for tuple entries
  bool is_tuple;
  uint32_t pos;
  Sid parent;

  bool operator>(const HeapEntry& o) const { return score > o.score; }
};

}  // namespace

std::vector<ScoredTuple> RTreeBranchAndBoundTopK(const Table& table,
                                                 const RTree& rtree,
                                                 const TopKQuery& query,
                                                 BooleanPruner* pruner,
                                                 IoSession* io,
                                                 ExecStats* stats) {
  Stopwatch watch;
  uint64_t pages_before = io->TotalPhysical();
  const RankingFunction& f = *query.function;
  TopKHeap topk(query.k);

  const int M = rtree.max_entries();
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap;
  heap.push({f.LowerBound(rtree.node(rtree.root()).mbr), rtree.root(), false,
             0, 0});

  std::vector<Tid> leaf_tids;
  std::vector<double> leaf_scores;
  kernels::BlockEvaluator eval(table, f);
  while (!heap.empty()) {
    const HeapEntry e = heap.top();
    // Stop: f(topk.root) <= f(c_heap.root) (§4.3.2).
    if (topk.Full() && topk.KthScore() <= e.score) break;
    heap.pop();

    if (e.is_tuple) {
      if (pruner->Qualifies(e.id, {e.parent, e.pos}, io, stats)) {
        topk.Offer(e.id, e.score);
      }
      continue;
    }
    // Boolean pruning on the node before expansion (line 5 of Algorithm 3).
    if (!pruner->MayContain({e.parent, e.pos}, io, stats)) continue;

    const Sid sid = e.pos == 0 ? 0 : ChildSid(e.parent, e.pos, M);
    const RTreeNode& node = rtree.node(e.id);
    rtree.ChargeNodeAccess(io, e.id);
    if (node.is_leaf) {
      // The whole leaf is scored column-direct in one batch call; the
      // exact scores then enter the candidate heap (tuples stay lazy:
      // they are offered to the top-k only when popped, after boolean
      // verification).
      ScoreLeafEntries(eval, node, &leaf_tids, &leaf_scores, stats);
      for (size_t i = 0; i < node.entries.size(); ++i) {
        heap.push({leaf_scores[i], leaf_tids[i], true,
                   static_cast<uint32_t>(i + 1), sid});
      }
    } else {
      for (size_t i = 0; i < node.children.size(); ++i) {
        heap.push({f.LowerBound(rtree.node(node.children[i]).mbr),
                   node.children[i], false, static_cast<uint32_t>(i + 1),
                   sid});
      }
    }
    stats->MergeMax(heap.size());
  }

  stats->time_ms += watch.ElapsedMs();
  stats->pages_read += io->TotalPhysical() - pages_before;
  return topk.Sorted();
}

}  // namespace rankcube
