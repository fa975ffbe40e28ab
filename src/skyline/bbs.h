// Branch-and-bound skyline (Ch7): BBS over the R-tree partition with
// optional boolean-predicate pruning (signatures) and optional dynamic
// transformation g_d(x) = |x_d - q_d| (§7.2.3). The run journal records
// dominance- and boolean-discarded entries so drill-down / roll-up queries
// can re-construct the candidate heap instead of starting over (§7.2.4).
#ifndef RANKCUBE_SKYLINE_BBS_H_
#define RANKCUBE_SKYLINE_BBS_H_

#include <vector>

#include "core/rtree_search.h"
#include "index/rtree.h"

namespace rankcube {

/// Maps ranking vectors into the preference space to minimize: identity for
/// static skylines, per-dimension distance to a query point for dynamic
/// skylines.
class SkylineTransform {
 public:
  /// Static skyline over `dims` dimensions.
  static SkylineTransform Static(int dims);
  /// Dynamic skyline around `query_point`.
  static SkylineTransform Dynamic(std::vector<double> query_point);

  int dims() const { return dims_; }
  bool dynamic() const { return !q_.empty(); }

  /// Transformed coordinates of a point.
  void Apply(const double* point, std::vector<double>* out) const;
  /// Transformed coordinates of table row `tid`, read column-direct via
  /// rank_col() — no per-row vector allocation inside dominance loops.
  void ApplyRow(const Table& table, Tid tid, std::vector<double>* out) const;
  /// Per-dimension minimum of the transformed values over a box (the
  /// box's best corner in preference space).
  void LowerCorner(const Box& box, std::vector<double>* out) const;
  /// mindist: sum of the lower-corner coordinates (BBS heap order).
  double MinDist(const Box& box) const;

 private:
  int dims_ = 0;
  std::vector<double> q_;
};

/// Journal of a BBS run (heap re-construction for OLAP sessions).
struct BBSJournal {
  struct Entry {
    double mindist = 0.0;
    bool is_tuple = false;
    uint32_t node_id = 0;  ///< nodes
    Tid tid = 0;           ///< tuples
    Sid parent = 0;        ///< SID of the node holding the entry
    uint32_t pos = 0;      ///< 1-based position there (0 = the root)
  };
  std::vector<Entry> skyline;         ///< result tuples (as heap entries)
  std::vector<Entry> dominated;       ///< discarded by dominance pruning
  std::vector<Entry> boolean_pruned;  ///< discarded by the boolean pruner
};

/// Runs BBS. `pruner` may be nullptr (no predicates). If `seed` is given
/// the heap starts from those entries instead of the root (§7.2.4); the
/// pruner never tested their ancestors, so they reach it flagged
/// EntryRef::reseeded. If `journal` is given the discarded entries are
/// recorded.
std::vector<Tid> BBSSkyline(const Table& table, const RTree& rtree,
                            const SkylineTransform& transform,
                            BooleanPruner* pruner, IoSession* io,
                            ExecStats* stats, BBSJournal* journal = nullptr,
                            const std::vector<BBSJournal::Entry>* seed =
                                nullptr);

/// In-memory skyline of an explicit tuple set (boolean-first executor and
/// test oracle): strict dominance (<= everywhere, < somewhere).
std::vector<Tid> SkylineOfTuples(const Table& table,
                                 const std::vector<Tid>& tids,
                                 const SkylineTransform& transform);

}  // namespace rankcube

#endif  // RANKCUBE_SKYLINE_BBS_H_
