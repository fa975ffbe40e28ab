// Rank-aware selection (§6.3.1): a resumable stream of tuples from one
// relation, filtered by local boolean predicates and emitted in ascending
// ranking-score order. The cube-backed implementation runs Algorithm 3
// incrementally (one confirmed tuple per GetNext); the materialize-sort
// implementation is the plan a conventional executor would pick for very
// selective predicates.
#ifndef RANKCUBE_JOIN_RANKED_STREAM_H_
#define RANKCUBE_JOIN_RANKED_STREAM_H_

#include <memory>
#include <queue>
#include <vector>

#include "core/rtree_search.h"
#include "core/signature_cube.h"

namespace rankcube {

class RankedStream {
 public:
  virtual ~RankedStream() = default;

  /// Next qualifying tuple in ascending score order; false when drained.
  virtual bool GetNext(Tid* tid, double* score) = 0;

  /// Lower bound on the score of any tuple not yet returned (+inf when
  /// drained). Feeds the rank-join threshold (§6.3.2).
  virtual double BestPossibleNext() const = 0;
};

/// Algorithm-3-based progressive stream over a relation's signature cube.
class CubeRankedStream : public RankedStream {
 public:
  /// `pruner` may be nullptr (no predicates). Keeps references; the cube,
  /// session and stats must outlive the stream.
  CubeRankedStream(const Table& table, const SignatureCube& cube,
                   RankingFunctionPtr function,
                   std::unique_ptr<BooleanPruner> pruner, IoSession* io,
                   ExecStats* stats);

  bool GetNext(Tid* tid, double* score) override;
  double BestPossibleNext() const override;

 private:
  /// Node or tuple, addressed by its parent's SID and its position there.
  struct Entry {
    double score;
    uint32_t id;  ///< node id, or tid for tuple entries
    bool is_tuple;
    uint32_t pos;
    Sid parent;
    bool operator>(const Entry& o) const { return score > o.score; }
  };

  const Table& table_;
  const SignatureCube& cube_;
  RankingFunctionPtr f_;
  kernels::BlockEvaluator eval_;  ///< fused leaf scoring (after f_: init order)
  std::unique_ptr<BooleanPruner> pruner_;
  IoSession* io_;
  ExecStats* stats_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::vector<Tid> leaf_tids_;      ///< batch scoring scratch
  std::vector<double> leaf_scores_;
};

/// Materialized stream: predicates evaluated up front (boolean-first), all
/// matches scored and sorted.
class SortedVectorStream : public RankedStream {
 public:
  SortedVectorStream(std::vector<ScoredTuple> sorted)
      : items_(std::move(sorted)) {}

  bool GetNext(Tid* tid, double* score) override {
    if (pos_ >= items_.size()) return false;
    *tid = items_[pos_].tid;
    *score = items_[pos_].score;
    ++pos_;
    return true;
  }

  double BestPossibleNext() const override {
    return pos_ < items_.size() ? items_[pos_].score : kInfScore;
  }

 private:
  std::vector<ScoredTuple> items_;
  size_t pos_ = 0;
};

}  // namespace rankcube

#endif  // RANKCUBE_JOIN_RANKED_STREAM_H_
