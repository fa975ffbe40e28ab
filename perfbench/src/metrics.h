// Measurement rules shared by the load generator and the traced replay:
// percentiles with an honest tail, request-outcome accounting, span self
// time, and the oracle comparator that checks served answers.
#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// A latency summary: the median and the highest percentile (capped at 99)
/// that still has at least ten samples beyond it. Nearest-rank percentiles:
/// the p-th percentile of n sorted samples is sample ceil(p*n/100).
struct LatencySummary {
  size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;      ///< value at tail_pct; 0 when n <= kTailBeyond
  double tail_pct = 0.0;  ///< which percentile `tail` is; 0 when none
};

/// Samples that must lie beyond the reported tail percentile.
inline constexpr size_t kTailBeyond = 10;

/// 1-based nearest rank of the tail percentile for n samples:
/// min(ceil(0.99 n), n - kTailBeyond); 0 when no percentile qualifies.
size_t TailRank(size_t n);

/// Summarizes `samples` (reordered in place).
LatencySummary Summarize(std::vector<double>& samples);

/// Samples per block of a run's tail (see SummarizeRun): the fewest for
/// which the tail rule gives p99.
inline constexpr size_t kTailBlock = 100 * kTailBeyond;

/// A run's latency summary. `samples` are in the order they were taken;
/// they are cut into consecutive blocks of at least kTailBlock samples
/// (one block when there are fewer than two blocks' worth). p50 is the
/// median of all samples; tail is the median over blocks of each block's
/// tail (nearest rank, the lower middle for an even count), and tail_pct
/// the smallest block's tail percentile. A host stall that slows a few
/// stretches of a run moves a pooled p99 but not this tail; a slowdown of
/// a share of all requests moves both.
struct RunLatency {
  LatencySummary summary;
  size_t blocks = 0;
};
RunLatency SummarizeRun(const std::vector<double>& samples);

/// What happened to one request, as the client saw it.
enum class Outcome {
  kOk,         ///< answered OK
  kRejected,   ///< typed admission rejection (QUOTA_EXCEEDED)
  kError,      ///< any other typed ERR answer
  kTransport,  ///< no answer: connection reset, truncated frame, ...
};

/// Per-run request accounting. Goodput counts only OK answers; every other
/// outcome counts against error_frac.
struct OutcomeTally {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t rejected = 0;
  uint64_t errors = 0;
  uint64_t transport = 0;

  void Add(Outcome outcome);
  OutcomeTally& operator+=(const OutcomeTally& o);
  uint64_t failed() const { return attempted - ok; }
  /// Requests not answered OK over requests attempted (0 when none).
  double error_frac() const;
};

/// One traced call: [start_ns, end_ns) on the steady clock; `parent` is an
/// index into the same span vector, or -1 for a request's root span.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint32_t request = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children. Overlapping children are counted once, and a
/// child's time outside its parent's interval is ignored.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// One row of a top-k answer. Unpartitioned answers leave `partition`
/// empty; partitioned rows are identified by (partition, tid).
struct AnswerRow {
  std::string partition;
  uint32_t tid = 0;
  double score = 0.0;
};

/// Exact score of a row under the query, or nullopt when the row is not a
/// live row that satisfies the query's predicates.
using RowScorer =
    std::function<std::optional<double>(const std::string& partition,
                                        uint32_t tid)>;

/// True when `served` is a correct top-k answer given the oracle's answer
/// `expected` (both ascending by score). The score sequences must match
/// exactly. Every row scoring strictly better than the k-th score must be
/// the same row in both; rows tied at the k-th score may be any rows that
/// really have that score (checked with `score_of`), since an engine may
/// break the tie differently. On mismatch, `why` says what differed.
bool SameTopK(const std::vector<AnswerRow>& served,
              const std::vector<AnswerRow>& expected,
              const RowScorer& score_of, std::string* why);

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
