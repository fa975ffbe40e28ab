#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

namespace perfbench {

size_t TailRank(size_t n) {
  if (n <= kTailBeyond) return 0;
  // ceil(0.99 n) in integers.
  size_t p99 = (99 * n + 99) / 100;
  return std::min(p99, n - kTailBeyond);
}

LatencySummary Summarize(std::vector<double>& samples) {
  LatencySummary s;
  s.n = samples.size();
  if (s.n == 0) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = samples[(s.n + 1) / 2 - 1];
  size_t rank = TailRank(s.n);
  if (rank > 0) {
    s.tail = samples[rank - 1];
    s.tail_pct = 100.0 * static_cast<double>(rank) / static_cast<double>(s.n);
  }
  return s;
}

RunLatency SummarizeRun(const std::vector<double>& samples) {
  RunLatency run;
  std::vector<double> all = samples;
  run.summary = Summarize(all);
  const size_t n = samples.size();
  run.blocks = std::max<size_t>(1, n / kTailBlock);
  std::vector<double> tails;
  double smallest_pct = 0.0;
  for (size_t b = 0; b < run.blocks; ++b) {
    std::vector<double> block(samples.begin() + b * n / run.blocks,
                              samples.begin() + (b + 1) * n / run.blocks);
    LatencySummary s = Summarize(block);
    tails.push_back(s.tail);
    if (b == 0 || s.tail_pct < smallest_pct) smallest_pct = s.tail_pct;
  }
  std::sort(tails.begin(), tails.end());
  run.summary.tail = tails[(tails.size() + 1) / 2 - 1];
  run.summary.tail_pct = smallest_pct;
  return run;
}

void OutcomeTally::Add(Outcome outcome) {
  ++attempted;
  switch (outcome) {
    case Outcome::kOk:
      ++ok;
      break;
    case Outcome::kRejected:
      ++rejected;
      break;
    case Outcome::kError:
      ++errors;
      break;
    case Outcome::kTransport:
      ++transport;
      break;
  }
}

OutcomeTally& OutcomeTally::operator+=(const OutcomeTally& o) {
  attempted += o.attempted;
  ok += o.ok;
  rejected += o.rejected;
  errors += o.errors;
  transport += o.transport;
  return *this;
}

double OutcomeTally::error_frac() const {
  if (attempted == 0) return 0.0;
  return static_cast<double>(failed()) / static_cast<double>(attempted);
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Sweep the sorted child intervals, clipped to the parent, counting
    // the covered length of their union.
    int64_t covered = 0;
    int64_t reach = lo;
    for (auto [start, end] : kids) {
      start = std::max(start, reach);
      end = std::min(end, hi);
      if (end > start) {
        covered += end - start;
        reach = end;
      }
    }
    self[i] = std::max<int64_t>(0, hi - lo - covered);
  }
  return self;
}

namespace {

std::string RowName(const AnswerRow& r) {
  return (r.partition.empty() ? "" : r.partition + "/") + std::to_string(r.tid);
}

}  // namespace

bool SameTopK(const std::vector<AnswerRow>& served,
              const std::vector<AnswerRow>& expected,
              const RowScorer& score_of, std::string* why) {
  auto fail = [&](std::string msg) {
    if (why != nullptr) *why = std::move(msg);
    return false;
  };
  if (served.size() != expected.size()) {
    return fail("served " + std::to_string(served.size()) +
                " rows, oracle " + std::to_string(expected.size()));
  }
  for (size_t i = 0; i < served.size(); ++i) {
    if (!(served[i].score == expected[i].score)) {
      return fail("score #" + std::to_string(i) + " differs");
    }
  }
  if (expected.empty()) return true;
  const double boundary = expected.back().score;
  std::set<std::pair<std::string, uint32_t>> must, got;
  for (const AnswerRow& r : expected) {
    if (r.score < boundary) must.emplace(r.partition, r.tid);
  }
  for (const AnswerRow& r : served) {
    if (!got.emplace(r.partition, r.tid).second) {
      return fail("row " + RowName(r) + " served twice");
    }
    if (r.score < boundary) {
      if (must.count({r.partition, r.tid}) == 0) {
        return fail("row " + RowName(r) + " is not in the oracle's top-k");
      }
    } else {
      // Tied at the k-th score: any row that truly has this score will do.
      std::optional<double> actual = score_of(r.partition, r.tid);
      if (!actual.has_value() || !(*actual == r.score)) {
        return fail("tied row " + RowName(r) + " does not score " +
                    std::to_string(r.score));
      }
    }
  }
  return true;
}

}  // namespace perfbench
