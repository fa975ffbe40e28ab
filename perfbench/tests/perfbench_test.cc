// Unit tests of the benchmark's own measurement rules.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "metrics.h"
#include "workload.h"

namespace perfbench {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(PercentileRule, P99WhenTenSamplesLieBeyondIt) {
  std::vector<double> v = Ramp(1000);
  LatencySummary s = Summarize(v);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_DOUBLE_EQ(s.p50, 500.0);
  EXPECT_DOUBLE_EQ(s.tail, 990.0);  // samples 991..1000 lie beyond
  EXPECT_DOUBLE_EQ(s.tail_pct, 99.0);
}

TEST(PercentileRule, LowerPercentileWhenP99HasTooFewBeyondIt) {
  // p99 of 500 samples would leave only 5 beyond; the rule backs off to
  // the 98th percentile, which leaves exactly 10.
  std::vector<double> v = Ramp(500);
  LatencySummary s = Summarize(v);
  EXPECT_DOUBLE_EQ(s.tail, 490.0);
  EXPECT_DOUBLE_EQ(s.tail_pct, 98.0);
  EXPECT_EQ(TailRank(11), 1u);
}

TEST(PercentileRule, NoTailWithTenOrFewerSamples) {
  std::vector<double> v = Ramp(10);
  LatencySummary s = Summarize(v);
  EXPECT_EQ(TailRank(10), 0u);
  EXPECT_DOUBLE_EQ(s.tail, 0.0);
  EXPECT_DOUBLE_EQ(s.tail_pct, 0.0);
  EXPECT_DOUBLE_EQ(s.p50, 5.0);
  std::vector<double> none;
  EXPECT_EQ(Summarize(none).n, 0u);
}

TEST(PercentileRule, RunTailIsTheMedianOfBlockTails) {
  // Five blocks of 1000; a stall slows the last 60 samples of one block,
  // 1.2% of the run.
  std::vector<double> v;
  for (int b = 0; b < 5; ++b) {
    for (int i = 1; i <= 1000; ++i) v.push_back(b + i / 1000.0);
  }
  for (size_t i = 1940; i < 2000; ++i) v[i] = 1e6;
  RunLatency run = SummarizeRun(v);
  EXPECT_EQ(run.blocks, 5u);
  EXPECT_EQ(run.summary.n, 5000u);
  // Block tails are b + 0.990, but the stalled block's is 1e6; sorted,
  // {0.990, 2.990, 3.990, 4.990, 1e6}: median 3.990.
  EXPECT_DOUBLE_EQ(run.summary.tail, 3.990);
  EXPECT_DOUBLE_EQ(run.summary.tail_pct, 99.0);
  // The pooled p99 is the stall.
  std::vector<double> pooled = v;
  EXPECT_DOUBLE_EQ(Summarize(pooled).tail, 1e6);
  // The median is over all samples, and the input order is kept.
  EXPECT_DOUBLE_EQ(run.summary.p50, 2.560);
  EXPECT_DOUBLE_EQ(v[0], 0.001);
}

TEST(PercentileRule, RunTailFallsBackToOneBlock) {
  // Fewer than two blocks' worth: the ordinary rule over all samples.
  std::vector<double> v = Ramp(1999);
  RunLatency run = SummarizeRun(v);
  EXPECT_EQ(run.blocks, 1u);
  EXPECT_DOUBLE_EQ(run.summary.tail, 1980.0);  // ceil(0.99 * 1999)
  std::vector<double> small = Ramp(500);
  EXPECT_DOUBLE_EQ(SummarizeRun(small).summary.tail, 490.0);
  EXPECT_EQ(SummarizeRun({}).summary.n, 0u);
}

TEST(SpanSelfTime, OverlappingChildrenCountOnce) {
  std::vector<Span> spans = {
      {"request", 0, 100, -1, 1},
      {"a", 10, 40, 0, 1},
      {"b", 30, 60, 0, 1},   // overlaps a: 10..60 is covered once
      {"c", 90, 120, 0, 1},  // only 90..100 lies inside the parent
      {"d", 35, 38, 2, 1},   // grandchild: charged to b, not the request
  };
  std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - 50 - 10);
  EXPECT_EQ(self[1], 30);
  EXPECT_EQ(self[2], 30 - 3);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 3);
}

TEST(SpanSelfTime, NestedAndIdenticalChildren) {
  std::vector<Span> spans = {
      {"request", 0, 50, -1, 7},
      {"a", 0, 50, 0, 7},
      {"b", 0, 50, 0, 7},
      {"c", 20, 30, 0, 7},
  };
  std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 0);
}

TEST(ErrorFrac, EveryNonOkOutcomeCountsAgainstAttempted) {
  OutcomeTally t;
  EXPECT_DOUBLE_EQ(t.error_frac(), 0.0);
  for (int i = 0; i < 7; ++i) t.Add(Outcome::kOk);
  t.Add(Outcome::kRejected);
  t.Add(Outcome::kError);
  t.Add(Outcome::kTransport);
  EXPECT_EQ(t.attempted, 10u);
  EXPECT_EQ(t.ok, 7u);
  EXPECT_EQ(t.failed(), 3u);
  EXPECT_DOUBLE_EQ(t.error_frac(), 0.3);

  OutcomeTally u;
  u.Add(Outcome::kOk);
  u.Add(Outcome::kTransport);
  t += u;
  EXPECT_EQ(t.attempted, 12u);
  EXPECT_EQ(t.transport, 2u);
  EXPECT_DOUBLE_EQ(t.error_frac(), 4.0 / 12.0);
}

/// True scores of a toy relation, keyed by (partition, tid).
RowScorer Scores(std::map<std::pair<std::string, uint32_t>, double> truth) {
  return [truth](const std::string& p, uint32_t tid) -> std::optional<double> {
    auto it = truth.find({p, tid});
    if (it == truth.end()) return std::nullopt;
    return it->second;
  };
}

TEST(OracleComparator, TiesAtTheKthScoreMayPickAnyTiedRow) {
  RowScorer score_of =
      Scores({{{"", 1}, 0.5}, {{"", 2}, 0.7}, {{"", 3}, 0.7}, {{"", 4}, 0.7},
              {{"", 5}, 0.9}});
  std::vector<AnswerRow> oracle = {{"", 1, 0.5}, {"", 2, 0.7}, {"", 3, 0.7}};
  std::string why;
  // Another engine broke the tie with row 4 and listed it first.
  EXPECT_TRUE(SameTopK({{"", 1, 0.5}, {"", 4, 0.7}, {"", 2, 0.7}}, oracle,
                       score_of, &why))
      << why;
  // A row claiming the tied score it does not have.
  EXPECT_FALSE(
      SameTopK({{"", 1, 0.5}, {"", 5, 0.7}, {"", 2, 0.7}}, oracle, score_of,
               &why));
  // The strictly better row must be there.
  EXPECT_FALSE(
      SameTopK({{"", 3, 0.5}, {"", 4, 0.7}, {"", 2, 0.7}}, oracle, score_of,
               &why));
  // A tied row served twice.
  EXPECT_FALSE(
      SameTopK({{"", 1, 0.5}, {"", 2, 0.7}, {"", 2, 0.7}}, oracle, score_of,
               &why));
  EXPECT_NE(why.find("twice"), std::string::npos);
}

TEST(OracleComparator, ScoresAndSizesMustMatchExactly) {
  RowScorer score_of = Scores({{{"", 1}, 0.5}, {{"", 2}, 0.7}});
  std::vector<AnswerRow> oracle = {{"", 1, 0.5}, {"", 2, 0.7}};
  std::string why;
  EXPECT_FALSE(SameTopK({{"", 1, 0.5}}, oracle, score_of, &why));
  EXPECT_FALSE(
      SameTopK({{"", 1, 0.5}, {"", 2, 0.7000000001}}, oracle, score_of, &why));
  EXPECT_TRUE(SameTopK({}, {}, score_of, &why));
}

TEST(OracleComparator, PartitionedRowsAreIdentifiedByPartitionAndTid) {
  RowScorer score_of = Scores(
      {{{"p0", 3}, 0.2}, {{"p1", 3}, 0.4}, {{"p1", 8}, 0.4}, {{"p0", 9}, 0.4}});
  std::vector<AnswerRow> oracle = {{"p0", 3, 0.2}, {"p1", 3, 0.4}};
  std::string why;
  EXPECT_TRUE(SameTopK({{"p0", 3, 0.2}, {"p0", 9, 0.4}}, oracle, score_of,
                       &why))
      << why;
  // Same tid, wrong partition: not the row the oracle ranked first.
  EXPECT_FALSE(
      SameTopK({{"p1", 3, 0.2}, {"p1", 8, 0.4}}, oracle, score_of, &why));
}

TEST(Workload, SameSeedGivesSameRequests) {
  for (const std::string& name : WorkloadNames()) {
    WorkloadSpec spec = *FindWorkload(name);
    auto templates = MakeTemplates(spec, QuerySeed(5));
    RequestStream a(spec, &templates, QuerySeed(5), 1);
    RequestStream b(spec, &templates, QuerySeed(5), 1);
    RequestStream c(spec, &templates, QuerySeed(6), 1);
    bool differs = false;
    for (int i = 0; i < 200; ++i) {
      WireRequest x = a.Next();
      WireRequest y = b.Next();
      EXPECT_EQ(x.payload, y.payload) << name;
      differs = differs || x.payload != c.Next().payload;
    }
    EXPECT_TRUE(differs) << name;
  }
}

TEST(Workload, SetUpForcesEachBuildOnEveryPartition) {
  WorkloadSpec ingest = *FindWorkload("ingest_mixed");
  std::vector<WireRequest> setup = SetupRequests(ingest);
  ASSERT_EQ(setup.size(), 3 * ingest.partitions.size());
  EXPECT_EQ(setup.front().payload,
            "QUERY k=10 order=linear:0.500000,0.500000 where=0:0 "
            "engine=fragments");
  EXPECT_EQ(setup.back().payload,
            "QUERY k=10 order=linear:0.500000,0.500000 where=0:15 "
            "engine=signature");
  WorkloadSpec dash = *FindWorkload("dashboard_repeat");
  EXPECT_EQ(SetupRequests(dash).size(), 3u);
}

TEST(Workload, ConnectionZeroCompactsOnce) {
  WorkloadSpec spec = *FindWorkload("ingest_mixed");
  auto templates = MakeTemplates(spec, QuerySeed(5));
  for (int stream = 0; stream < 2; ++stream) {
    RequestStream s(spec, &templates, QuerySeed(5), stream);
    int compactions = 0;
    for (int i = 0; i < 5000; ++i) {
      WireRequest req = s.Next();
      if (req.verb == Verb::kCompact) ++compactions;
      // Deletes need acked inserts; pretend each insert got a row.
      if (req.verb == Verb::kInsert) {
        s.Inserted({"p0", static_cast<uint32_t>(i)});
      }
    }
    EXPECT_EQ(compactions, stream == 0 ? 1 : 0);
  }
}

}  // namespace
}  // namespace perfbench
