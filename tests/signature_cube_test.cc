#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "baselines/baselines.h"
#include "common/rng.h"
#include "core/signature_cube.h"
#include "gen/queries.h"
#include "gen/synthetic.h"
#include "join/ranked_stream.h"
#include "reference.h"
#include "skyline/olap_session.h"

namespace rankcube {
namespace {

Table MakeData(uint64_t rows = 6000, int s = 3, int32_t c = 10, int r = 2,
               uint64_t seed = 77) {
  SyntheticSpec spec;
  spec.num_rows = rows;
  spec.num_sel_dims = s;
  spec.cardinality = c;
  spec.num_rank_dims = r;
  spec.seed = seed;
  return GenerateSynthetic(spec);
}

TEST(SignatureCubeTest, MatchesBruteForceOnWorkload) {
  Table t = MakeData();
  PageStore store;
  IoSession io{&store};
  SignatureCube cube(t, io);
  QueryWorkloadSpec qspec;
  qspec.num_queries = 25;
  qspec.num_predicates = 2;
  for (const auto& q : GenerateQueries(t, qspec)) {
    ExecStats stats;
    auto res = cube.TopK(q, &io, &stats);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_EQ(ScoresOf(*res), ScoresOf(BruteForceTopK(t, q))) << q.ToString();
  }
}

TEST(SignatureCubeTest, AllFunctionKinds) {
  Table t = MakeData(4000, 3, 8, 3);
  PageStore store;
  IoSession io{&store};
  SignatureCube cube(t, io);
  for (auto kind : {QueryFunctionKind::kLinear, QueryFunctionKind::kDistance,
                    QueryFunctionKind::kSqLinear}) {
    QueryWorkloadSpec qspec;
    qspec.num_queries = 8;
    qspec.num_rank_used = 3;
    qspec.kind = kind;
    for (const auto& q : GenerateQueries(t, qspec)) {
      ExecStats stats;
      auto res = cube.TopK(q, &io, &stats);
      ASSERT_TRUE(res.ok());
      EXPECT_EQ(ScoresOf(*res), ScoresOf(BruteForceTopK(t, q)))
          << q.ToString();
    }
  }
}

TEST(SignatureCubeTest, InsertBuildMatchesBulkBuild) {
  Table t = MakeData(2000);
  PageStore store;
  IoSession io{&store};
  SignatureCubeOptions opt;
  opt.bulk_load = false;  // tuple-at-a-time R-tree construction
  SignatureCube cube(t, io, opt);
  QueryWorkloadSpec qspec;
  qspec.num_queries = 10;
  for (const auto& q : GenerateQueries(t, qspec)) {
    ExecStats stats;
    auto res = cube.TopK(q, &io, &stats);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(ScoresOf(*res), ScoresOf(BruteForceTopK(t, q))) << q.ToString();
  }
}

TEST(SignatureCubeTest, SignaturePruningBeatsRankingFirstOnIo) {
  Table t = MakeData(20000, 3, 50, 2);  // selective predicates
  PageStore store;
  IoSession io{&store};
  SignatureCube cube(t, io);
  RankingFirst ranking(t, &cube.rtree());
  QueryWorkloadSpec qspec;
  qspec.num_queries = 10;
  qspec.num_predicates = 2;
  uint64_t sig_io = 0, rank_io = 0;
  for (const auto& q : GenerateQueries(t, qspec)) {
    io.ResetStats();
    ExecStats s1;
    auto r1 = cube.TopK(q, &io, &s1);
    ASSERT_TRUE(r1.ok());
    sig_io += io.stats(IoCategory::kRTree).physical;
    io.ResetStats();
    ExecStats s2;
    auto r2 = ranking.TopK(q, &io, &s2);
    ASSERT_TRUE(r2.ok());
    rank_io += io.stats(IoCategory::kRTree).physical;
    EXPECT_EQ(ScoresOf(r1.value()), ScoresOf(*r2));
  }
  EXPECT_LT(sig_io, rank_io);  // Fig 4.13's claim
}

TEST(SignatureCubeTest, IncrementalInsertMatchesRebuild) {
  SyntheticSpec spec;
  spec.num_rows = 3000;
  spec.num_sel_dims = 3;
  spec.cardinality = 6;
  spec.num_rank_dims = 2;
  spec.seed = 5;
  Table t = GenerateSynthetic(spec);

  // Build cube over the first 2500 rows' paths by constructing from a
  // prefix table, then inserting the remaining rows incrementally.
  TableSchema schema = t.schema();
  Table prefix(schema);
  std::vector<double> rank(t.num_rank_dims());
  for (Tid i = 0; i < 2500; ++i) {
    t.CopyRankRow(i, rank.data());
    ASSERT_TRUE(prefix.AddRow({t.sel(i, 0), t.sel(i, 1), t.sel(i, 2)}, rank)
                    .ok());
  }
  PageStore store;
  IoSession io{&store};
  SignatureCubeOptions opt;
  opt.bulk_load = false;
  SignatureCube cube(prefix, io, opt);

  std::vector<Tid> extra;
  for (Tid i = 2500; i < 3000; ++i) {
    t.CopyRankRow(i, rank.data());
    ASSERT_TRUE(prefix.AddRow({t.sel(i, 0), t.sel(i, 1), t.sel(i, 2)}, rank)
                    .ok());
    extra.push_back(i);
  }
  cube.InsertBatch(extra, &io);

  QueryWorkloadSpec qspec;
  qspec.num_queries = 15;
  for (const auto& q : GenerateQueries(prefix, qspec)) {
    ExecStats stats;
    auto res = cube.TopK(q, &io, &stats);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(ScoresOf(*res), ScoresOf(BruteForceTopK(prefix, q)))
        << q.ToString();
  }
}

// Regression: an R-tree leaf split moves some entries to a sibling while
// the stay-behind entries compact to lower positions, so within one
// update batch a mover's OLD position can alias a stayer's NEW one.
// Applying clear/set per update in batch order then let the mover's
// ClearPath erase the bit the stayer had just set — the base row silently
// vanished from the cell signature and from every later answer.
// ApplyPathUpdates must net per-tuple moves and apply every clear before
// any set. Tiny fan-out forces a split every few inserts, and verifying
// after EVERY insert catches the first lost row instead of hoping a
// workload query lands on it.
TEST(SignatureCubeTest, LeafSplitsNeverLoseRowsUnderIncrementalInsert) {
  TableSchema schema;
  schema.sel_cardinality = {2, 2};
  schema.num_rank_dims = 2;
  Table t(schema);
  Rng rng(13);
  auto add_row = [&] {
    ASSERT_TRUE(t.AddRow({static_cast<int32_t>(rng.UniformInt(2)),
                          static_cast<int32_t>(rng.UniformInt(2))},
                         {rng.Uniform01(), rng.Uniform01()})
                    .ok());
  };
  for (int i = 0; i < 8; ++i) add_row();

  PageStore store;
  IoSession io{&store};
  SignatureCubeOptions opt;
  opt.bulk_load = false;
  opt.rtree_max_entries = 4;  // a split every few inserts
  SignatureCube cube(t, io, opt);

  TopKQuery probe;
  probe.k = 1000;  // every live row must surface
  probe.function = std::make_shared<LinearFunction>(std::vector<double>{1, 2});
  for (int i = 0; i < 120; ++i) {
    add_row();
    cube.InsertBatch({static_cast<Tid>(t.num_rows() - 1)}, &io);
    for (int32_t v = 0; v < 2; ++v) {
      probe.predicates = {{0, v}};
      ExecStats stats;
      auto res = cube.TopK(probe, &io, &stats);
      ASSERT_TRUE(res.ok()) << res.status().ToString();
      ASSERT_EQ(ScoresOf(*res), ScoresOf(BruteForceTopK(t, probe)))
          << "row lost after insert " << i << " in cell A0=" << v;
    }
  }
}

TEST(SignatureCubeTest, EmptyCellShortCircuits) {
  Table t = MakeData(500, 2, 3, 2);
  PageStore store;
  IoSession io{&store};
  SignatureCube cube(t, io);
  TopKQuery q;
  q.predicates = {{0, 2}, {1, 2}};
  // Find a combination that doesn't exist; if it exists, skip.
  bool exists = false;
  for (Tid i = 0; i < t.num_rows(); ++i) {
    if (t.sel(i, 0) == 2 && t.sel(i, 1) == 2) exists = true;
  }
  q.function = std::make_shared<LinearFunction>(std::vector<double>{1, 1});
  ExecStats stats;
  auto res = cube.TopK(q, &io, &stats);
  ASSERT_TRUE(res.ok());
  if (!exists) EXPECT_TRUE(res->empty());
}

TEST(SignatureCubeTest, CompressedSmallerThanBaseline) {
  Table t = MakeData(10000, 3, 20, 2);
  PageStore store;
  IoSession io{&store};
  SignatureCube cube(t, io);
  EXPECT_GT(cube.CompressedBytes(), 0u);
  EXPECT_LT(cube.CompressedBytes(), cube.BaselineBytes());
}

TEST(SignatureCubeTest, SignaturePagesAreCounted) {
  Table t = MakeData(8000, 3, 10, 2);
  PageStore store;
  IoSession io{&store};
  SignatureCube cube(t, io);
  QueryWorkloadSpec qspec;
  qspec.num_queries = 5;
  ExecStats stats;
  for (const auto& q : GenerateQueries(t, qspec)) {
    auto res = cube.TopK(q, &io, &stats);
    ASSERT_TRUE(res.ok());
  }
  EXPECT_GT(stats.signature_pages, 0u);
}

// ------------------- SID-addressed pruning vs full-path oracle -----------

/// Root-to-entry path (1-based positions) of a SID-addressed entry.
std::vector<int> DecodePath(EntryRef e, int M) {
  std::vector<int> path;
  if (e.pos == 0) return path;  // the root
  path.push_back(static_cast<int>(e.pos));
  for (Sid x = e.parent; x != 0; x /= static_cast<Sid>(M + 1)) {
    path.push_back(static_cast<int>(x % static_cast<Sid>(M + 1)));
  }
  std::reverse(path.begin(), path.end());
  return path;
}

/// The path-walking signature test, kept as the oracle: decode the entry's
/// full path and, per source, charge the partial of every prefix and test
/// every bit on it. It assumes nothing about which entries were tested
/// before, so it ignores EntryRef::reseeded.
class FullPathPruner : public BooleanPruner {
 public:
  explicit FullPathPruner(std::vector<SignaturePruner::Source> sources)
      : sources_(std::move(sources)) {}

  bool MayContain(EntryRef node, IoSession* io, ExecStats* stats) override {
    return Check(node, io, stats);
  }
  bool Qualifies(Tid, EntryRef entry, IoSession* io,
                 ExecStats* stats) override {
    return Check(entry, io, stats);
  }

 private:
  bool Check(EntryRef e, IoSession* io, ExecStats* stats) {
    for (size_t s = 0; s < sources_.size(); ++s) {
      const int M = sources_[s].sig->M();
      const std::vector<int> path = DecodePath(e, M);
      for (size_t l = 0; l <= path.size(); ++l) {
        size_t partial = sources_[s].stored->PartialOf(SidOfPath(path, l, M));
        if (partial != SIZE_MAX && loaded_.insert({s, partial}).second) {
          io->Access(IoCategory::kSignature,
                     (static_cast<uint64_t>(s) << 48) ^ partial);
          ++stats->signature_pages;
        }
      }
      if (!sources_[s].sig->TestPath(path)) return false;
    }
    return true;
  }

  std::vector<SignaturePruner::Source> sources_;
  std::set<std::pair<size_t, size_t>> loaded_;
};

/// §4.5 oracle: the bloom test on the SID of the decoded full path, then
/// table verification of candidate tuples.
class FullPathBloomPruner : public BooleanPruner {
 public:
  FullPathBloomPruner(const Table& table, std::vector<Predicate> preds,
                      std::vector<const BloomFilter*> blooms, int M)
      : table_(table), preds_(std::move(preds)), blooms_(std::move(blooms)),
        m_(M) {}

  bool MayContain(EntryRef node, IoSession*, ExecStats*) override {
    const std::vector<int> path = DecodePath(node, m_);
    if (path.empty()) return true;
    for (const auto* bloom : blooms_) {
      if (!bloom->MayContain(SidOfPath(path, path.size(), m_))) return false;
    }
    return true;
  }
  bool Qualifies(Tid tid, EntryRef entry, IoSession* io,
                 ExecStats* stats) override {
    if (!MayContain(entry, io, stats)) return false;
    table_.ChargeRowFetch(io, tid);
    for (const auto& p : preds_) {
      if (table_.sel(tid, p.dim) != p.value) return false;
    }
    return true;
  }

 private:
  const Table& table_;
  std::vector<Predicate> preds_;
  std::vector<const BloomFilter*> blooms_;
  int m_;
};

/// The atomic-cuboid cells MakePruner assembles for `preds` (§4.3.3);
/// false when some predicate's cell is empty.
bool AtomicCells(const SignatureCube& cube, const std::vector<Predicate>& preds,
                 std::vector<SignaturePruner::Source>* sources,
                 std::vector<const BloomFilter*>* blooms) {
  for (const auto& p : preds) {
    const SignatureCuboid* cuboid = nullptr;
    for (const auto& c : cube.cuboids()) {
      if (c.dims == std::vector<int>{p.dim}) cuboid = &c;
    }
    if (cuboid == nullptr) return false;
    const CellKey key{{p.value}, 0};
    auto it = cuboid->sigs.find(key);
    if (it == cuboid->sigs.end()) return false;
    sources->push_back({&it->second, &cuboid->stored.at(key)});
    if (blooms != nullptr) blooms->push_back(&cuboid->blooms.at(key));
  }
  return true;
}

/// Small pages give a small fan-out (M = 12 at 2 ranking dims) and small
/// partials, so trees are deep and cells span many partials; a 24-page
/// buffer evicts, so the order of page accesses matters too.
PageStore::Options SmallPages() {
  PageStore::Options o;
  o.page_size = 256;
  o.cache_pages = 24;
  o.cache_shards = 1;
  return o;
}

/// Inserts that split nodes plus deletes of base and fresh rows.
void Mutate(Table* t, uint64_t seed) {
  Rng rng(seed);
  const size_t base = t->num_rows();
  std::vector<Tid> fresh;
  for (int i = 0; i < 400; ++i) {
    std::vector<int32_t> sel;
    for (int d = 0; d < t->num_sel_dims(); ++d) {
      const auto card = t->schema().sel_cardinality[d];
      sel.push_back(static_cast<int32_t>(
          rng.UniformInt(static_cast<uint64_t>(card))));
    }
    // Clustered in one corner so the same leaves keep splitting.
    auto r = t->Insert(sel, {0.2 * rng.Uniform01(), 0.2 * rng.Uniform01()});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    fresh.push_back(r.value());
  }
  for (int i = 0; i < 300; ++i) {
    Tid victim = static_cast<Tid>(rng.UniformInt(base));
    if (t->is_live(victim)) {
      ASSERT_TRUE(t->Delete(victim).ok());
    }
  }
  for (size_t i = 0; i < fresh.size(); i += 7) {
    ASSERT_TRUE(t->Delete(fresh[i]).ok());
  }
}

struct Outcome {
  std::vector<ScoredTuple> tuples;
  uint64_t pages = 0;
  uint64_t signature_pages = 0;
};

void ExpectSameOutcome(const Outcome& got, const Outcome& want,
                       const std::string& what) {
  EXPECT_EQ(got.tuples, want.tuples) << what;
  EXPECT_EQ(got.pages, want.pages) << what;
  EXPECT_EQ(got.signature_pages, want.signature_pages) << what;
}

std::vector<TopKQuery> PredicateQueries(const Table& t) {
  std::vector<TopKQuery> out;
  for (int preds : {1, 2, 3}) {
    QueryWorkloadSpec qspec;
    qspec.num_queries = 12;
    qspec.num_predicates = preds;
    qspec.k = 15;
    qspec.seed = 900 + preds;
    for (auto& q : GenerateQueries(t, qspec)) out.push_back(std::move(q));
  }
  return out;
}

TEST(SidPruningInvarianceTest, TopKAndLossyMatchFullPathOracle) {
  Table t = MakeData(6000, 3, 6, 2, 31);
  PageStore store(SmallPages());
  IoSession build{&store};
  SignatureCubeOptions opt;
  opt.lossy_bloom = true;
  SignatureCube cube(t, build, opt);
  Mutate(&t, 8);
  ASSERT_TRUE(cube.ApplyDelta(t.delta(), &build).ok());
  ASSERT_GE(cube.rtree().depth(), 4);

  int compared = 0;
  for (const TopKQuery& q : PredicateQueries(t)) {
    std::vector<SignaturePruner::Source> sources;
    std::vector<const BloomFilter*> blooms;
    if (!AtomicCells(cube, q.predicates, &sources, &blooms)) continue;
    ++compared;
    const std::string what = q.ToString();
    auto run = [&](auto&& exec) {
      IoSession io{&store};
      ExecStats stats;
      Outcome r;
      r.tuples = exec(&io, &stats);
      r.pages = stats.pages_read;
      r.signature_pages = stats.signature_pages;
      return r;
    };

    Outcome got = run([&](IoSession* io, ExecStats* st) {
      auto res = cube.TopK(q, io, st);
      EXPECT_TRUE(res.ok());
      return res.ok() ? res.value() : std::vector<ScoredTuple>{};
    });
    Outcome want = run([&](IoSession* io, ExecStats* st) {
      FullPathPruner oracle(sources);
      return RTreeBranchAndBoundTopK(t, cube.rtree(), q, &oracle, io, st);
    });
    ExpectSameOutcome(got, want, "TopK " + what);
    EXPECT_EQ(ScoresOf(got.tuples), ScoresOf(BruteForceTopK(t, q))) << what;
    EXPECT_GT(got.signature_pages, 0u) << what;

    Outcome lossy = run([&](IoSession* io, ExecStats* st) {
      auto res = cube.TopKLossy(q, io, st);
      EXPECT_TRUE(res.ok());
      return res.ok() ? res.value() : std::vector<ScoredTuple>{};
    });
    Outcome lossy_want = run([&](IoSession* io, ExecStats* st) {
      FullPathBloomPruner oracle(t, q.predicates, blooms,
                                 cube.rtree().max_entries());
      return RTreeBranchAndBoundTopK(t, cube.rtree(), q, &oracle, io, st);
    });
    ExpectSameOutcome(lossy, lossy_want, "TopKLossy " + what);
  }
  EXPECT_GE(compared, 20);
}

TEST(SidPruningInvarianceTest, RankedStreamMatchesFullPathOracle) {
  Table t = MakeData(6000, 3, 6, 2, 32);
  PageStore store(SmallPages());
  IoSession build{&store};
  SignatureCube cube(t, build);
  Mutate(&t, 9);
  ASSERT_TRUE(cube.ApplyDelta(t.delta(), &build).ok());

  int compared = 0;
  for (const TopKQuery& q : PredicateQueries(t)) {
    std::vector<SignaturePruner::Source> sources;
    if (!AtomicCells(cube, q.predicates, &sources, nullptr)) continue;
    ++compared;
    auto drain = [&](std::unique_ptr<BooleanPruner> pruner) {
      IoSession io{&store};
      ExecStats stats;
      CubeRankedStream stream(t, cube, q.function, std::move(pruner), &io,
                              &stats);
      Outcome r;
      Tid tid;
      double score;
      // Far past k: the stream's whole pruned search, not just its head.
      while (r.tuples.size() < 200 && stream.GetNext(&tid, &score)) {
        r.tuples.push_back({tid, score});
      }
      r.pages = io.TotalPhysical();
      r.signature_pages = stats.signature_pages;
      return r;
    };
    auto pruner = cube.MakePruner(q.predicates);
    ASSERT_TRUE(pruner.ok());
    Outcome got = drain(std::move(pruner.value()));
    Outcome want = drain(std::make_unique<FullPathPruner>(sources));
    ExpectSameOutcome(got, want, "CubeRankedStream " + q.ToString());
  }
  EXPECT_GE(compared, 20);
}

// SkylineSession's drill-down and roll-up re-seed BBS from a journal: the
// seeded entries' ancestors were never tested under the new pruner, so
// they must be charged along their whole chain. The oracle session below
// replays the same Query -> DrillDown -> RollUp with FullPathPruner.
TEST(SidPruningInvarianceTest, SkylineSessionMatchesFullPathOracle) {
  Table t = MakeData(6000, 3, 4, 2, 33);
  PageStore store(SmallPages());
  IoSession build{&store};
  SkylineEngine engine(t, build);
  Mutate(&t, 10);
  // The engine exposes its cube read-only; a writer maintains it in place.
  ASSERT_TRUE(const_cast<SignatureCube&>(engine.cube())
                  .ApplyDelta(t.delta(), &build)
                  .ok());
  const SignatureCube& cube = engine.cube();
  const SkylineTransform transform =
      SkylineTransform::Dynamic({0.4, 0.6});

  for (int32_t a = 0; a < 4; ++a) {
    const std::vector<Predicate> first = {{0, a}};
    const std::vector<Predicate> extra = {{2, (a + 1) % 4}};
    SkylineSession session(&engine);
    BBSJournal journal;  // the oracle session's state

    auto oracle_run = [&](const std::vector<Predicate>& preds,
                          const std::vector<BBSJournal::Entry>* seed) {
      std::vector<SignaturePruner::Source> sources;
      EXPECT_TRUE(AtomicCells(cube, preds, &sources, nullptr));
      FullPathPruner oracle(sources);
      IoSession io{&store};
      ExecStats stats;
      BBSJournal fresh;
      Outcome r;
      for (Tid tid : BBSSkyline(t, cube.rtree(), transform, &oracle, &io,
                                &stats, &fresh, seed)) {
        r.tuples.push_back({tid, 0.0});
      }
      r.pages = stats.pages_read;
      r.signature_pages = stats.signature_pages;
      std::vector<BBSJournal::Entry> carried = journal.boolean_pruned;
      journal = std::move(fresh);
      return std::make_pair(r, carried);
    };
    auto session_run = [&](auto&& step) {
      IoSession io{&store};
      ExecStats stats;
      Result<std::vector<Tid>> res = step(&io, &stats);
      EXPECT_TRUE(res.ok());
      Outcome r;
      if (res.ok()) {
        for (Tid tid : res.value()) r.tuples.push_back({tid, 0.0});
      }
      r.pages = stats.pages_read;
      r.signature_pages = stats.signature_pages;
      return r;
    };
    const std::string what = "A0=" + std::to_string(a);

    Outcome got = session_run([&](IoSession* io, ExecStats* st) {
      return session.Query(first, transform, io, st);
    });
    Outcome want = oracle_run(first, nullptr).first;
    ExpectSameOutcome(got, want, "Query " + what);

    // Drill-down: seed = skyline + dominance-discarded (Fig 7.2); the old
    // boolean-pruned entries are carried forward for a later roll-up.
    std::vector<Predicate> drilled = first;
    drilled.push_back(extra[0]);
    got = session_run([&](IoSession* io, ExecStats* st) {
      return session.DrillDown(extra, io, st);
    });
    std::vector<BBSJournal::Entry> seed = journal.skyline;
    seed.insert(seed.end(), journal.dominated.begin(), journal.dominated.end());
    auto [drill, carried] = oracle_run(drilled, &seed);
    journal.boolean_pruned.insert(journal.boolean_pruned.end(),
                                  carried.begin(), carried.end());
    ExpectSameOutcome(got, drill, "DrillDown " + what);
    EXPECT_GT(got.signature_pages, 0u) << what;

    // Roll-up: drop dim 0; boolean-pruned entries are re-admitted.
    got = session_run([&](IoSession* io, ExecStats* st) {
      return session.RollUp({0}, io, st);
    });
    seed = journal.skyline;
    seed.insert(seed.end(), journal.dominated.begin(), journal.dominated.end());
    seed.insert(seed.end(), journal.boolean_pruned.begin(),
                journal.boolean_pruned.end());
    ExpectSameOutcome(got, oracle_run(extra, &seed).first, "RollUp " + what);
  }
}

// -------------------------- baselines vs oracle --------------------------

TEST(BaselinesTest, TableScanMatchesBruteForce) {
  Table t = MakeData(3000);
  PageStore store;
  IoSession io{&store};
  QueryWorkloadSpec qspec;
  qspec.num_queries = 10;
  for (const auto& q : GenerateQueries(t, qspec)) {
    ExecStats stats;
    auto res = TableScanTopK(t, q, &io, &stats);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(ScoresOf(*res), ScoresOf(BruteForceTopK(t, q)));
  }
}

TEST(BaselinesTest, BooleanFirstMatchesBruteForce) {
  Table t = MakeData(3000);
  PageStore store;
  IoSession io{&store};
  BooleanFirst bf(t);
  QueryWorkloadSpec qspec;
  qspec.num_queries = 10;
  for (const auto& q : GenerateQueries(t, qspec)) {
    ExecStats stats;
    auto res = bf.TopK(q, &io, &stats);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(ScoresOf(*res), ScoresOf(BruteForceTopK(t, q)));
  }
}

TEST(BaselinesTest, RankingFirstMatchesBruteForce) {
  Table t = MakeData(3000);
  PageStore store;
  IoSession io{&store};
  SignatureCube cube(t, io);  // reuse its R-tree
  RankingFirst rf(t, &cube.rtree());
  QueryWorkloadSpec qspec;
  qspec.num_queries = 10;
  for (const auto& q : GenerateQueries(t, qspec)) {
    ExecStats stats;
    auto res = rf.TopK(q, &io, &stats);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(ScoresOf(*res), ScoresOf(BruteForceTopK(t, q)));
  }
}

TEST(BaselinesTest, RankMappingWithOptimalBoundsMatchesBruteForce) {
  Table t = MakeData(3000);
  PageStore store;
  IoSession io{&store};
  RankMapping rm(t, {{0, 1, 2}});
  QueryWorkloadSpec qspec;
  qspec.num_queries = 10;
  for (const auto& q : GenerateQueries(t, qspec)) {
    auto oracle = BruteForceTopK(t, q);
    double kth = oracle.empty() ? 1e9 : oracle.back().score;
    ExecStats stats;
    auto res = rm.TopK(q, kth, &io, &stats);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(ScoresOf(*res), ScoresOf(oracle)) << q.ToString();
  }
}

TEST(BaselinesTest, RankMappingDistanceQueries) {
  Table t = MakeData(3000);
  PageStore store;
  IoSession io{&store};
  RankMapping rm(t, {{0, 1, 2}});
  QueryWorkloadSpec qspec;
  qspec.num_queries = 8;
  qspec.kind = QueryFunctionKind::kDistance;
  for (const auto& q : GenerateQueries(t, qspec)) {
    auto oracle = BruteForceTopK(t, q);
    double kth = oracle.empty() ? 1e9 : oracle.back().score;
    ExecStats stats;
    auto res = rm.TopK(q, kth, &io, &stats);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(ScoresOf(*res), ScoresOf(oracle)) << q.ToString();
  }
}

}  // namespace
}  // namespace rankcube
