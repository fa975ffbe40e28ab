#include "workload.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <tuple>

#include "gen/synthetic.h"
#include "server/protocol.h"
#include "storage/wal.h"

namespace perfbench {

using rankcube::PartitionedDb;
using rankcube::RankCubeDb;
using rankcube::Result;
using rankcube::Status;

namespace {

// Sizes are chosen so that one run — four daemon instances, each with its
// set-up, its share of the timed phase and its answer check — stays well
// inside the benchmark's time budget on a 4-core machine; the signature
// cube's build dominates set-up and grows linearly with the row count.
std::vector<WorkloadSpec> Specs() {
  std::vector<WorkloadSpec> specs;

  // Zipf-popular templates, repeated exactly or with jittered linear
  // weights: the result cache and the per-request server path dominate.
  WorkloadSpec dash;
  dash.name = "dashboard_repeat";
  dash.rows = 200000;
  dash.cache_pages = 1 << 16;
  dash.cache_mb = 64;
  dash.warmup_requests = 3000;
  dash.template_frac = 1.0;
  dash.num_templates = 256;
  dash.template_skew = 0.99;
  dash.jitter_frac = 0.1;
  dash.write_probe_pairs = 5000;
  specs.push_back(dash);

  // Durable fsync=always writes beside partitioned reads: WAL commit, the
  // reader/writer gate, the delta overlay, cache invalidation, compaction
  // and scatter-gather pruning all run.
  WorkloadSpec ingest;
  ingest.name = "ingest_mixed";
  // A compaction rebuilds or maintains every built structure and stalls
  // both connections, for longer the more rows there are: at 300k it took
  // half of an instance's share of the timed phase.
  ingest.rows = 150000;
  ingest.cache_mb = 64;
  ingest.durable = true;
  ingest.fsync = "always";
  ingest.partitions = {{"p0", {0, 5}},
                       {"p1", {5, 10}},
                       {"p2", {10, 15}},
                       {"p3", {15, 20}}};
  // At three connections two overlapping readers hold the reader-preferring
  // gate for seconds at a time and writers starve (see README.md).
  ingest.conns = 2;
  ingest.warmup_requests = 1000;
  ingest.write_frac = 0.10;
  ingest.delete_frac = 0.3;
  // One compaction per instance, early enough to finish inside its share
  // of the timed phase: compacting every N writes made a faster server
  // compact more often.
  ingest.compact_at = 30;
  // Repeats drawn uniformly from many templates: the cache sees repeated
  // keys that writes keep invalidating, and no single hot template decides
  // the read tail.
  ingest.template_frac = 0.3;
  ingest.num_templates = 256;
  ingest.partition_pred_frac = 0.5;
  specs.push_back(ingest);
  return specs;
}

std::string Fixed(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

std::string JoinFixed(const std::vector<double>& v) {
  std::string out;
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) out += ",";
    out += Fixed(v[i]);
  }
  return out;
}

std::string QueryPayload(int k, const std::string& kind,
                         const std::vector<double>& weights,
                         const std::vector<double>& targets,
                         const std::vector<std::pair<int, int32_t>>& where) {
  std::string out = "QUERY k=" + std::to_string(k) + " order=" + kind + ":" +
                    JoinFixed(weights);
  if (!targets.empty()) out += "@" + JoinFixed(targets);
  if (!where.empty()) {
    out += " where=";
    for (size_t i = 0; i < where.size(); ++i) {
      if (i) out += ",";
      out += std::to_string(where[i].first) + ":" +
             std::to_string(where[i].second);
    }
  }
  return out;
}

const char* const kKinds[] = {"linear", "sqlinear", "l1", "dist"};

/// A random ranking function of `kind`: weights in [0.05, 1) (signs mixed
/// for sqlinear, as in a min-square-error query), targets in [0, 1).
void RandomFunction(rankcube::Rng& rng, const std::string& kind, int dims,
                    std::vector<double>* weights,
                    std::vector<double>* targets) {
  weights->clear();
  targets->clear();
  for (int d = 0; d < dims; ++d) {
    double w = rng.Uniform(0.05, 1.0);
    if (kind == "sqlinear" && rng.Uniform01() < 0.5) w = -w;
    weights->push_back(w);
  }
  if (kind == "l1" || kind == "dist") {
    for (int d = 0; d < dims; ++d) targets->push_back(rng.Uniform01());
  }
}

/// `n` equality predicates on distinct dims, each drawn uniformly.
std::vector<std::pair<int, int32_t>> RandomWhere(rankcube::Rng& rng,
                                                 const WorkloadSpec& spec,
                                                 int n) {
  std::vector<int> dims(spec.sel_dims);
  for (int d = 0; d < spec.sel_dims; ++d) dims[d] = d;
  std::vector<std::pair<int, int32_t>> where;
  for (int i = 0; i < n && i < spec.sel_dims; ++i) {
    int j = i + static_cast<int>(rng.UniformInt(spec.sel_dims - i));
    std::swap(dims[i], dims[j]);
    where.emplace_back(dims[i], static_cast<int32_t>(
                                    rng.UniformInt(spec.cardinality)));
  }
  return where;
}

std::vector<Table> PartitionSlices(const WorkloadSpec& spec,
                                   const Table& base) {
  std::vector<Table> out;
  std::vector<int32_t> sel(base.num_sel_dims());
  std::vector<double> rank(base.num_rank_dims());
  for (const auto& [name, range] : spec.partitions) {
    Table slice(base.schema());
    for (rankcube::Tid row = 0; row < base.num_rows(); ++row) {
      if (!range.Contains(base.sel(row, 0))) continue;
      for (int d = 0; d < base.num_sel_dims(); ++d) sel[d] = base.sel(row, d);
      for (int d = 0; d < base.num_rank_dims(); ++d) {
        rank[d] = base.rank(row, d);
      }
      (void)slice.AddRow(sel, rank);  // rows of a valid table stay valid
    }
    out.push_back(std::move(slice));
  }
  return out;
}

std::unique_ptr<Table> CopyTable(const Table& base) {
  auto copy = std::make_unique<Table>(base.schema());
  std::vector<int32_t> sel(base.num_sel_dims());
  std::vector<double> rank(base.num_rank_dims());
  for (rankcube::Tid row = 0; row < base.num_rows(); ++row) {
    for (int d = 0; d < base.num_sel_dims(); ++d) sel[d] = base.sel(row, d);
    for (int d = 0; d < base.num_rank_dims(); ++d) rank[d] = base.rank(row, d);
    (void)copy->AddRow(sel, rank);
  }
  return copy;
}

}  // namespace

std::string WorkloadSpec::PartitionOf(int32_t dim0) const {
  for (const auto& [name, range] : partitions) {
    if (range.Contains(dim0)) return name;
  }
  return "";
}

std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  for (WorkloadSpec& spec : Specs()) {
    if (spec.name == name) return spec;
  }
  return std::nullopt;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : Specs()) names.push_back(spec.name);
  return names;
}

uint64_t DataSeed(uint64_t seed) { return seed; }
uint64_t QuerySeed(uint64_t seed) {
  return seed * 0x9E3779B97F4A7C15ull + 0x5bd1e995;
}

std::vector<std::string> DaemonArgs(const WorkloadSpec& spec, uint64_t seed,
                                    const std::string& data_dir) {
  std::vector<std::string> args = {
      "--host=127.0.0.1",
      "--port=0",
      "--rows=" + std::to_string(spec.rows),
      "--sel_dims=" + std::to_string(spec.sel_dims),
      "--cardinality=" + std::to_string(spec.cardinality),
      "--rank_dims=" + std::to_string(spec.rank_dims),
      "--seed=" + std::to_string(DataSeed(seed)),
      "--cache_pages=" + std::to_string(spec.cache_pages),
      // The default adds 100 us of simulated sleep per page read.
      "--latency_us=0",
      "--cache_mb=" + std::to_string(spec.cache_mb),
  };
  if (spec.durable) {
    args.push_back("--data_dir=" + data_dir);
    args.push_back("--fsync=" + spec.fsync);
  }
  if (spec.partitioned()) {
    args.push_back("--partition_dim=0");
    for (const auto& [name, range] : spec.partitions) {
      args.push_back("--partition=" + name + ":" + std::to_string(range.lo) +
                     ":" + std::to_string(range.hi));
    }
  }
  return args;
}

Table BaseTable(const WorkloadSpec& spec, uint64_t seed) {
  rankcube::SyntheticSpec gen;
  gen.num_rows = spec.rows;
  gen.num_sel_dims = spec.sel_dims;
  gen.cardinality = spec.cardinality;
  gen.num_rank_dims = spec.rank_dims;
  gen.seed = DataSeed(seed);
  return rankcube::GenerateSynthetic(gen);
}

Result<ServedDb> OpenServed(const WorkloadSpec& spec, const Table& base,
                            const std::string& data_dir) {
  RankCubeDb::Options options;
  options.store.cache_pages = spec.cache_pages;
  options.store.read_latency_us = 0;
  options.cache.max_bytes = static_cast<size_t>(spec.cache_mb) << 20;
  auto fsync = rankcube::ParseFsyncPolicy(spec.fsync);
  if (!fsync.ok()) return fsync.status();

  ServedDb served;
  if (spec.partitioned()) {
    PartitionedDb::Options popts;
    popts.schema = base.schema();
    popts.partition_dim = 0;
    popts.db = options;
    // As in rankcubed: partitioned serving caches at the scatter layer.
    popts.db.cache.max_bytes = 0;
    popts.cache.max_bytes = options.cache.max_bytes;
    if (spec.durable) popts.data_dir = data_dir;
    popts.fsync = fsync.value();
    auto opened = PartitionedDb::Open(std::move(popts));
    if (!opened.ok()) return opened.status();
    served.pdb = std::move(opened).value();
    std::vector<Table> slices = PartitionSlices(spec, base);
    for (size_t i = 0; i < slices.size(); ++i) {
      const auto& [name, range] = spec.partitions[i];
      RC_RETURN_IF_ERROR(
          served.pdb->CreatePartition(name, range, std::move(slices[i])));
    }
    return served;
  }
  // The unpartitioned workload serves from memory.
  if (spec.durable) {
    return Status::InvalidArgument("durable serving needs partitions");
  }
  std::unique_ptr<Table> table = CopyTable(base);
  served.db =
      std::make_unique<RankCubeDb>(std::move(*table), std::move(options));
  return served;
}

const std::vector<std::string>& PlannableEngines() {
  static const std::vector<std::string> kPlannable = {
      "table_scan", "boolean_first", "ranking_first", "index_merge",
      "grid",       "fragments",     "signature",     "signature_lossy"};
  return kPlannable;
}

std::vector<WireRequest> SetupRequests(const WorkloadSpec& spec) {
  std::vector<WireRequest> out;
  for (const char* engine : {"fragments", "grid", "signature"}) {
    const std::string query = QueryPayload(
        10, "linear", std::vector<double>(spec.rank_dims, 0.5), {}, {});
    if (!spec.partitioned()) {
      out.push_back({Verb::kQuery, query + " engine=" + engine, {}});
      continue;
    }
    for (const auto& [name, range] : spec.partitions) {
      out.push_back({Verb::kQuery,
                     query + " where=0:" + std::to_string(range.lo) +
                         " engine=" + engine,
                     {}});
    }
  }
  return out;
}

std::vector<QueryTemplate> MakeTemplates(const WorkloadSpec& spec,
                                         uint64_t query_seed) {
  rankcube::Rng rng(query_seed ^ 0x7e3a11ull);
  std::vector<QueryTemplate> out(spec.num_templates);
  for (size_t i = 0; i < out.size(); ++i) {
    // Popularity follows the index, so the shape of each template (kind,
    // k, predicate count) is fixed by its index: every seed sends the
    // same mix, and only weights, targets and predicate values are drawn.
    QueryTemplate& t = out[i];
    t.kind = i % 10 < 7 ? "linear" : kKinds[1 + i % 10 - 7];
    t.k = i % 2 == 0 ? 10 : 100;
    RandomFunction(rng, t.kind, spec.rank_dims, &t.weights, &t.targets);
    t.where = RandomWhere(rng, spec, static_cast<int>(i % 3));
  }
  return out;
}

RequestStream::RequestStream(const WorkloadSpec& spec,
                             const std::vector<QueryTemplate>* templates,
                             uint64_t query_seed, int stream)
    : spec_(spec),
      templates_(templates),
      rng_(query_seed + 0x1000193ull * static_cast<uint64_t>(stream + 1)),
      stream_(stream) {}

WireRequest RequestStream::Next() {
  if (spec_.writes() && rng_.Uniform01() < spec_.write_frac) {
    ++writes_;
    if (stream_ == 0 && writes_ == static_cast<uint64_t>(spec_.compact_at)) {
      return {Verb::kCompact, "COMPACT", {}};
    }
    if (rng_.Uniform01() < spec_.delete_frac) return NextDelete();
    return NextInsert();
  }
  return NextQuery();
}

WireRequest RequestStream::NextQuery() {
  if (!templates_->empty() && rng_.Uniform01() < spec_.template_frac) {
    return {Verb::kQuery, TemplateQuery(), {}};
  }
  return {Verb::kQuery, AdhocQuery(), {}};
}

std::string RequestStream::AdhocQuery() {
  std::string kind = kKinds[rng_.UniformInt(4)];
  std::vector<double> weights, targets;
  RandomFunction(rng_, kind, spec_.rank_dims, &weights, &targets);
  // Some reads name the partition dimension, so predicate pruning runs;
  // the rest scatter and rely on bound pruning.
  std::vector<std::pair<int, int32_t>> where;
  if (rng_.Uniform01() < spec_.partition_pred_frac) {
    where.emplace_back(0, static_cast<int32_t>(
                              rng_.UniformInt(spec_.cardinality)));
  }
  if (rng_.Uniform01() < 0.5) {
    int dim = 1 + static_cast<int>(rng_.UniformInt(spec_.sel_dims - 1));
    where.emplace_back(dim, static_cast<int32_t>(
                                rng_.UniformInt(spec_.cardinality)));
  }
  int k = rng_.Uniform01() < 0.5 ? 10 : 100;
  return QueryPayload(k, kind, weights, targets, where);
}

std::string RequestStream::TemplateQuery() {
  const size_t n = templates_->size();
  const QueryTemplate& t =
      (*templates_)[spec_.template_skew > 0.0
                        ? rng_.Zipf(n, spec_.template_skew)
                        : rng_.UniformInt(n)];
  std::vector<double> weights = t.weights;
  if (t.kind == "linear" && rng_.Uniform01() < spec_.jitter_frac) {
    // A near-duplicate: the cache can certify a sibling's answer for it.
    for (double& w : weights) {
      w = std::max(0.01, w + rng_.Uniform(-0.002, 0.002));
    }
  }
  return QueryPayload(t.k, t.kind, weights, t.targets, t.where);
}

WireRequest RequestStream::NextInsert() {
  std::string sel, rank;
  for (int d = 0; d < spec_.sel_dims; ++d) {
    if (d) sel += ",";
    sel += std::to_string(rng_.UniformInt(spec_.cardinality));
  }
  for (int d = 0; d < spec_.rank_dims; ++d) {
    if (d) rank += ",";
    rank += Fixed(rng_.Uniform01());
  }
  return {Verb::kInsert, "INSERT sel=" + sel + " rank=" + rank, {}};
}

WireRequest RequestStream::NextDelete() {
  if (own_rows_.empty()) return NextInsert();
  size_t i = rng_.UniformInt(own_rows_.size());
  RowRef ref = own_rows_[i];
  own_rows_[i] = own_rows_.back();
  own_rows_.pop_back();
  std::string payload = "DELETE tid=" + std::to_string(ref.tid);
  if (!ref.partition.empty()) payload += " partition=" + ref.partition;
  return {Verb::kDelete, payload, ref};
}

Result<std::vector<AnswerRow>> DecodeAnswer(
    const std::vector<std::string>& lines) {
  std::vector<AnswerRow> rows;
  for (size_t i = 1; i < lines.size(); ++i) {
    const char* p = lines[i].c_str();
    char* end = nullptr;
    AnswerRow row;
    row.tid = static_cast<uint32_t>(std::strtoul(p, &end, 10));
    if (end == p || *end != ' ') {
      return Status::Corruption("bad answer line '" + lines[i] + "'");
    }
    p = end + 1;
    row.score = std::strtod(p, &end);
    if (end == p) return Status::Corruption("bad score in '" + lines[i] + "'");
    if (*end == ' ') row.partition = end + 1;
    rows.push_back(std::move(row));
  }
  return rows;
}

Result<RowRef> DecodeInsertAck(const std::vector<std::string>& lines) {
  RowRef ref;
  bool has_tid = false;
  for (const std::string& line : lines) {
    if (line.rfind("tid=", 0) == 0) {
      ref.tid = static_cast<uint32_t>(std::strtoul(line.c_str() + 4, nullptr,
                                                   10));
      has_tid = true;
    } else if (line.rfind("partition=", 0) == 0) {
      ref.partition = line.substr(10);
    }
  }
  if (!has_tid) return Status::Corruption("INSERT ack without tid=");
  return ref;
}

Oracle::Oracle(const WorkloadSpec& spec, const Table& base)
    : schema_(base.schema()) {
  if (spec.partitioned()) {
    std::vector<Table> slices = PartitionSlices(spec, base);
    for (size_t i = 0; i < slices.size(); ++i) {
      parts_.emplace_back(spec.partitions[i].first,
                          std::make_unique<Table>(std::move(slices[i])));
    }
  } else {
    parts_.emplace_back("", CopyTable(base));
  }
}

int Oracle::Index(const std::string& partition) const {
  for (size_t i = 0; i < parts_.size(); ++i) {
    if (parts_[i].first == partition) return static_cast<int>(i);
  }
  return -1;
}

Status Oracle::ApplyInsert(const RowRef& ref, const std::vector<int32_t>& sel,
                           const std::vector<double>& rank) {
  const int i = Index(ref.partition);
  if (i < 0) return Status::NotFound("no partition '" + ref.partition + "'");
  auto tid = parts_[i].second->Insert(sel, rank);
  if (!tid.ok()) return tid.status();
  if (tid.value() != ref.tid) {
    return Status::Corruption("server assigned tid " + std::to_string(ref.tid) +
                              ", oracle " + std::to_string(tid.value()));
  }
  return Status::OK();
}

Status Oracle::ApplyDelete(const RowRef& ref) {
  const int i = Index(ref.partition);
  if (i < 0) return Status::NotFound("no partition '" + ref.partition + "'");
  return parts_[i].second->Delete(ref.tid);
}

std::vector<AnswerRow> Oracle::TopK(const TopKQuery& query) const {
  // Merge per-partition brute-force answers by (score, partition order,
  // tid) — the scatter-gather tie-break.
  std::vector<std::tuple<double, size_t, uint32_t>> merged;
  for (size_t p = 0; p < parts_.size(); ++p) {
    for (const rankcube::ScoredTuple& t :
         rankcube::BruteForceTopK(*parts_[p].second, query)) {
      merged.emplace_back(t.score, p, t.tid);
    }
  }
  std::sort(merged.begin(), merged.end());
  if (merged.size() > static_cast<size_t>(query.k)) merged.resize(query.k);
  std::vector<AnswerRow> out;
  for (const auto& [score, p, tid] : merged) {
    out.push_back({parts_[p].first, tid, score});
  }
  return out;
}

std::optional<double> Oracle::ScoreOf(const TopKQuery& query,
                                      const std::string& partition,
                                      uint32_t tid) const {
  const int i = Index(partition);
  if (i < 0) return std::nullopt;
  const Table* table = parts_[i].second.get();
  if (tid >= table->num_rows() || !table->is_live(tid)) return std::nullopt;
  for (const rankcube::Predicate& p : query.predicates) {
    if (table->sel(tid, p.dim) != p.value) return std::nullopt;
  }
  double score = 0.0;
  const rankcube::Tid row = tid;
  query.function->EvaluateBatch(*table, &row, 1, &score);
  return score;
}

Status ParseInsert(const std::string& payload, std::vector<int32_t>* sel,
                   std::vector<double>* rank) {
  auto req = rankcube::ParseRequest(payload);
  if (!req.ok()) return req.status();
  const std::string* s = req.value().Find("sel");
  const std::string* r = req.value().Find("rank");
  if (s == nullptr || r == nullptr) {
    return Status::InvalidArgument("INSERT without sel= or rank=");
  }
  auto sv = rankcube::ParseInt32List(*s);
  if (!sv.ok()) return sv.status();
  auto rv = rankcube::ParseDoubleList(*r);
  if (!rv.ok()) return rv.status();
  *sel = std::move(sv).value();
  *rank = std::move(rv).value();
  return Status::OK();
}

bool CheckAnswer(const Oracle& oracle, const std::string& payload,
                 const std::vector<AnswerRow>& served, std::string* why) {
  auto req = rankcube::ParseRequest(payload);
  if (!req.ok()) {
    *why = req.status().ToString();
    return false;
  }
  auto query = rankcube::ParseWireQuery(req.value(), oracle.schema());
  if (!query.ok()) {
    *why = query.status().ToString();
    return false;
  }
  const TopKQuery& q = query.value();
  return SameTopK(served, oracle.TopK(q),
                  [&](const std::string& partition, uint32_t tid) {
                    return oracle.ScoreOf(q, partition, tid);
                  },
                  why);
}

}  // namespace perfbench
