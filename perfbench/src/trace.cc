// The traced replay: the workload's seeded request streams re-executed
// in-process, one request at a time, against a db opened with the daemon's
// options. Each request calls the layers in the server's order — parse,
// admit, db, release, encode — and records one span per call. Outside the
// request span, each executed query is priced on every partition it ran
// on: the planner with Explain and the routed engine with a direct
// RankingEngine::Execute on a fresh IoSession. Neither call feeds the
// planner feedback or touches the result cache, so pricing does not
// perturb the routing it measures.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "func/kernels/kernels.h"
#include "json.h"
#include "load.h"
#include "server/admission.h"
#include "server/protocol.h"

namespace perfbench {

using rankcube::AdmissionController;
using rankcube::CompactionReport;
using rankcube::DbStats;
using rankcube::ExecStats;
using rankcube::PartitionedTopK;
using rankcube::PlanInfo;
using rankcube::QueryOptions;
using rankcube::RankCubeDb;
using rankcube::Response;
using rankcube::Result;
using rankcube::ResultCacheStats;
using rankcube::ScatterStats;
using rankcube::Status;
using rankcube::TopKResult;
using Clock = std::chrono::steady_clock;

namespace {

/// Feedback families, in report order.
const char* const kFamilies[] = {"grid",          "signature",
                                 "table_scan",    "boolean_first",
                                 "ranking_first", "index_merge"};
const char* const kKernelKinds[] = {"linear", "sqlinear", "l1", "dist"};

/// Answers checked against the oracle per traced replay (about).
constexpr double kTraceChecks = 150.0;
/// Share of --seconds the untraced replay runs; the traced replay then
/// repeats exactly its request count.
constexpr double kReplayShare = 0.25;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double Us(int64_t ns) { return static_cast<double>(ns) / 1000.0; }

/// Spans of the traced replay, kept in memory until the end of the run.
/// A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  int32_t Begin(const char* name, int32_t parent, uint32_t request) {
    if (!on_) return -1;
    spans_.push_back({name, NowNs(), 0, parent, request});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t span) {
    if (span >= 0) spans_[span].end_ns = NowNs();
  }
  int64_t Duration(int32_t span) const {
    return span >= 0 ? spans_[span].end_ns - spans_[span].start_ns : 0;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
};

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// The server's QUERY answer encodings (server/server.cc DoQuery).
Response EncodeAnswer(const TopKResult& r) {
  Response resp;
  char head[160];
  std::snprintf(head, sizeof(head),
                "tuples=%zu engine=%s pages=%llu time_ms=%.3f",
                r.tuples.size(),
                r.plan ? r.plan->chosen_engine.c_str() : "direct",
                static_cast<unsigned long long>(r.stats.pages_read),
                r.stats.time_ms);
  resp.lines.emplace_back(head);
  for (const rankcube::ScoredTuple& t : r.tuples) {
    resp.lines.push_back(std::to_string(t.tid) + " " + FormatDouble(t.score));
  }
  return resp;
}

Response EncodeAnswer(const PartitionedTopK& r) {
  Response resp;
  char head[200];
  std::snprintf(head, sizeof(head),
                "tuples=%zu engine=scatter pages=%llu time_ms=%.3f "
                "queried=%zu pruned=%zu",
                r.tuples.size(),
                static_cast<unsigned long long>(r.stats.pages_read),
                r.stats.time_ms, r.scatter.queried,
                r.scatter.pruned_by_predicate + r.scatter.pruned_by_bound);
  resp.lines.emplace_back(head);
  for (const rankcube::PartitionedTuple& t : r.tuples) {
    resp.lines.push_back(std::to_string(t.tid) + " " + FormatDouble(t.score) +
                         " " + t.partition);
  }
  return resp;
}

/// What one replayed request did.
struct Served {
  Outcome outcome = Outcome::kOk;
  Response resp;
  std::optional<rankcube::TopKQuery> query;
  std::optional<TopKResult> answer;         ///< unpartitioned reads
  std::optional<PartitionedTopK> scattered;  ///< partitioned reads
  RowRef inserted;
  CompactionReport compaction;
  int32_t db_span = -1;  ///< the call into the db layer
};

/// Executes wire requests against an in-process db the way rankcubed's
/// connection threads do.
class Replayer {
 public:
  Replayer(ServedDb* served, Tracer* tracer)
      : served_(served),
        tracer_(tracer),
        // rankcubed's default tenant quota.
        admission_(rankcube::TenantQuota{8, 0, 0}) {}

  Served Serve(const WireRequest& wr, uint32_t id) {
    Served out;
    Tracer& t = *tracer_;
    const int32_t root = t.Begin("request", -1, id);
    Status status = Dispatch(wr, id, root, &out);
    if (!status.ok()) {
      out.outcome = Outcome::kError;
      out.resp = Response::FromStatus(status);
    }
    const int32_t encode = t.Begin("server.encode", root, id);
    if (out.answer.has_value()) out.resp = EncodeAnswer(*out.answer);
    if (out.scattered.has_value()) out.resp = EncodeAnswer(*out.scattered);
    std::string frame = rankcube::EncodeFrame(out.resp.Encode());
    t.End(encode);
    t.End(root);
    frame_bytes_ += frame.size();
    return out;
  }

 private:
  Status Dispatch(const WireRequest& wr, uint32_t id, int32_t root,
                  Served* out) {
    Tracer& t = *tracer_;
    int32_t span = t.Begin("server.parse", root, id);
    Result<rankcube::Request> req = rankcube::ParseRequest(wr.payload);
    if (!req.ok()) {
      t.End(span);
      return req.status();
    }
    const rankcube::Request& r = req.value();
    if (r.verb == "QUERY") {
      auto query = rankcube::ParseWireQuery(r, served_->schema());
      t.End(span);
      if (!query.ok()) return query.status();
      out->query = query.value();

      span = t.Begin("server.admit", root, id);
      auto ticket = admission_.Admit(tenant_);
      QueryOptions opts;
      std::tie(opts.page_budget, opts.deadline_ms) =
          admission_.Clamp(tenant_, 0, 0);
      if (const std::string* engine = r.Find("engine")) {
        opts.force_engine = *engine;
      }
      t.End(span);
      if (!ticket.ok()) return ticket.status();

      Status result = Status::OK();
      if (served_->pdb != nullptr) {
        out->db_span = t.Begin("partition.query", root, id);
        Result<PartitionedTopK> answer = served_->pdb->Query(*out->query, opts);
        t.End(out->db_span);
        result = answer.status();
        if (answer.ok()) out->scattered = std::move(answer).value();
      } else {
        out->db_span = t.Begin("db.query", root, id);
        Result<TopKResult> answer = served_->db->Query(*out->query, opts);
        t.End(out->db_span);
        result = answer.status();
        if (answer.ok()) out->answer = std::move(answer).value();
      }
      span = t.Begin("server.admit", root, id);
      ticket.value().set_ok(result.ok());
      ticket.value() = AdmissionController::Ticket();  // releases the slot
      t.End(span);
      return result;
    }
    if (r.verb == "INSERT") {
      const std::string* sel = r.Find("sel");
      const std::string* rank = r.Find("rank");
      if (sel == nullptr || rank == nullptr) {
        t.End(span);
        return Status::InvalidArgument("INSERT needs sel= and rank=");
      }
      auto sel_vals = rankcube::ParseInt32List(*sel);
      auto rank_vals = rankcube::ParseDoubleList(*rank);
      t.End(span);
      if (!sel_vals.ok()) return sel_vals.status();
      if (!rank_vals.ok()) return rank_vals.status();
      out->db_span = t.Begin("db.insert", root, id);
      if (served_->pdb != nullptr) {
        auto ref = served_->pdb->Insert(sel_vals.value(), rank_vals.value());
        t.End(out->db_span);
        if (!ref.ok()) return ref.status();
        out->inserted = {ref.value().partition, ref.value().tid};
        out->resp.lines = {"tid=" + std::to_string(ref.value().tid),
                           "partition=" + ref.value().partition};
      } else {
        auto tid = served_->db->Insert(sel_vals.value(), rank_vals.value());
        t.End(out->db_span);
        if (!tid.ok()) return tid.status();
        out->inserted = {"", tid.value()};
        out->resp.lines = {"tid=" + std::to_string(tid.value())};
      }
      return Status::OK();
    }
    if (r.verb == "DELETE") {
      const std::string* tid = r.Find("tid");
      if (tid == nullptr) {
        t.End(span);
        return Status::InvalidArgument("DELETE needs tid=");
      }
      auto v = rankcube::ParseU64Arg(*tid, "tid");
      t.End(span);
      if (!v.ok()) return v.status();
      out->db_span = t.Begin("db.delete", root, id);
      Status s = Status::OK();
      if (served_->pdb != nullptr) {
        const std::string* partition = r.Find("partition");
        s = partition == nullptr
                ? Status::InvalidArgument("DELETE needs partition=")
                : served_->pdb->Delete(*partition,
                                       static_cast<rankcube::Tid>(v.value()));
      } else {
        s = served_->db->Delete(static_cast<rankcube::Tid>(v.value()));
      }
      t.End(out->db_span);
      return s;
    }
    if (r.verb == "COMPACT") {
      t.End(span);
      out->db_span = t.Begin("db.compact", root, id);
      Result<CompactionReport> report = served_->pdb != nullptr
                                            ? served_->pdb->Compact()
                                            : served_->db->Compact();
      t.End(out->db_span);
      if (!report.ok()) return report.status();
      out->compaction = report.value();
      out->resp.lines = {"epoch=" + std::to_string(report.value().epoch),
                         "pages=" + std::to_string(report.value().pages)};
      return Status::OK();
    }
    t.End(span);
    return Status::InvalidArgument("unknown verb '" + r.verb + "'");
  }

  ServedDb* served_;
  Tracer* tracer_;
  AdmissionController admission_;
  const std::string tenant_ = "bench";
  uint64_t frame_bytes_ = 0;  ///< a sink, so the encode cannot be elided
};

/// Counters read from the db before and after the traced replay.
struct Snapshot {
  uint64_t logical = 0;
  uint64_t device = 0;
  uint64_t backing = 0;
  ResultCacheStats cache;
};

Snapshot Take(const ServedDb& s) {
  Snapshot snap;
  auto add = [&](const DbStats& st) {
    snap.logical += st.pages_logical;
    snap.device += st.pages_device;
    snap.backing += st.backing_reads;
  };
  if (s.pdb != nullptr) {
    for (const auto& [name, st] : s.pdb->Stats().per_partition) add(st);
    snap.cache = s.pdb->CacheStats();
  } else {
    add(s.db->Stats());
    snap.cache = s.db->CacheStats();
  }
  return snap;
}

/// One partition's part in a query: its db, and the engine and page
/// estimate its planner chose.
struct Routed {
  RankCubeDb* db = nullptr;
  std::string engine;
  double est_pages = 0.0;
};

/// The scatter's candidate partitions for `query`, in the order it queries
/// them, each with its planner's choice, from ExplainScatter. Taken before
/// the query runs, so the choices are the ones it executes with: the query
/// itself feeds its cost back. A scatter queries a prefix of this list
/// (ScatterStats::queried long) and discards the rest by bound.
std::vector<Routed> ScatterRoutes(ServedDb& s,
                                  const rankcube::TopKQuery& query) {
  auto explained = s.pdb->ExplainScatter(query);
  if (!explained.ok()) return {};
  std::vector<std::pair<size_t, Routed>> ordered;
  std::istringstream lines(explained.value());
  std::string line;
  while (std::getline(lines, line)) {
    // "partition=<name> range=[lo,hi) order=<i> bound=<b> engine=<key>
    // est_pages=<n>"; pruned and empty partitions have no order=.
    std::map<std::string, std::string> kv;
    std::istringstream tokens(line);
    std::string token;
    while (tokens >> token) {
      size_t eq = token.find('=');
      if (eq != std::string::npos) {
        kv[token.substr(0, eq)] = token.substr(eq + 1);
      }
    }
    if (!kv.count("partition") || !kv.count("order") || !kv.count("engine") ||
        !kv.count("est_pages")) {
      continue;
    }
    auto part = s.pdb->Partition(kv["partition"]);
    if (!part.ok()) continue;
    // PartitionedDb hands out partitions read-only; pricing needs
    // RankCubeDb::Engine(), which returns the already built engine.
    ordered.push_back({std::strtoull(kv["order"].c_str(), nullptr, 10),
                       {const_cast<RankCubeDb*>(part.value()), kv["engine"],
                        std::strtod(kv["est_pages"].c_str(), nullptr)}});
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Routed> out;
  for (auto& [order, routed] : ordered) out.push_back(std::move(routed));
  return out;
}

uint64_t WalBytes(ServedDb& s, const std::string& partition) {
  if (s.pdb == nullptr) return s.db->Stats().wal_bytes;
  auto st = s.pdb->PartitionStats(partition);
  return st.ok() ? st.value().wal_bytes : 0;
}

/// Everything the traced replay accumulates.
struct Accum {
  uint64_t requests = 0;
  uint64_t queries = 0;
  uint64_t writes = 0;
  uint64_t executed = 0;
  uint64_t hits = 0;
  std::vector<double> hit_us;
  std::map<std::string, uint64_t> routes;
  uint64_t routed = 0;
  std::vector<double> plan_us;
  std::map<std::string, std::vector<double>> exec_us;
  double log_est_ratio = 0.0;
  uint64_t priced = 0;
  uint64_t pricing_backing = 0;
  uint64_t pages = 0;
  uint64_t tuples_evaluated = 0;
  uint64_t tuples_returned = 0;
  uint64_t signature_pages = 0;
  uint64_t delta_rows = 0;
  std::vector<double> insert_us;
  std::vector<double> delete_us;
  std::vector<double> compact_ms;
  uint64_t compact_pages = 0;
  uint64_t wal_bytes = 0;
  std::vector<double> scatter_us;
  ScatterStats scatter;
  uint64_t checked = 0;
  uint64_t mismatches = 0;
  std::string why;
  OutcomeTally tally;
};

/// Learned cost correction per feedback family; the geometric mean over
/// partitions on a partitioned db (1 for a family with no observations).
std::map<std::string, double> FeedbackCorrections(const ServedDb& s) {
  std::vector<std::map<std::string, rankcube::CostFeedback::FamilyState>>
      snaps;
  if (s.pdb != nullptr) {
    for (const rankcube::PartitionInfo& info : s.pdb->ListPartitions()) {
      auto part = s.pdb->Partition(info.name);
      if (part.ok()) snaps.push_back(part.value()->FeedbackSnapshot());
    }
  } else {
    snaps.push_back(s.db->FeedbackSnapshot());
  }
  std::map<std::string, double> out;
  for (const char* family : kFamilies) {
    double log_sum = 0.0;
    for (const auto& snap : snaps) {
      auto it = snap.find(family);
      if (it != snap.end()) log_sum += std::log(it->second.correction);
    }
    out[family] = snaps.empty() ? 1.0 : std::exp(log_sum / snaps.size());
  }
  return out;
}

/// Prices one partition's (or the db's) part in an executed query,
/// outside its request span: times the planner with Explain and the
/// engine the query ran on with a direct Execute on a fresh IoSession.
/// The Execute reads about the pages the query just read, so it barely
/// changes the buffer cache; its checkpoint reads are counted apart.
void Price(const Routed& routed, const rankcube::TopKQuery& query,
           Accum* acc) {
  RankCubeDb* db = routed.db;
  ++acc->routes[routed.engine];
  ++acc->routed;
  const int64_t t0 = NowNs();
  auto plan = db->Explain(query);
  const int64_t t1 = NowNs();
  if (plan.ok()) acc->plan_us.push_back(Us(t1 - t0));
  auto engine = db->Engine(routed.engine);
  if (!engine.ok()) return;
  rankcube::IoSession io(&db->store());
  rankcube::ExecContext ctx;
  ctx.io = &io;
  const uint64_t backing = db->store().backing_reads();
  const int64_t t2 = NowNs();
  auto result = engine.value()->Execute(query, ctx);
  const int64_t t3 = NowNs();
  acc->pricing_backing += db->store().backing_reads() - backing;
  if (!result.ok()) return;
  acc->exec_us[routed.engine].push_back(Us(t3 - t2));
  acc->log_est_ratio +=
      std::log(std::max(routed.est_pages, 1.0) /
               std::max(static_cast<double>(io.TotalPhysical()), 1.0));
  ++acc->priced;
  auto fresh = db->FreshnessByEngine();
  auto it = fresh.find(routed.engine);
  if (it != fresh.end()) {
    acc->delta_rows += it->second.pending_inserts + it->second.pending_deletes;
  }
}

/// What one replay pass measured.
struct PassResult {
  uint64_t stream_requests = 0;  ///< excluding the write probe
  uint64_t requests = 0;
  int64_t serve_ns = 0;
  // Traced pass only: db counter deltas over the replay.
  uint64_t logical = 0;
  uint64_t device = 0;
  uint64_t backing = 0;
  ResultCacheStats cache_before;
  ResultCacheStats cache_after;
  std::map<std::string, double> feedback;
};

/// One replay over a freshly opened db: the warm-up, then `limit`
/// requests (or, with limit 0, as many as fit in `budget_s`), then the
/// write probe of a read-only workload. With `acc` set, the pass is the
/// traced one and books every per-layer count into it.
Result<PassResult> RunPass(const TraceOptions& opt,
                           const std::vector<QueryTemplate>& templates,
                           const Table& base, const std::string& dir,
                           uint64_t limit, double budget_s, Tracer* tracer,
                           Accum* acc, Oracle* oracle) {
  const WorkloadSpec& spec = opt.spec;
  const uint64_t qseed = QuerySeed(opt.seed);
  auto opened = OpenServed(spec, base, dir);
  if (!opened.ok()) return opened.status();
  ServedDb served = std::move(opened).value();
  Tracer off(false);
  Replayer warm_replayer(&served, &off);
  Replayer replayer(&served, tracer);
  const bool traced = acc != nullptr;

  std::vector<int32_t> sel;
  std::vector<double> rank;
  auto apply_to_oracle = [&](const WireRequest& req, const Served& out) {
    if (oracle == nullptr || out.outcome != Outcome::kOk) return;
    if (req.verb == Verb::kInsert &&
        ParseInsert(req.payload, &sel, &rank).ok()) {
      Status s = oracle->ApplyInsert(out.inserted, sel, rank);
      if (!s.ok()) {
        ++acc->mismatches;
        if (acc->why.empty()) acc->why = "oracle insert: " + s.ToString();
      }
    } else if (req.verb == Verb::kDelete) {
      (void)oracle->ApplyDelete(req.target);
    }
  };

  // The daemon's set-up, then its warm-up.
  RequestStream warm(spec, &templates, qseed, RequestStream::kWarmup);
  std::vector<WireRequest> setup = SetupRequests(spec);
  for (size_t i = 0; i < setup.size() + spec.warmup_requests; ++i) {
    WireRequest req = i < setup.size() ? setup[i] : warm.Next();
    Served out = warm_replayer.Serve(req, 0);
    if (req.verb == Verb::kInsert && out.outcome == Outcome::kOk) {
      warm.Inserted(out.inserted);
    }
    apply_to_oracle(req, out);
  }

  std::vector<RequestStream> streams;
  for (int c = 0; c < spec.conns; ++c) {
    streams.emplace_back(spec, &templates, qseed, c);
  }
  RequestStream probe(spec, &templates, qseed, RequestStream::kProbe);
  rankcube::Rng sampler(qseed ^ 0xc0ffeeull);
  const double check_p =
      limit > 0 ? std::min(1.0, kTraceChecks / static_cast<double>(limit))
                : 0.0;
  const Snapshot before = Take(served);

  PassResult pass;
  const auto start = Clock::now();
  const uint64_t probe_writes =
      spec.writes() ? 0 : 2 * static_cast<uint64_t>(spec.write_probe_pairs);
  bool open_ended = limit == 0;
  for (uint64_t i = 0;; ++i) {
    // Interleave the connections' streams round-robin, then the probe.
    if (open_ended && std::chrono::duration<double>(Clock::now() - start)
                              .count() >= budget_s) {
      limit = i;
      open_ended = false;
    }
    const bool streaming = open_ended || i < limit;
    if (!streaming && i >= limit + probe_writes) break;
    RequestStream& stream = streaming ? streams[i % spec.conns] : probe;
    WireRequest req = streaming                     ? stream.Next()
                      : (i - limit) % 2 == 0 ? stream.NextInsert()
                                             : stream.NextDelete();
    const uint32_t id = static_cast<uint32_t>(i + 1);

    ResultCacheStats cache_before;
    uint64_t wal_before = 0;
    std::string wal_partition;
    if (traced) {
      cache_before = served.pdb ? served.pdb->CacheStats()
                                : served.db->CacheStats();
      if (req.verb == Verb::kInsert || req.verb == Verb::kDelete) {
        if (req.verb == Verb::kDelete) {
          wal_partition = req.target.partition;
        } else if (ParseInsert(req.payload, &sel, &rank).ok()) {
          wal_partition = spec.PartitionOf(sel[0]);
        }
        wal_before = WalBytes(served, wal_partition);
      }
    }
    // A scatter's routing, read before the query feeds back its cost.
    std::vector<Routed> scatter_routes;
    if (traced && served.pdb != nullptr && req.verb == Verb::kQuery) {
      auto parsed = rankcube::ParseRequest(req.payload);
      if (parsed.ok()) {
        auto query = rankcube::ParseWireQuery(parsed.value(), served.schema());
        if (query.ok()) scatter_routes = ScatterRoutes(served, query.value());
      }
    }
    const int64_t t0 = NowNs();
    Served out = replayer.Serve(req, id);
    pass.serve_ns += NowNs() - t0;
    ++pass.requests;
    if (req.verb == Verb::kInsert && out.outcome == Outcome::kOk) {
      stream.Inserted(out.inserted);
    }
    apply_to_oracle(req, out);
    if (!traced) continue;

    // --- bookkeeping outside the request span ---
    acc->tally.Add(out.outcome);
    ++acc->requests;
    const double db_us = Us(tracer->Duration(out.db_span));
    if (req.verb != Verb::kQuery) {
      if (out.outcome != Outcome::kOk) continue;
      if (req.verb == Verb::kCompact) {
        acc->compact_ms.push_back(db_us / 1000.0);
        acc->compact_pages += out.compaction.pages;
        continue;
      }
      ++acc->writes;
      (req.verb == Verb::kInsert ? acc->insert_us : acc->delete_us)
          .push_back(db_us);
      const uint64_t wal_after = WalBytes(served, wal_partition);
      if (wal_after > wal_before) acc->wal_bytes += wal_after - wal_before;
      continue;
    }
    ++acc->queries;
    if (out.outcome != Outcome::kOk) continue;
    const ResultCacheStats cache_after =
        served.pdb ? served.pdb->CacheStats() : served.db->CacheStats();
    if (served.pdb != nullptr) acc->scatter_us.push_back(db_us);
    if (cache_after.hits > cache_before.hits) {
      ++acc->hits;
      acc->hit_us.push_back(db_us);
    } else if (cache_after.reuse_hits == cache_before.reuse_hits) {
      ++acc->executed;
      const ExecStats& stats =
          out.answer ? out.answer->stats : out.scattered->stats;
      acc->pages += stats.pages_read;
      acc->tuples_evaluated += stats.tuples_evaluated;
      acc->tuples_returned += out.answer ? out.answer->tuples.size()
                                         : out.scattered->tuples.size();
      acc->signature_pages += stats.signature_pages;
      if (out.scattered) {
        const ScatterStats& sc = out.scattered->scatter;
        acc->scatter.partitions += sc.partitions;
        acc->scatter.queried += sc.queried;
        acc->scatter.pruned_by_predicate += sc.pruned_by_predicate;
        acc->scatter.pruned_by_bound += sc.pruned_by_bound;
        // Only the partitions the scatter queried ran an engine.
        for (size_t p = 0; p < sc.queried && p < scatter_routes.size(); ++p) {
          Price(scatter_routes[p], *out.query, acc);
        }
      } else if (out.answer->plan != nullptr) {
        Price({served.db.get(), out.answer->plan->chosen_engine,
               out.answer->plan->estimated_pages},
              *out.query, acc);
      }
    }
    if (oracle != nullptr && sampler.Uniform01() < check_p) {
      ++acc->checked;
      std::string reason;
      auto rows = DecodeAnswer(out.resp.lines);
      if (!rows.ok() ||
          !CheckAnswer(*oracle, req.payload, rows.value(), &reason)) {
        ++acc->mismatches;
        if (acc->why.empty()) acc->why = req.payload + ": " + reason;
      }
    }
  }

  pass.stream_requests = limit;
  if (traced) {
    const Snapshot after = Take(served);
    pass.logical = after.logical - before.logical;
    pass.device = after.device - before.device;
    // Pricing reads are not query traffic.
    pass.backing = after.backing - before.backing - acc->pricing_backing;
    pass.cache_before = before.cache;
    pass.cache_after = after.cache;
    pass.feedback = FeedbackCorrections(served);
  }
  return pass;
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double Frac(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// FusedScorer::ScoreBlock throughput over the workload's table, per
/// function kind, on consecutive tids (the dense kernels) and on a sorted
/// random half of the rows (the indexed kernels). Median of five passes.
std::map<std::string, double> KernelNsPerTuple(const Table& base,
                                               uint64_t qseed) {
  rankcube::Rng rng(qseed ^ 0xabcdefull);
  std::vector<rankcube::Tid> dense(base.num_rows());
  std::vector<rankcube::Tid> indexed;
  for (rankcube::Tid t = 0; t < dense.size(); ++t) {
    dense[t] = t;
    if (rng.Uniform01() < 0.5) indexed.push_back(t);
  }
  auto w = [&] {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6f", rng.Uniform(0.05, 1.0));
    return std::string(buf);
  };
  std::map<std::string, double> out;
  for (const char* kind : kKernelKinds) {
    const std::string k(kind);
    // Separate statements: the draws must happen in a fixed order.
    const std::string w0 = w();
    const std::string w1 = w();
    std::string order = k + ":" + w0 + "," + (k == "sqlinear" ? "-" : "") + w1;
    if (k == "l1" || k == "dist") {
      const std::string t0 = w();
      const std::string t1 = w();
      order += '@';
      order += t0;
      order += ',';
      order += t1;
    }
    auto req = rankcube::ParseRequest("QUERY k=10 order=" + order);
    auto query = rankcube::ParseWireQuery(req.value(), base.schema());
    if (!query.ok()) continue;
    for (const auto& [layout, tids] :
         {std::pair<const char*, const std::vector<rankcube::Tid>*>{"dense",
                                                                    &dense},
          {"indexed", &indexed}}) {
      std::vector<double> ns;
      for (int rep = 0; rep < 5; ++rep) {
        rankcube::TopKHeap heap(10);
        ExecStats stats;
        rankcube::kernels::FusedScorer scorer(base, *query.value().function,
                                              &heap, &stats);
        const int64_t t0 = NowNs();
        for (size_t off = 0; off < tids->size(); off += 1024) {
          scorer.ScoreBlock(tids->data() + off,
                            std::min<size_t>(1024, tids->size() - off));
        }
        ns.push_back(static_cast<double>(NowNs() - t0) /
                     static_cast<double>(std::max<size_t>(1, tids->size())));
      }
      out["kernels.ns_per_tuple." + k + "." + layout] = Summarize(ns).p50;
    }
  }
  return out;
}

Status WriteSpans(const std::string& path, const std::vector<Span>& spans,
                  const std::vector<int64_t>& self) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Internal("cannot write " + path);
  std::fprintf(f, "request\tspan\tparent\tname\tstart_ns\tend_ns\tself_ns\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%u\t%zu\t%d\t%s\t%lld\t%lld\t%lld\n", s.request, i,
                 s.parent, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(f) == 0 ? Status::OK()
                             : Status::Internal("cannot write " + path);
}

}  // namespace

int RunTrace(const TraceOptions& opt) {
  namespace fs = std::filesystem;
  const WorkloadSpec& spec = opt.spec;
  const uint64_t qseed = QuerySeed(opt.seed);
  const std::vector<QueryTemplate> templates = MakeTemplates(spec, qseed);
  const Table base = BaseTable(spec, opt.seed);
  std::map<std::string, double> metrics = KernelNsPerTuple(base, qseed);

  // Spans off: sets the request count and the baseline for the overhead.
  Tracer off(false);
  const std::string untraced_dir = opt.work_dir + "/untraced";
  auto untraced = RunPass(opt, templates, base, untraced_dir, 0,
                          kReplayShare * opt.seconds, &off, nullptr, nullptr);
  std::error_code ec;
  fs::remove_all(untraced_dir, ec);
  if (!untraced.ok()) {
    std::fprintf(stderr, "rcbench: untraced replay: %s\n",
                 untraced.status().ToString().c_str());
    return 1;
  }

  // Spans on, same requests, on a fresh db that went through the same
  // warm-up; answers checked against the oracle as the writes apply.
  Tracer tracer(true);
  Accum acc;
  Oracle oracle(spec, base);
  const std::string traced_dir = opt.work_dir + "/traced";
  auto traced =
      RunPass(opt, templates, base, traced_dir, untraced.value().stream_requests,
              0.0, &tracer, &acc, &oracle);
  fs::remove_all(traced_dir, ec);
  if (!traced.ok()) {
    std::fprintf(stderr, "rcbench: traced replay: %s\n",
                 traced.status().ToString().c_str());
    return 1;
  }
  const PassResult& pass = traced.value();

  const std::vector<Span>& spans = tracer.spans();
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, int64_t> self_ns;
  int64_t request_ns = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    self_ns[spans[i].name] += self[i];
    if (spans[i].parent < 0) request_ns += spans[i].end_ns - spans[i].start_ns;
  }
  const double requests = static_cast<double>(acc.requests);
  const double queries = static_cast<double>(acc.queries);
  const double writes = static_cast<double>(acc.writes);
  const double executed = static_cast<double>(acc.executed);

  metrics["server.parse_us"] = Frac(Us(self_ns["server.parse"]), requests);
  metrics["server.admit_us"] = Frac(Us(self_ns["server.admit"]), queries);
  metrics["server.encode_us"] = Frac(Us(self_ns["server.encode"]), requests);

  const ResultCacheStats& c0 = pass.cache_before;
  const ResultCacheStats& c1 = pass.cache_after;
  metrics["cache.hit_frac"] = Frac(c1.hits - c0.hits, queries);
  metrics["cache.reuse_frac"] = Frac(c1.reuse_hits - c0.reuse_hits, queries);
  metrics["cache.hit_us"] = Mean(acc.hit_us);
  metrics["cache.invalidations_per_write"] =
      Frac(c1.invalidations - c0.invalidations, writes);
  metrics["cache.evictions"] = static_cast<double>(c1.evictions - c0.evictions);

  metrics["planner.plan_us"] = Mean(acc.plan_us);
  for (const std::string& engine : PlannableEngines()) {
    metrics["planner.route_share." + engine] =
        Frac(acc.routes[engine], acc.routed);
  }
  metrics["planner.est_pages_ratio"] =
      acc.priced > 0 ? std::exp(acc.log_est_ratio / acc.priced) : 0.0;
  for (const auto& [family, correction] : pass.feedback) {
    metrics["planner.feedback_correction." + family] = correction;
  }

  for (const std::string& engine : PlannableEngines()) {
    LatencySummary s = Summarize(acc.exec_us[engine]);
    metrics["engine.exec_us_p50." + engine] = s.p50;
    metrics["engine.exec_us_p99." + engine] = s.tail;
  }
  metrics["engine.pages_per_query"] = Frac(acc.pages, executed);
  metrics["engine.tuples_per_result"] =
      Frac(acc.tuples_evaluated, acc.tuples_returned);
  metrics["engine.delta_rows_per_query"] = Frac(acc.delta_rows, executed);
  metrics["core.signature_pages_per_query"] =
      Frac(acc.signature_pages, executed);

  metrics["storage.buffer_hit_frac"] =
      pass.logical > 0 ? 1.0 - Frac(pass.device, pass.logical) : 0.0;
  metrics["storage.backing_reads_per_query"] = Frac(pass.backing, queries);
  LatencySummary ins = Summarize(acc.insert_us);
  metrics["storage.insert_us_p50"] = ins.p50;
  metrics["storage.insert_us_p99"] = ins.tail;
  metrics["storage.delete_us_p50"] = Summarize(acc.delete_us).p50;
  metrics["storage.wal_bytes_per_write"] = Frac(acc.wal_bytes, writes);
  metrics["storage.compact_ms"] = Mean(acc.compact_ms);
  metrics["storage.compact_pages"] =
      Frac(acc.compact_pages, acc.compact_ms.size());

  const ScatterStats& sc = acc.scatter;
  metrics["partition.query_us"] = Mean(acc.scatter_us);
  metrics["partition.queried_frac"] = Frac(sc.queried, sc.partitions);
  metrics["partition.pruned_by_predicate_frac"] =
      Frac(sc.pruned_by_predicate, sc.partitions);
  metrics["partition.pruned_by_bound_frac"] =
      Frac(sc.pruned_by_bound, sc.partitions);

  const double overhead =
      Frac(static_cast<double>(request_ns),
           static_cast<double>(untraced.value().serve_ns)) -
      1.0;
  metrics["trace.overhead_frac"] = overhead;

  if (!opt.spans_path.empty()) {
    Status written = WriteSpans(opt.spans_path, spans, self);
    if (!written.ok()) {
      std::fprintf(stderr, "rcbench: %s\n", written.ToString().c_str());
      return 1;
    }
  }
  if (!acc.why.empty()) {
    std::fprintf(stderr, "rcbench: mismatch: %s\n", acc.why.c_str());
  }

  JsonObject m;
  for (const auto& [name, value] : metrics) m.Num(name, value);
  JsonObject report;
  report.Int("attempted", acc.tally.attempted)
      .Int("failed", acc.tally.failed())
      .Int("query_seed", qseed)
      .Int("connections", spec.conns)
      .Int("replayed", pass.requests)
      .Int("spans", spans.size())
      .Int("checked", acc.checked)
      .Int("mismatches", acc.mismatches)
      .Num("traced_request_s", static_cast<double>(request_ns) / 1e9)
      .Num("untraced_request_s",
           static_cast<double>(untraced.value().serve_ns) / 1e9)
      .Raw("metrics", m.str());
  std::printf("%s\n", report.str().c_str());
  return 0;
}

}  // namespace perfbench
