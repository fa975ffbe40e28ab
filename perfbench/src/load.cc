// The load generator: drives a live rankcubed over loopback TCP with the
// workload's seeded request streams, one closed-loop connection per
// stream, and checks a sample of the answers against the oracle.
#include "load.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "json.h"
#include "server/client.h"

namespace perfbench {

using rankcube::RankCubeClient;
using rankcube::Response;
using rankcube::Result;
using rankcube::Status;
using Clock = std::chrono::steady_clock;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Served answers kept per connection for the answer check.
constexpr size_t kSamplesPerConn = 40;
/// Queries sent after a writing run to check the final state.
constexpr int kCheckQueries = 100;
constexpr int kPings = 3000;

Outcome Classify(const Result<Response>& r) {
  if (!r.ok()) return Outcome::kTransport;
  if (r.value().ok()) return Outcome::kOk;
  if (r.value().code == rankcube::WireCode::kQuotaExceeded) {
    return Outcome::kRejected;
  }
  return Outcome::kError;
}

Result<RankCubeClient> Dial(uint16_t port) {
  auto client = RankCubeClient::Connect("127.0.0.1", port);
  if (!client.ok()) return client.status();
  auto hello = client.value().Hello("bench");
  if (!hello.ok()) return hello.status();
  if (!hello.value().ok()) {
    return Status::Internal("HELLO: " + hello.value().message);
  }
  return client;
}

/// The writes a run's acked requests applied, for rebuilding the oracle.
struct WriteLog {
  std::vector<std::pair<RowRef, std::string>> inserts;  ///< row, payload
  std::vector<RowRef> deletes;
};

struct ConnResult {
  OutcomeTally tally;
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  WriteLog log;
  /// Client latency of OK answers by the engine= their header names.
  std::map<std::string, std::vector<double>> route_ms;
  uint64_t compactions = 0;
  /// Reservoir sample of (payload, response lines) of OK reads.
  std::vector<std::pair<std::string, std::vector<std::string>>> samples;
  uint64_t reads_seen = 0;
  std::string first_failure;
};

/// Sends one request and books its outcome, latency and side effects.
/// Returns false once the connection is unusable.
bool Issue(RankCubeClient& client, RequestStream& stream,
           const WireRequest& req, ConnResult* out, rankcube::Rng* sampler,
           uint16_t port) {
  const auto t0 = Clock::now();
  Result<Response> r = client.Call(req.payload);
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  const Outcome outcome = Classify(r);
  out->tally.Add(outcome);
  // A request that failed counts as missing any latency limit.
  const double latency = outcome == Outcome::kOk ? ms : kInf;
  (req.verb == Verb::kQuery ? out->read_ms : out->write_ms).push_back(latency);
  if (outcome != Outcome::kOk) {
    if (out->first_failure.empty()) {
      out->first_failure =
          req.payload + " -> " +
          (r.ok() ? std::string(rankcube::WireCodeName(r.value().code)) + " " +
                        r.value().message
                  : r.status().ToString());
    }
    if (outcome == Outcome::kTransport) {
      auto redial = Dial(port);
      if (!redial.ok()) return false;
      client = std::move(redial).value();
    }
    return true;
  }
  const Response& resp = r.value();
  switch (req.verb) {
    case Verb::kQuery: {
      if (!resp.lines.empty()) {
        const std::string& head = resp.lines[0];
        size_t at = head.find("engine=");
        if (at != std::string::npos) {
          size_t end = head.find(' ', at);
          out->route_ms[head.substr(at + 7, end - at - 7)].push_back(ms);
        }
      }
      ++out->reads_seen;
      if (out->samples.size() < kSamplesPerConn) {
        out->samples.emplace_back(req.payload, resp.lines);
      } else {
        uint64_t j = sampler->UniformInt(out->reads_seen);
        if (j < kSamplesPerConn) out->samples[j] = {req.payload, resp.lines};
      }
      break;
    }
    case Verb::kInsert: {
      auto ref = DecodeInsertAck(resp.lines);
      if (ref.ok()) {
        stream.Inserted(ref.value());
        out->log.inserts.emplace_back(ref.value(), req.payload);
      }
      break;
    }
    case Verb::kDelete:
      out->log.deletes.push_back(req.target);
      break;
    case Verb::kCompact:
      ++out->compactions;
      break;
  }
  return true;
}

/// Sum of every engines_built counter in a STATS answer (one per
/// partition on a partitioned server).
uint64_t EnginesBuilt(RankCubeClient& client) {
  auto stats = client.Call("STATS");
  if (!stats.ok() || !stats.value().ok()) return 0;
  uint64_t built = 0;
  for (const std::string& line : stats.value().lines) {
    size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = line.substr(0, eq);
    if (key == "engines_built" ||
        (key.size() > 14 &&
         key.compare(key.size() - 14, 14, ".engines_built") == 0)) {
      built += std::strtoull(line.c_str() + eq + 1, nullptr, 10);
    }
  }
  return built;
}

/// Adds the engine each partition's planner would pick for `req`, from
/// an EXPLAIN of it (one "partition=... engine=<key> ..." line per
/// candidate partition).
void CountExplainedRoutes(RankCubeClient& client, const WireRequest& req,
                          std::map<std::string, uint64_t>* routing) {
  auto r = client.Call("EXPLAIN" + req.payload.substr(req.payload.find(' ')));
  if (!r.ok() || !r.value().ok()) return;
  for (const std::string& line : r.value().lines) {
    size_t at = line.find(" engine=");
    if (line.rfind("partition=", 0) != 0 || at == std::string::npos) continue;
    size_t end = line.find(' ', at + 8);
    ++(*routing)[line.substr(at + 8, end - at - 8)];
  }
}

JsonObject Latencies(const std::string& prefix,
                     const std::vector<double>& ms) {
  RunLatency run = SummarizeRun(ms);
  JsonObject o;
  o.Int(prefix + "_n", run.summary.n)
      .Num(prefix + "_p50_ms", run.summary.p50)
      .Num(prefix + "_tail_ms", run.summary.tail)
      .Num(prefix + "_tail_pct", run.summary.tail_pct)
      .Int(prefix + "_tail_blocks", run.blocks);
  return o;
}

/// Rebuilds the final relation from the base and every acked write.
Status ApplyLog(const WriteLog& log, Oracle* oracle) {
  std::vector<const std::pair<RowRef, std::string>*> inserts;
  for (const auto& entry : log.inserts) inserts.push_back(&entry);
  // Connections interleave, so apply each partition's inserts in tid order.
  std::sort(inserts.begin(), inserts.end(), [](const auto* a, const auto* b) {
    return std::tie(a->first.partition, a->first.tid) <
           std::tie(b->first.partition, b->first.tid);
  });
  std::vector<int32_t> sel;
  std::vector<double> rank;
  for (const auto* entry : inserts) {
    RC_RETURN_IF_ERROR(ParseInsert(entry->second, &sel, &rank));
    RC_RETURN_IF_ERROR(oracle->ApplyInsert(entry->first, sel, rank));
  }
  for (const RowRef& ref : log.deletes) {
    RC_RETURN_IF_ERROR(oracle->ApplyDelete(ref));
  }
  return Status::OK();
}

// Sample files: for reads then writes, a uint64 count and that many
// doubles (milliseconds; +inf for a failed request).
bool WriteSamples(const std::string& path,
                  const std::vector<const std::vector<double>*>& sets) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = true;
  for (const std::vector<double>* v : sets) {
    const uint64_t n = v->size();
    ok = ok && std::fwrite(&n, sizeof(n), 1, f) == 1 &&
         std::fwrite(v->data(), sizeof(double), n, f) == n;
  }
  return std::fclose(f) == 0 && ok;
}

bool ReadSamples(const std::string& path,
                 const std::vector<std::vector<double>*>& sets) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  bool ok = true;
  for (std::vector<double>* v : sets) {
    uint64_t n = 0;
    ok = ok && std::fread(&n, sizeof(n), 1, f) == 1 && n < (1ull << 32);
    if (!ok) break;
    const size_t old = v->size();
    v->resize(old + n);
    ok = std::fread(v->data() + old, sizeof(double), n, f) == n;
  }
  std::fclose(f);
  return ok;
}

}  // namespace

int RunPool(const std::vector<std::string>& samples_paths) {
  std::vector<double> read_ms, write_ms;
  for (const std::string& path : samples_paths) {
    if (!ReadSamples(path, {&read_ms, &write_ms})) {
      std::fprintf(stderr, "rcbench: cannot read samples %s\n", path.c_str());
      return 1;
    }
  }
  JsonObject report;
  report.Raw("read", Latencies("read", read_ms).str())
      .Raw("write", Latencies("write", write_ms).str());
  std::printf("%s\n", report.str().c_str());
  return 0;
}

int RunLoad(const LoadOptions& opt) {
  const WorkloadSpec& spec = opt.spec;
  const uint64_t qseed = QuerySeed(opt.seed);
  const std::vector<QueryTemplate> templates = MakeTemplates(spec, qseed);
  rankcube::Rng sampler(qseed ^ 0x5a5a5a5aull);

  auto control = Dial(opt.port);
  if (!control.ok()) {
    std::fprintf(stderr, "rcbench: connect: %s\n",
                 control.status().ToString().c_str());
    return 1;
  }
  RankCubeClient& conn0 = control.value();

  // Set-up: the forced builds, the same work on every seed; "setup" marks
  // its end. Then the warm-up: seeded, fixed-count, one connection. It
  // settles the planner's feedback before timing; routing decides how
  // long each of its queries takes, so it is not part of set-up.
  ConnResult warm;
  RequestStream warm_stream(spec, &templates, qseed, RequestStream::kWarmup);
  for (const WireRequest& req : SetupRequests(spec)) {
    if (!Issue(conn0, warm_stream, req, &warm, &sampler, opt.port)) break;
  }
  std::printf("setup\n");
  std::fflush(stdout);
  const uint64_t built_setup = EnginesBuilt(conn0);
  for (int i = 0; i < spec.warmup_requests; ++i) {
    if (!Issue(conn0, warm_stream, warm_stream.Next(), &warm, &sampler,
               opt.port)) {
      break;
    }
  }

  JsonObject report;
  OutcomeTally total = warm.tally;
  report.Int("warmup_attempted", warm.tally.attempted)
      .Int("warmup_failed", warm.tally.failed());

  if (opt.mode == LoadMode::kPing) {
    std::vector<double> rtt_us;
    for (int i = 0; i < kPings; ++i) {
      const auto t0 = Clock::now();
      auto r = conn0.Ping();
      rtt_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count());
      total.Add(Classify(r));
    }
    LatencySummary s = Summarize(rtt_us);
    report.Num("ping_rtt_us", s.p50)
        .Int("attempted", total.attempted)
        .Int("failed", total.failed());
    std::printf("%s\n", report.str().c_str());
    return 0;
  }

  // Timed phase: `conns` closed loops, each its own seeded stream.
  const uint64_t built_before = EnginesBuilt(conn0);
  std::vector<std::unique_ptr<RankCubeClient>> clients;
  for (int c = 0; c < spec.conns; ++c) {
    auto client = Dial(opt.port);
    if (!client.ok()) {
      std::fprintf(stderr, "rcbench: connect: %s\n",
                   client.status().ToString().c_str());
      return 1;
    }
    clients.push_back(
        std::make_unique<RankCubeClient>(std::move(client).value()));
  }
  std::vector<ConnResult> results(spec.conns);
  std::vector<std::unique_ptr<RequestStream>> streams;
  for (int c = 0; c < spec.conns; ++c) {
    streams.push_back(
        std::make_unique<RequestStream>(spec, &templates, qseed, c));
  }
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(opt.seconds));
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < spec.conns; ++c) {
      threads.emplace_back([&, c] {
        rankcube::Rng conn_sampler(qseed + 7919 * static_cast<uint64_t>(c));
        while (Clock::now() < deadline) {
          if (!Issue(*clients[c], *streams[c], streams[c]->Next(), &results[c],
                     &conn_sampler, opt.port)) {
            break;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  const uint64_t built_after = EnginesBuilt(conn0);

  ConnResult timed;
  for (ConnResult& r : results) {
    timed.tally += r.tally;
    timed.read_ms.insert(timed.read_ms.end(), r.read_ms.begin(),
                         r.read_ms.end());
    timed.write_ms.insert(timed.write_ms.end(), r.write_ms.begin(),
                          r.write_ms.end());
    for (auto& [engine, ms] : r.route_ms) {
      auto& all = timed.route_ms[engine];
      all.insert(all.end(), ms.begin(), ms.end());
    }
    timed.compactions += r.compactions;
    if (timed.first_failure.empty()) timed.first_failure = r.first_failure;
  }
  total += timed.tally;

  // Read-only workloads: time writes after the timed phase instead, with
  // INSERT+DELETE pairs that leave the relation as it was.
  ConnResult probe;
  if (!spec.writes() && spec.write_probe_pairs > 0) {
    RequestStream probe_stream(spec, &templates, qseed,
                               RequestStream::kProbe);
    for (int i = 0; i < spec.write_probe_pairs; ++i) {
      if (!Issue(conn0, probe_stream, probe_stream.NextInsert(), &probe,
                 &sampler, opt.port) ||
          !Issue(conn0, probe_stream, probe_stream.NextDelete(), &probe,
                 &sampler, opt.port)) {
        break;
      }
    }
    total += probe.tally;
  }
  std::vector<double>& write_ms =
      spec.writes() ? timed.write_ms : probe.write_ms;

  // Answer check against the oracle.
  const Table base = BaseTable(spec, opt.seed);
  Oracle oracle(spec, base);
  uint64_t checked = 0;
  uint64_t mismatches = 0;
  std::string why;
  // A partitioned answer's header names only the scatter, so routing is
  // sampled after the timed phase instead: engine -> how many candidate
  // partitions' planners pick it for the check queries.
  std::map<std::string, uint64_t> routing;
  auto check = [&](const std::string& payload,
                   const std::vector<std::string>& lines) {
    ++checked;
    std::string reason;
    auto served = DecodeAnswer(lines);
    bool same = served.ok() &&
                CheckAnswer(oracle, payload, served.value(), &reason);
    if (!served.ok()) reason = served.status().ToString();
    if (!same) {
      ++mismatches;
      if (why.empty()) why = payload + ": " + reason;
    }
  };
  if (!spec.writes()) {
    // The relation never changed while these answers were served.
    for (const ConnResult& r : results) {
      for (const auto& [payload, lines] : r.samples) check(payload, lines);
    }
  } else {
    // Concurrent writers: check the final state, rebuilt from the acked
    // writes, with a seeded set of queries sent after the timed phase.
    WriteLog all = warm.log;
    for (const ConnResult& r : results) {
      all.inserts.insert(all.inserts.end(), r.log.inserts.begin(),
                         r.log.inserts.end());
      all.deletes.insert(all.deletes.end(), r.log.deletes.begin(),
                         r.log.deletes.end());
    }
    Status applied = ApplyLog(all, &oracle);
    if (!applied.ok()) {
      ++mismatches;
      why = "replaying acked writes: " + applied.ToString();
    } else {
      RequestStream check_stream(spec, &templates, qseed,
                                 RequestStream::kCheck);
      ConnResult checks;
      for (int i = 0; i < kCheckQueries; ++i) {
        WireRequest req = check_stream.NextQuery();
        if (spec.partitioned()) CountExplainedRoutes(conn0, req, &routing);
        auto r = conn0.Call(req.payload);
        checks.tally.Add(Classify(r));
        if (r.ok() && r.value().ok()) check(req.payload, r.value().lines);
      }
      total += checks.tally;
    }
  }
  if (!why.empty()) std::fprintf(stderr, "rcbench: mismatch: %s\n", why.c_str());
  if (!timed.first_failure.empty()) {
    std::fprintf(stderr, "rcbench: first failed request: %s\n",
                 timed.first_failure.c_str());
  }

  // Route shares and per-route latency: the cause behind a moved median.
  if (!opt.samples_path.empty() &&
      !WriteSamples(opt.samples_path, {&timed.read_ms, &write_ms})) {
    std::fprintf(stderr, "rcbench: cannot write %s\n",
                 opt.samples_path.c_str());
    return 1;
  }
  JsonObject routes;
  for (auto& [engine, ms] : timed.route_ms) {
    LatencySummary s = Summarize(ms);
    routes.Raw(engine, JsonObject().Int("n", s.n).Num("p50_ms", s.p50).str());
  }
  JsonObject explained;
  for (const auto& [engine, n] : routing) explained.Int(engine, n);
  report.Int("attempted", total.attempted)
      .Int("failed", total.failed())
      .Int("query_seed", qseed)
      .Int("connections", spec.conns)
      .Int("timed_attempted", timed.tally.attempted)
      .Int("timed_ok", timed.tally.ok)
      .Int("rejected", total.rejected)
      .Int("errors", total.errors)
      .Int("transport", total.transport)
      .Num("error_frac", total.error_frac())
      .Num("elapsed_s", elapsed)
      .Num("goodput_qps", static_cast<double>(timed.tally.ok) / elapsed)
      .Raw("read", Latencies("read", timed.read_ms).str())
      .Raw("write", Latencies("write", write_ms).str())
      .Str("write_source", spec.writes() ? "timed" : "probe")
      .Int("compactions", timed.compactions)
      .Int("engines_built_setup", built_setup)
      .Int("engines_built_before", built_before)
      .Int("engines_built_after", built_after)
      .Raw("routes", routes.str())
      .Raw("explained_routes", explained.str())
      .Int("checked", checked)
      .Int("mismatches", mismatches);
  std::printf("%s\n", report.str().c_str());
  return 0;
}

}  // namespace perfbench
