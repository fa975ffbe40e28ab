// The benchmark's workloads: how rankcubed is configured for each,
// the seeded request streams the load generator sends (and the traced
// replay re-executes in-process), and the oracle tables answers are
// checked against.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "func/query.h"
#include "metrics.h"
#include "partition/partitioned_db.h"
#include "planner/rank_cube_db.h"
#include "storage/table.h"

namespace perfbench {

using rankcube::PartitionRange;
using rankcube::Table;
using rankcube::TopKQuery;

/// Everything that distinguishes one workload: the relation, the daemon's
/// configuration and the request mix.
struct WorkloadSpec {
  std::string name;
  // -- relation (rankcubed's generator flags) --
  uint64_t rows = 0;
  int sel_dims = 3;
  int32_t cardinality = 20;
  int rank_dims = 2;
  // -- daemon --
  size_t cache_pages = 4096;  ///< buffer cache (--cache_pages)
  uint64_t cache_mb = 64;     ///< result cache (--cache_mb; 0 = off)
  bool durable = false;       ///< --data_dir
  std::string fsync = "batch";
  /// Range partitions on selection dim 0 (empty = unpartitioned).
  std::vector<std::pair<std::string, PartitionRange>> partitions;
  // -- load --
  int conns = 3;               ///< closed-loop connections, one tenant
  /// Seeded single-connection warm-up after set-up (SetupRequests): this
  /// many routed requests settle the planner's feedback before timing.
  int warmup_requests = 0;
  double write_frac = 0.0;     ///< share of requests that are writes
  double delete_frac = 0.0;    ///< share of writes that are deletes
  int compact_at = 0;          ///< connection 0 compacts once, at write N
  double template_frac = 0.0;  ///< reads drawn from the template set
  int num_templates = 0;
  /// Zipf skew of template popularity; 0 draws templates uniformly.
  double template_skew = 0.0;
  double jitter_frac = 0.0;    ///< template reads sent as near-duplicates
  double partition_pred_frac = 0.0;  ///< ad-hoc reads with a dim-0 predicate
  /// Read-only workloads measure write latency with this many
  /// INSERT+DELETE pairs after the timed phase.
  int write_probe_pairs = 0;

  bool partitioned() const { return !partitions.empty(); }
  bool writes() const { return write_frac > 0.0; }
  /// Partition whose range holds `dim0` ("" when unpartitioned or none).
  std::string PartitionOf(int32_t dim0) const;
};

/// The named workload, or nullopt for an unknown name.
std::optional<WorkloadSpec> FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// Seeds derived from the run's --seed: the relation's generator seed and
/// the request streams' seed.
uint64_t DataSeed(uint64_t seed);
uint64_t QuerySeed(uint64_t seed);

/// rankcubed's flags for this workload (without the binary name).
std::vector<std::string> DaemonArgs(const WorkloadSpec& spec, uint64_t seed,
                                    const std::string& data_dir);

/// The relation rankcubed generates for these flags.
Table BaseTable(const WorkloadSpec& spec, uint64_t seed);

/// The db rankcubed serves for these flags, opened in-process.
struct ServedDb {
  std::unique_ptr<rankcube::RankCubeDb> db;
  std::unique_ptr<rankcube::PartitionedDb> pdb;
  const rankcube::TableSchema& schema() const {
    return pdb != nullptr ? pdb->schema() : db->table().schema();
  }
};
rankcube::Result<ServedDb> OpenServed(const WorkloadSpec& spec,
                                      const Table& base,
                                      const std::string& data_dir);

/// A row as the server names it: tids are dense per partition.
struct RowRef {
  std::string partition;
  uint32_t tid = 0;
};

enum class Verb { kQuery, kInsert, kDelete, kCompact };

struct WireRequest {
  Verb verb = Verb::kQuery;
  std::string payload;  ///< the request frame's text
  RowRef target;        ///< kDelete: the row it deletes
};

/// Registry keys the planner can route to (rank_mapping is force-only).
const std::vector<std::string>& PlannableEngines();

/// The set-up requests: for each of fragments, grid and signature, one
/// query forced onto it (per partition, each pinned there by a dim-0
/// predicate), which builds it. These are the structures the planner
/// builds on every seed; forcing them makes set-up the same work whatever
/// the planner would route first. The planner routes every other request.
std::vector<WireRequest> SetupRequests(const WorkloadSpec& spec);

/// Query templates shared by every stream of a run (the "dashboard").
struct QueryTemplate {
  int k = 10;
  std::string kind;
  std::vector<double> weights;
  std::vector<double> targets;
  std::vector<std::pair<int, int32_t>> where;
};
std::vector<QueryTemplate> MakeTemplates(const WorkloadSpec& spec,
                                         uint64_t query_seed);

/// One connection's seeded request sequence. Deletes target rows this
/// stream inserted, so the stream learns each acked insert's row.
class RequestStream {
 public:
  /// Stream ids: 0..conns-1 for the timed phase; the constants below for
  /// the warm-up, the write probe and the post-run answer check.
  static constexpr int kWarmup = 1000;
  static constexpr int kProbe = 2000;
  static constexpr int kCheck = 3000;

  RequestStream(const WorkloadSpec& spec,
                const std::vector<QueryTemplate>* templates,
                uint64_t query_seed, int stream);

  WireRequest Next();
  /// A read only (the answer check's queries).
  WireRequest NextQuery();
  WireRequest NextInsert();
  /// Deletes one of this stream's acked inserts; an insert when none.
  WireRequest NextDelete();
  /// Records the row an acked INSERT created.
  void Inserted(RowRef ref) { own_rows_.push_back(std::move(ref)); }

 private:
  std::string AdhocQuery();
  std::string TemplateQuery();

  const WorkloadSpec& spec_;
  const std::vector<QueryTemplate>* templates_;
  rankcube::Rng rng_;
  int stream_;
  uint64_t writes_ = 0;
  std::vector<RowRef> own_rows_;
};

/// A served QUERY answer decoded from its response lines (the first line
/// is the header; each further line is "<tid> <score> [<partition>]").
rankcube::Result<std::vector<AnswerRow>> DecodeAnswer(
    const std::vector<std::string>& lines);

/// "tid=<n>" (+ "partition=<name>") lines of an INSERT acknowledgement.
rankcube::Result<RowRef> DecodeInsertAck(const std::vector<std::string>& lines);

/// The relation as the server should hold it, kept current by applying the
/// same acked writes; answers top-k queries by brute force.
class Oracle {
 public:
  Oracle(const WorkloadSpec& spec, const Table& base);

  /// Applies an acked insert; fails if the server's tid is not the one the
  /// oracle assigns (inserts must be applied in tid order per partition).
  rankcube::Status ApplyInsert(const RowRef& ref,
                               const std::vector<int32_t>& sel,
                               const std::vector<double>& rank);
  rankcube::Status ApplyDelete(const RowRef& ref);

  std::vector<AnswerRow> TopK(const TopKQuery& query) const;
  std::optional<double> ScoreOf(const TopKQuery& query,
                                const std::string& partition,
                                uint32_t tid) const;
  const rankcube::TableSchema& schema() const { return schema_; }

 private:
  /// Position of `partition` in parts_, or -1.
  int Index(const std::string& partition) const;

  rankcube::TableSchema schema_;
  std::vector<std::pair<std::string, std::unique_ptr<Table>>> parts_;
};

/// Parses an INSERT payload's sel= and rank= lists.
rankcube::Status ParseInsert(const std::string& payload,
                             std::vector<int32_t>* sel,
                             std::vector<double>* rank);

/// Compares a served answer with the oracle's for the QUERY `payload`.
/// Returns true when they agree; `why` explains a mismatch.
bool CheckAnswer(const Oracle& oracle, const std::string& payload,
                 const std::vector<AnswerRow>& served, std::string* why);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
