// Signature-as-measure ranking cube (Ch4): an R-tree partition shared as
// template, per-cell signatures (by default one atomic cuboid per boolean
// dimension, §4.2.4/§4.3.3), node-level compression + partial-signature
// decomposition, incremental maintenance (Algorithm 2), and Algorithm 3's
// branch-and-bound query with simultaneous ranking and boolean pruning.
#ifndef RANKCUBE_CORE_SIGNATURE_CUBE_H_
#define RANKCUBE_CORE_SIGNATURE_CUBE_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "bitmap/bloom.h"
#include "core/rtree_search.h"
#include "core/signature.h"
#include "core/topk_query.h"
#include "cube/cell.h"
#include "index/rtree.h"
#include "storage/table.h"

namespace rankcube {

struct SignatureCubeOptions {
  /// Cuboids to materialize; empty = all atomic (single-dimension) cuboids.
  std::vector<std::vector<int>> cuboid_dim_sets;
  bool bulk_load = true;      ///< STR; false = tuple-at-a-time R-tree build
  int rtree_max_entries = 0;  ///< 0 = derive from page size
  double alpha = 0.5;         ///< partial-signature fill target (§4.2.3)

  /// §4.5 lossy compression: additionally build one bloom filter per cell
  /// over the signature's set SIDs. Querying with blooms admits false
  /// positives, so candidate tuples are verified against the base table
  /// (random accesses, charged) — trading space for extra verifications.
  bool lossy_bloom = false;
  double bloom_bits_per_entry = 10.0;  ///< ~1% false-positive rate
};

/// One cuboid's signatures: cell values -> signature (logical + stored).
struct SignatureCuboid {
  std::vector<int> dims;
  std::unordered_map<CellKey, Signature, CellKeyHash> sigs;
  std::unordered_map<CellKey, StoredSignature, CellKeyHash> stored;
  std::unordered_map<CellKey, BloomFilter, CellKeyHash> blooms;  ///< §4.5
};

class SignatureCube {
 public:
  SignatureCube(const Table& table, IoSession& io,
                SignatureCubeOptions options = SignatureCubeOptions());

  /// Algorithm 3 with signature boolean pruning.
  Result<std::vector<ScoredTuple>> TopK(const TopKQuery& query, IoSession* io,
                                        ExecStats* stats) const;

  /// Builds the boolean pruner for a conjunction of predicates: one
  /// exactly-matching materialized cell when available, otherwise the
  /// online assembly over atomic cuboids (§4.3.3). Returns:
  ///  * ok(nullptr)  - no predicates: caller should use a NullPruner;
  ///  * ok(pruner)   - signature-backed pruner (empty-cell => prune-all);
  ///  * error        - a queried dimension has no cuboid.
  Result<std::unique_ptr<BooleanPruner>> MakePruner(
      const std::vector<Predicate>& predicates) const;

  /// Incremental maintenance (Algorithm 2) for tuples already appended to
  /// the table; updates the R-tree and all affected cell signatures.
  void InsertBatch(const std::vector<Tid>& tids, IoSession* io);

  /// Absorbs the table mutations after built_epoch(): inserts through the
  /// R-tree + signature path (Algorithm 2), deletes through lazy R-tree
  /// removal with §4.2.5 bit clearing. Empty delta is a no-op.
  Status ApplyDelta(const DeltaStore& delta, IoSession* io);
  /// Table epoch this cube's contents reflect.
  uint64_t built_epoch() const { return built_epoch_; }

  const RTree& rtree() const { return *rtree_; }

  /// All materialized signature cuboids (dimension sets + cell counts) —
  /// the statistics the planner's cost model reads.
  const std::vector<SignatureCuboid>& cuboids() const { return cuboids_; }

  /// Signature of one cell (nullptr = no tuple has this value).
  const Signature* CellSignature(const std::vector<int>& dims,
                                 const CellKey& key) const;

  double construction_ms() const { return construction_ms_; }
  double rtree_build_ms() const { return rtree_build_ms_; }
  /// Physical pages the construction pass charged (scan + tree + sigs).
  uint64_t construction_pages() const { return construction_pages_; }
  size_t CompressedBytes() const;
  size_t BaselineBytes() const;
  /// Total bytes of the §4.5 lossy bloom signatures (0 unless enabled).
  size_t LossyBloomBytes() const;

  /// Query with the lossy bloom signatures (§4.5): bloom pruning plus
  /// per-candidate table verification. Requires lossy_bloom at build.
  Result<std::vector<ScoredTuple>> TopKLossy(const TopKQuery& query,
                                             IoSession* io,
                                             ExecStats* stats) const;

 private:
  friend class SignaturePruner;
  const SignatureCuboid* FindCuboid(const std::vector<int>& dims) const;
  void RebuildStored(SignatureCuboid* cuboid, const CellKey& key);
  /// Applies R-tree path updates to every affected cell signature, one
  /// grouped pass per cuboid (shared by InsertBatch and ApplyDelta).
  void ApplyPathUpdates(const std::vector<PathUpdate>& updates, IoSession* io);

  const Table& table_;
  size_t page_size_;
  double alpha_;
  bool lossy_bloom_ = false;
  double bloom_bits_per_entry_ = 10.0;
  uint64_t built_epoch_ = 0;
  std::unique_ptr<RTree> rtree_;
  std::vector<SignatureCuboid> cuboids_;
  /// sorted dims -> index into cuboids_; O(1) FindCuboid per pruner source
  /// instead of a linear scan over the cuboid list.
  std::unordered_map<std::vector<int>, size_t, DimSetHash> cuboid_index_;
  double construction_ms_ = 0.0;
  double rtree_build_ms_ = 0.0;
  uint64_t construction_pages_ = 0;
};

/// Boolean pruner backed by one or more cell signatures (assembled online
/// for multi-predicate queries, §4.3.3). Charges each partial-signature
/// load once per query. Under the BooleanPruner contract an entry reached
/// by expansion needs only its own bit in its parent node and its own
/// partial: the parent already passed every source. A re-seeded entry is
/// tested and charged along its whole root-to-entry chain.
class SignaturePruner : public BooleanPruner {
 public:
  /// Each element: (signature, stored form). All must pass for a path.
  struct Source {
    const Signature* sig;
    const StoredSignature* stored;
  };

  explicit SignaturePruner(std::vector<Source> sources);

  bool MayContain(EntryRef node, IoSession* io, ExecStats* stats) override;
  bool Qualifies(Tid tid, EntryRef entry, IoSession* io,
                 ExecStats* stats) override;

 private:
  /// Charges the partial of source `src` that holds node `sid`, once.
  void Load(size_t src, Sid sid, IoSession* io, ExecStats* stats);
  /// Load() for `sid` and each of its ancestors, root first.
  void LoadChain(size_t src, Sid sid, IoSession* io, ExecStats* stats);
  /// Is the bit of `entry` set in its parent node of source `src` (and,
  /// for a re-seeded entry, every bit on the chain above it)?
  bool Test(size_t src, EntryRef entry) const;

  std::vector<Source> sources_;
  std::vector<size_t> loaded_base_;  ///< first slot of each source in loaded_
  std::vector<bool> loaded_;         ///< one slot per (source, partial)
};

}  // namespace rankcube

#endif  // RANKCUBE_CORE_SIGNATURE_CUBE_H_
