#include "core/signature_cube.h"

#include <algorithm>

#include "common/stopwatch.h"

namespace rankcube {

SignatureCube::SignatureCube(const Table& table, IoSession& io,
                             SignatureCubeOptions options)
    : table_(table),
      page_size_(io.page_size()),
      alpha_(options.alpha),
      lossy_bloom_(options.lossy_bloom),
      bloom_bits_per_entry_(options.bloom_bits_per_entry),
      built_epoch_(table.epoch()) {
  Stopwatch total;
  uint64_t pages_before = io.TotalPhysical();

  // 1. Partition by R-tree over the ranking dimensions (Algorithm 1 line 1).
  Stopwatch rtree_watch;
  RTreeOptions ropt;
  ropt.max_entries = options.rtree_max_entries;
  rtree_ = std::make_unique<RTree>(table.num_rank_dims(), io, ropt);
  if (options.bulk_load) {
    rtree_->BulkLoadSTR(table);
  } else {
    std::vector<double> point(table.num_rank_dims());
    for (Tid t = 0; t < static_cast<Tid>(table.num_rows()); ++t) {
      if (!table.is_live(t)) continue;
      table.CopyRankRow(t, point.data());
      rtree_->Insert(t, point, /*track_updates=*/false);
    }
  }
  rtree_->ChargeBuild(table, io);
  rtree_build_ms_ = rtree_watch.ElapsedMs();

  // 2. Paths for all tuples (Algorithm 1 line 2).
  Stopwatch cube_watch;
  std::vector<std::vector<int>> paths = rtree_->AllTuplePaths();

  // 3. Per-cuboid, per-cell signature generation (lines 3-8). The default
  //    set is the atomic cuboids: one per boolean dimension (§4.3.3).
  std::vector<std::vector<int>> sets = options.cuboid_dim_sets;
  if (sets.empty()) {
    for (int d = 0; d < table.num_sel_dims(); ++d) sets.push_back({d});
  }
  const int M = rtree_->max_entries();
  for (auto& dims : sets) {
    SignatureCuboid cuboid;
    cuboid.dims = dims;
    std::sort(cuboid.dims.begin(), cuboid.dims.end());
    CellKey key;
    key.values.resize(cuboid.dims.size());
    for (Tid t = 0; t < static_cast<Tid>(table.num_rows()); ++t) {
      if (!table.is_live(t)) continue;
      for (size_t i = 0; i < cuboid.dims.size(); ++i) {
        key.values[i] = table.sel(t, cuboid.dims[i]);
      }
      auto [it, inserted] = cuboid.sigs.try_emplace(key, Signature(M));
      (void)inserted;
      it->second.SetPath(paths[t]);
    }
    for (const auto& [cell, sig] : cuboid.sigs) {
      cuboid.stored[cell] = StoredSignature::Compress(sig, page_size_, alpha_);
      if (options.lossy_bloom) {
        // §4.5: bloom over the SIDs whose bits are set. A set bit b of node
        // `sid` corresponds to the child SID sid*(M+1)+b+1.
        std::vector<Sid> present;
        for (const auto& [sid, bits] : sig.nodes()) {
          for (size_t b = 0; b < bits.size(); ++b) {
            if (bits.Get(b)) {
              present.push_back(sid * static_cast<Sid>(M + 1) +
                                static_cast<Sid>(b + 1));
            }
          }
        }
        size_t bits = std::max<size_t>(
            64, static_cast<size_t>(options.bloom_bits_per_entry *
                                    present.size()));
        BloomFilter bloom(bits,
                          BloomFilter::OptimalHashes(bits, present.size()));
        for (Sid s : present) bloom.Insert(s);
        cuboid.blooms.emplace(cell, std::move(bloom));
      }
    }
    cuboids_.push_back(std::move(cuboid));
    cuboid_index_.emplace(cuboids_.back().dims, cuboids_.size() - 1);
  }
  // Honest construction I/O for the signature pass: one relation scan plus
  // the compressed signatures written (the R-tree part is charged above),
  // mirroring ChargeCuboidBuild for the grid family.
  table.ChargeFullScan(&io);
  uint64_t sig_pages = std::max<uint64_t>(
      1, (CompressedBytes() + page_size_ - 1) / page_size_);
  io.Access(IoCategory::kSignature, uint64_t{1} << 56, sig_pages);
  construction_pages_ = io.TotalPhysical() - pages_before;
  construction_ms_ = cube_watch.ElapsedMs();
  (void)total;
}

const SignatureCuboid* SignatureCube::FindCuboid(
    const std::vector<int>& dims) const {
  std::vector<int> sorted = dims;
  std::sort(sorted.begin(), sorted.end());
  auto it = cuboid_index_.find(sorted);
  return it == cuboid_index_.end() ? nullptr : &cuboids_[it->second];
}

const Signature* SignatureCube::CellSignature(const std::vector<int>& dims,
                                              const CellKey& key) const {
  const SignatureCuboid* c = FindCuboid(dims);
  if (c == nullptr) return nullptr;
  auto it = c->sigs.find(key);
  return it == c->sigs.end() ? nullptr : &it->second;
}

namespace {

/// Pruner for a provably-empty cell: rejects everything.
class EmptyCellPruner : public BooleanPruner {
 public:
  bool MayContain(EntryRef, IoSession*, ExecStats*) override { return false; }
  bool Qualifies(Tid, EntryRef, IoSession*, ExecStats*) override {
    return false;
  }
};

}  // namespace

Result<std::unique_ptr<BooleanPruner>> SignatureCube::MakePruner(
    const std::vector<Predicate>& predicates) const {
  if (predicates.empty()) {
    return std::unique_ptr<BooleanPruner>(nullptr);
  }
  std::vector<SignaturePruner::Source> sources;
  std::vector<int> qdims;
  for (const auto& p : predicates) qdims.push_back(p.dim);
  std::sort(qdims.begin(), qdims.end());

  // Prefer one exactly-matching materialized cuboid; otherwise assemble from
  // the atomic cuboids online (§4.3.3).
  const SignatureCuboid* exact = FindCuboid(qdims);
  if (exact != nullptr) {
    std::vector<int32_t> values;
    ProjectPredicates(predicates, exact->dims, &values);
    CellKey key{values, 0};
    auto it = exact->sigs.find(key);
    if (it == exact->sigs.end()) {
      return std::unique_ptr<BooleanPruner>(new EmptyCellPruner());
    }
    sources.push_back({&it->second, &exact->stored.at(key)});
  } else {
    for (const auto& p : predicates) {
      const SignatureCuboid* atomic = FindCuboid({p.dim});
      if (atomic == nullptr) {
        return Status::NotFound("no atomic cuboid for queried dimension");
      }
      CellKey key{{p.value}, 0};
      auto it = atomic->sigs.find(key);
      if (it == atomic->sigs.end()) {
        return std::unique_ptr<BooleanPruner>(new EmptyCellPruner());
      }
      sources.push_back({&it->second, &atomic->stored.at(key)});
    }
  }
  return std::unique_ptr<BooleanPruner>(
      new SignaturePruner(std::move(sources)));
}

Result<std::vector<ScoredTuple>> SignatureCube::TopK(const TopKQuery& query,
                                                     IoSession* io,
                                                     ExecStats* stats) const {
  if (!query.function) {
    return Status::InvalidArgument("query has no ranking function");
  }
  auto pruner = MakePruner(query.predicates);
  if (!pruner.ok()) return pruner.status();
  if (pruner.value() == nullptr) {
    NullPruner null_pruner;
    return RTreeBranchAndBoundTopK(table_, *rtree_, query, &null_pruner, io,
                                   stats);
  }
  return RTreeBranchAndBoundTopK(table_, *rtree_, query,
                                 pruner.value().get(), io, stats);
}

void SignatureCube::RebuildStored(SignatureCuboid* cuboid,
                                  const CellKey& key) {
  auto it = cuboid->sigs.find(key);
  if (it == cuboid->sigs.end() || it->second.empty()) {
    cuboid->sigs.erase(key);
    cuboid->stored.erase(key);
    return;
  }
  cuboid->stored[key] =
      StoredSignature::Compress(it->second, page_size_, alpha_);
}

void SignatureCube::InsertBatch(const std::vector<Tid>& tids, IoSession* io) {
  // Algorithm 2. Batch variant: collect R-tree path updates for all inserted
  // tuples first, then touch each affected cell signature once.
  std::vector<PathUpdate> updates;
  std::vector<double> point(table_.num_rank_dims());
  for (Tid t : tids) {
    table_.CopyRankRow(t, point.data());
    auto u = rtree_->Insert(t, point, /*track_updates=*/true);
    updates.insert(updates.end(), std::make_move_iterator(u.begin()),
                   std::make_move_iterator(u.end()));
  }
  ApplyPathUpdates(updates, io);
}

void SignatureCube::ApplyPathUpdates(const std::vector<PathUpdate>& updates,
                                     IoSession* io) {
  // Net each tuple's moves across the batch first: a split shifts the
  // stay-behind entries down while the movers' OLD positions alias the
  // stayers' NEW ones, so applying clear/set per update in batch order can
  // clear a bit another tuple just set (and a tuple touched by several
  // operations must not materialize its intermediate positions). Chain
  // per-tid to (first old -> last new), drop no-ops, and below apply every
  // clear before any set.
  std::vector<PathUpdate> net;
  {
    std::unordered_map<Tid, size_t> slot;
    for (const auto& u : updates) {
      auto [it, fresh] = slot.try_emplace(u.tid, net.size());
      if (fresh) {
        net.push_back(u);
      } else {
        net[it->second].new_path = u.new_path;
      }
    }
    net.erase(std::remove_if(net.begin(), net.end(),
                             [](const PathUpdate& u) {
                               return u.old_path == u.new_path;
                             }),
              net.end());
  }
  for (auto& cuboid : cuboids_) {
    // Group updates by cell (lines 2-4 of Algorithm 2).
    std::unordered_map<CellKey, std::vector<const PathUpdate*>, CellKeyHash>
        by_cell;
    CellKey key;
    key.values.resize(cuboid.dims.size());
    for (const auto& u : net) {
      for (size_t i = 0; i < cuboid.dims.size(); ++i) {
        key.values[i] = table_.sel(u.tid, cuboid.dims[i]);
      }
      by_cell[key].push_back(&u);
    }
    for (auto& [cell, cell_updates] : by_cell) {
      auto sig_it = cuboid.sigs.find(cell);
      if (sig_it == cuboid.sigs.end()) {
        sig_it =
            cuboid.sigs.try_emplace(cell, Signature(rtree_->max_entries()))
                .first;
      }
      // Charge read of the cell's partial signatures + write-back
      // (io == nullptr = uncharged maintenance, as in ApplyGridDelta).
      if (io != nullptr) {
        auto stored_it = cuboid.stored.find(cell);
        uint64_t sig_pages = 1;
        if (stored_it != cuboid.stored.end()) {
          sig_pages = std::max<uint64_t>(
              1, (stored_it->second.CompressedBytes() + page_size_ - 1) /
                     page_size_);
        }
        io->Access(IoCategory::kSignature, CellKeyHash{}(cell),
                   2 * sig_pages);  // read + write back
      }
      // Two phases: every clear before any set (see the netting above).
      for (const PathUpdate* u : cell_updates) {
        if (!u->old_path.empty()) sig_it->second.ClearPath(u->old_path);
      }
      for (const PathUpdate* u : cell_updates) {
        if (!u->new_path.empty()) sig_it->second.SetPath(u->new_path);
      }
      RebuildStored(&cuboid, cell);
      if (lossy_bloom_) {
        // The §4.5 blooms must never go false-negative: every SID along a
        // set path enters the cell's bloom. Cleared paths stay as stale
        // bits — lossy queries verify candidates against the table, so
        // extra positives only cost verifications.
        auto bloom_it = cuboid.blooms.find(cell);
        if (bloom_it == cuboid.blooms.end()) {
          size_t bits = std::max<size_t>(
              64, static_cast<size_t>(bloom_bits_per_entry_ * 64));
          bloom_it = cuboid.blooms
                         .emplace(cell, BloomFilter(
                                            bits, BloomFilter::OptimalHashes(
                                                      bits, 64)))
                         .first;
        }
        const int M = rtree_->max_entries();
        for (const PathUpdate* u : cell_updates) {
          for (size_t l = 1; l <= u->new_path.size(); ++l) {
            bloom_it->second.Insert(SidOfPath(u->new_path, l, M));
          }
        }
      }
    }
  }
}

Status SignatureCube::ApplyDelta(const DeltaStore& delta, IoSession* io) {
  if (built_epoch_ >= delta.epoch()) return Status::OK();  // empty: no-op
  // Algorithm 2 both ways: the shared R-tree pass (inserts, lazy deletes,
  // leaf-level I/O charging) collects the path-update sets — clear-only
  // for removed tuples — and one grouped pass updates every affected cell
  // signature.
  std::vector<PathUpdate> updates;
  ApplyRTreeDelta(rtree_.get(), table_, delta, &built_epoch_, &updates, io);
  ApplyPathUpdates(updates, io);
  return Status::OK();
}

namespace {

/// §4.5 pruner: bloom tests on node paths (one-sided), exact verification
/// of candidate tuples against the base table.
class LossyBloomPruner : public BooleanPruner {
 public:
  LossyBloomPruner(const Table& table, std::vector<Predicate> preds,
                   std::vector<const BloomFilter*> blooms, int M)
      : table_(table), preds_(std::move(preds)), blooms_(std::move(blooms)),
        m_(M) {}

  bool MayContain(EntryRef node, IoSession*, ExecStats*) override {
    if (node.pos == 0) return true;  // the root
    return InBlooms(ChildSid(node.parent, node.pos, m_));
  }

  bool Qualifies(Tid tid, EntryRef entry, IoSession* io,
                 ExecStats*) override {
    // The blooms hold tuple-level SIDs too (one per set leaf bit).
    if (!InBlooms(ChildSid(entry.parent, entry.pos, m_))) return false;
    // Bloom false positives make tuple-level bits unreliable; verify.
    table_.ChargeRowFetch(io, tid);
    for (const auto& p : preds_) {
      if (table_.sel(tid, p.dim) != p.value) return false;
    }
    return true;
  }

 private:
  bool InBlooms(Sid sid) const {
    for (const auto* bloom : blooms_) {
      if (!bloom->MayContain(sid)) return false;
    }
    return true;
  }

  const Table& table_;
  std::vector<Predicate> preds_;
  std::vector<const BloomFilter*> blooms_;
  int m_;
};

}  // namespace

Result<std::vector<ScoredTuple>> SignatureCube::TopKLossy(
    const TopKQuery& query, IoSession* io, ExecStats* stats) const {
  if (!query.function) {
    return Status::InvalidArgument("query has no ranking function");
  }
  std::vector<const BloomFilter*> blooms;
  for (const auto& p : query.predicates) {
    const SignatureCuboid* atomic = FindCuboid({p.dim});
    if (atomic == nullptr) {
      return Status::NotFound("no atomic cuboid for queried dimension");
    }
    auto it = atomic->blooms.find(CellKey{{p.value}, 0});
    if (it == atomic->blooms.end()) {
      return std::vector<ScoredTuple>{};  // value absent: empty result
    }
    blooms.push_back(&it->second);
  }
  if (blooms.empty()) {
    NullPruner pruner;
    return RTreeBranchAndBoundTopK(table_, *rtree_, query, &pruner, io, stats);
  }
  LossyBloomPruner pruner(table_, query.predicates, std::move(blooms),
                          rtree_->max_entries());
  return RTreeBranchAndBoundTopK(table_, *rtree_, query, &pruner, io, stats);
}

size_t SignatureCube::LossyBloomBytes() const {
  size_t bytes = 0;
  for (const auto& c : cuboids_) {
    for (const auto& [cell, bloom] : c.blooms) {
      (void)cell;
      bytes += bloom.SizeBytes();
    }
  }
  return bytes;
}

size_t SignatureCube::CompressedBytes() const {
  size_t bytes = 0;
  for (const auto& c : cuboids_) {
    for (const auto& [cell, stored] : c.stored) {
      (void)cell;
      bytes += stored.CompressedBytes();
    }
  }
  return bytes;
}

size_t SignatureCube::BaselineBytes() const {
  size_t bytes = 0;
  for (const auto& c : cuboids_) {
    for (const auto& [cell, stored] : c.stored) {
      (void)cell;
      bytes += stored.BaselineBytes();
    }
  }
  return bytes;
}

// ------------------------------------------------------ SignaturePruner --

SignaturePruner::SignaturePruner(std::vector<Source> sources)
    : sources_(std::move(sources)) {
  size_t slots = 0;
  for (const Source& src : sources_) {
    loaded_base_.push_back(slots);
    if (src.stored != nullptr) slots += src.stored->partials().size();
  }
  loaded_.assign(slots, false);
}

void SignaturePruner::Load(size_t src, Sid sid, IoSession* io,
                           ExecStats* stats) {
  const StoredSignature* stored = sources_[src].stored;
  if (stored == nullptr) return;
  const size_t partial = stored->PartialOf(sid);
  if (partial == SIZE_MAX) return;
  auto slot = loaded_.begin() + (loaded_base_[src] + partial);
  if (*slot) return;
  *slot = true;
  Stopwatch watch;
  io->Access(IoCategory::kSignature,
             (static_cast<uint64_t>(src) << 48) ^ partial);
  ++stats->signature_pages;
  stats->signature_ms += watch.ElapsedMs();
}

void SignaturePruner::LoadChain(size_t src, Sid sid, IoSession* io,
                                ExecStats* stats) {
  // A SID below 2^64 with fanout >= 3 is at most 41 levels deep.
  const Sid fanout = static_cast<Sid>(sources_[src].sig->M() + 1);
  Sid chain[64];
  size_t n = 0;
  for (Sid x = sid;; x /= fanout) {
    chain[n++] = x;
    if (x == 0) break;
  }
  while (n > 0) Load(src, chain[--n], io, stats);
}

bool SignaturePruner::Test(size_t src, EntryRef entry) const {
  const Signature& sig = *sources_[src].sig;
  const Sid fanout = static_cast<Sid>(sig.M() + 1);
  Sid parent = entry.parent;
  size_t bit = entry.pos - 1;
  for (;;) {
    const BitVector* node = sig.Node(parent);
    if (node == nullptr || bit >= node->size() || !node->Get(bit)) {
      return false;
    }
    if (!entry.reseeded || parent == 0) return true;
    bit = parent % fanout - 1;
    parent /= fanout;
  }
}

bool SignaturePruner::MayContain(EntryRef node, IoSession* io,
                                 ExecStats* stats) {
  for (size_t s = 0; s < sources_.size(); ++s) {
    const int M = sources_[s].sig->M();
    const Sid sid = node.pos == 0 ? 0 : ChildSid(node.parent, node.pos, M);
    if (node.reseeded) {
      LoadChain(s, sid, io, stats);
    } else {
      Load(s, sid, io, stats);
    }
    if (node.pos != 0 && !Test(s, node)) return false;
  }
  return true;
}

bool SignaturePruner::Qualifies(Tid tid, EntryRef entry, IoSession* io,
                                ExecStats* stats) {
  (void)tid;
  // Leaf-entry bits are per-tuple, so the AND over sources is exact here.
  // A tuple-level SID is never a node, so only a re-seeded tuple (whose
  // leaf chain this pruner never charged) loads anything.
  for (size_t s = 0; s < sources_.size(); ++s) {
    if (entry.reseeded) LoadChain(s, entry.parent, io, stats);
    if (!Test(s, entry)) return false;
  }
  return true;
}

}  // namespace rankcube
