// The signature measure (Ch4): for one cuboid cell, a tree of bit arrays
// mirroring the R-tree partition — bit b of node n is 1 iff the b-th child
// subtree (or leaf entry) contains a tuple of the cell. Nodes are addressed
// by SID: the path <p0..p_{l-1}> maps to sum p_i (M+1)^(l-1-i) (§4.2.1).
//
// `Signature` is the logical tree (query testing, union/intersection,
// incremental bit maintenance). `StoredSignature` is the physical form:
// node-level adaptively compressed bit arrays decomposed into page-sized
// partial signatures referenced by subtree-root SIDs (§4.2.2-§4.2.3).
#ifndef RANKCUBE_CORE_SIGNATURE_H_
#define RANKCUBE_CORE_SIGNATURE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "bitmap/bitvector.h"
#include "common/status.h"

namespace rankcube {

using Sid = uint64_t;

/// SID of a node path (1-based positions); the empty path (root) is 0.
Sid SidOfPath(const std::vector<int>& path, size_t len, int M);

/// SID of the child at 1-based position `pos` of node `parent`. The
/// inverse is parent = sid / (M + 1), pos = sid % (M + 1).
inline Sid ChildSid(Sid parent, uint32_t pos, int M) {
  return parent * static_cast<Sid>(M + 1) + pos;
}

/// Logical signature tree.
class Signature {
 public:
  explicit Signature(int M = 2) : m_(M) {}

  int M() const { return m_; }
  bool empty() const { return nodes_.empty(); }
  size_t num_nodes() const { return nodes_.size(); }

  /// Builds from tuple paths (leaf entry position included).
  static Signature FromPaths(const std::vector<std::vector<int>>& paths,
                             int M);

  /// Sets every bit along `path` (creating nodes as needed).
  void SetPath(const std::vector<int>& path);

  /// Clears the leaf bit of `path`; recursively clears parent bits whose
  /// child node became all-zero (§4.2.5).
  void ClearPath(const std::vector<int>& path);

  /// True iff every bit along `path` is set (i.e. the addressed node/tuple
  /// may contain / is a qualifying tuple).
  bool TestPath(const std::vector<int>& path, size_t len) const;
  bool TestPath(const std::vector<int>& path) const {
    return TestPath(path, path.size());
  }

  /// Bit array of one node (nullptr when absent, i.e. all-zero).
  const BitVector* Node(Sid sid) const;

  /// OR / recursive-AND of two signatures over the same partition (§4.3.3).
  static Signature Union(const Signature& a, const Signature& b);
  static Signature Intersect(const Signature& a, const Signature& b);

  /// Total bits of the uncompressed (baseline BL) string form.
  size_t BaselineBits() const;

  const std::unordered_map<Sid, BitVector>& nodes() const { return nodes_; }

 private:
  friend class StoredSignature;
  static bool IntersectRec(const Signature& a, const Signature& b, Sid sid,
                           Signature* out);

  int m_;
  std::unordered_map<Sid, BitVector> nodes_;
};

/// Physical form: compressed + decomposed into partial signatures.
class StoredSignature {
 public:
  struct Partial {
    Sid ref_sid = 0;              ///< subtree root referencing this partial
    std::vector<Sid> node_sids;   ///< nodes encoded, BFS order
    size_t bits = 0;              ///< compressed size
  };

  StoredSignature() = default;

  /// Compresses and decomposes `sig`; each partial targets alpha*page_size
  /// bytes (§4.2.3).
  static StoredSignature Compress(const Signature& sig, size_t page_size,
                                  double alpha = 0.5);

  const std::vector<Partial>& partials() const { return partials_; }
  /// Partial holding `sid` (SIZE_MAX when the node is absent ≡ zero).
  size_t PartialOf(Sid sid) const;

  size_t CompressedBytes() const;
  size_t BaselineBytes() const { return (baseline_bits_ + 7) / 8; }

 private:
  std::vector<Partial> partials_;
  std::unordered_map<Sid, size_t> owner_;
  size_t baseline_bits_ = 0;
};

}  // namespace rankcube

#endif  // RANKCUBE_CORE_SIGNATURE_H_
