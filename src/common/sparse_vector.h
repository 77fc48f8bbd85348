#ifndef P2PDT_COMMON_SPARSE_VECTOR_H_
#define P2PDT_COMMON_SPARSE_VECTOR_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace p2pdt {

/// Sparse feature vector: the paper's document representation
/// d = {w_1, ..., w_m}^T where only non-zero term weights are stored as
/// (word id, weight) pairs sorted by id.
///
/// This is the unit of data exchanged between peers in P2PDocTagger: only
/// word ids and weights are preserved — no word order, no positions — which
/// is the basis of the paper's privacy argument (Sec. 2). Its serialized
/// size is also what the communication-cost accounting in the simulator
/// charges per vector.
class SparseVector {
 public:
  using Index = uint32_t;
  using Entry = std::pair<Index, double>;

  SparseVector() = default;

  /// Builds from unsorted (id, weight) pairs; duplicates are summed and
  /// zero weights dropped.
  static SparseVector FromPairs(std::vector<Entry> entries);

  /// Builds from a dense array, dropping zeros.
  static SparseVector FromDense(const std::vector<double>& dense);

  /// Appends an entry with an id strictly greater than any existing id.
  /// Fast path used by builders that already emit sorted ids.
  void PushBack(Index id, double weight);

  /// Returns the weight of `id`, or 0 if absent. O(log nnz).
  double Get(Index id) const;

  std::size_t nnz() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  const std::vector<Entry>& entries() const { return entries_; }

  /// Dot product with another sparse vector. O(nnz_a + nnz_b).
  double Dot(const SparseVector& other) const;

  /// Dot product with a dense weight array; ids beyond its size contribute 0.
  double DotDense(const std::vector<double>& dense) const;

  /// Euclidean (L2) norm.
  double Norm() const;

  /// Squared L2 norm.
  double SquaredNorm() const;

  /// Sum of weights (L1 norm for non-negative vectors).
  double Sum() const;

  /// Scales all weights in place.
  void Scale(double factor);

  /// Normalizes to unit L2 norm; no-op on the zero vector.
  void L2Normalize();

  /// this += alpha * other (sparse axpy).
  void Add(const SparseVector& other, double alpha = 1.0);

  /// Squared Euclidean distance to `other`.
  double SquaredDistance(const SparseVector& other) const;

  /// Cosine similarity in [-1, 1]; 0 when either vector is zero.
  double Cosine(const SparseVector& other) const;

  /// Largest id present + 1, or 0 for the empty vector. 64-bit so that id
  /// 0xFFFFFFFF (wire ids are unchecked uint32) gives 2^32, not 0.
  uint64_t DimensionBound() const;

  /// Number of bytes this vector occupies on the (simulated) wire:
  /// 4-byte id + 8-byte weight per entry, plus a 4-byte length header.
  /// The simulator charges exactly this for every vector shipped between
  /// peers.
  std::size_t WireSize() const { return 4 + entries_.size() * 12; }

  /// Debug rendering "{id:weight, ...}".
  std::string ToString() const;

  bool operator==(const SparseVector& other) const {
    return entries_ == other.entries_;
  }

 private:
  std::vector<Entry> entries_;  // sorted by Index, weights non-zero
};

/// Accumulates sparse vectors into a dense buffer; used by centroid and
/// weight-vector computations where repeated sparse merges would be O(n²).
class DenseAccumulator {
 public:
  explicit DenseAccumulator(std::size_t dim) : values_(dim, 0.0) {}

  void Add(const SparseVector& v, double alpha = 1.0);

  /// Scales all accumulated values.
  void Scale(double factor);

  const std::vector<double>& values() const { return values_; }
  std::vector<double>& values() { return values_; }

  /// Converts the accumulated buffer to a sparse vector, dropping zeros.
  SparseVector ToSparse() const;

 private:
  std::vector<double> values_;
};

}  // namespace p2pdt

#endif  // P2PDT_COMMON_SPARSE_VECTOR_H_
