#ifndef P2PDT_ML_KERNEL_SVM_H_
#define P2PDT_ML_KERNEL_SVM_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "ml/classifier.h"
#include "ml/dataset.h"
#include "ml/kernel.h"

namespace p2pdt {

/// KKT violation tolerance of the SMO stopping criterion.
inline constexpr double kSmoTolerance = 1e-3;
/// Cap on working-set-selection iterations (safety valve; typical
/// convergence is far earlier for the per-peer dataset sizes here).
inline constexpr int kSmoMaxIterations = 10000;

/// Hyperparameters for the SMO kernel-SVM trainer.
struct KernelSvmOptions {
  Kernel kernel = Kernel::Rbf(1.0);
  /// Soft-margin penalty C (> 0).
  double c = 1.0;
};

/// One support vector: the training vector, its label and its dual weight.
struct SupportVector {
  SparseVector x;
  double y = 1.0;      // label in {-1, +1}
  double alpha = 0.0;  // dual coefficient, 0 < alpha <= C
};

/// The entries of a list of sparse vectors, inverted: each distinct feature
/// id gets a slot in an open-addressing table, and each slot a posting list
/// of (vector index, weight) in vector order. KernelMatrix builds one per
/// training problem and KernelSvmModel one per scored model, so a dot
/// product multiplies only the ids its two vectors share.
struct FeaturePostings {
  static constexpr uint32_t kNoSlot = 0xFFFFFFFFu;
  struct Cell {
    uint32_t id = 0;
    uint32_t slot = kNoSlot;
  };
  /// Id -> slot table at load factor <= 1/2 with Fibonacci hashing; its
  /// size is a power of two, 2^(64 - shift).
  std::vector<Cell> cells;
  int shift = 0;
  /// Slot s owns postings [begin[s], begin[s + 1]).
  std::vector<uint32_t> begin;
  std::vector<uint32_t> owner;
  std::vector<double> weight;

  /// The cell holding `id`, or the empty cell where it would go.
  std::size_t Probe(uint32_t id) const {
    std::size_t h = static_cast<std::size_t>(
        (uint64_t{id} * 0x9E3779B97F4A7C15ull) >> shift);
    while (cells[h].slot != kNoSlot && cells[h].id != id) {
      h = (h + 1) & (cells.size() - 1);
    }
    return h;
  }
  /// The slot of `id`, or kNoSlot.
  uint32_t Find(uint32_t id) const {
    return cells.empty() ? kNoSlot : cells[Probe(id)].slot;
  }
};

/// Non-linear (kernel) SVM model, represented by its support vectors.
///
/// In CEMPaR this is what peers upload to their super-peer: "these SVM
/// models (support vectors) are propagated once to one of the super-peers"
/// (paper Sec. 2). WireSize() therefore charges the support vectors
/// themselves — which is also why CEMPaR's privacy argument is only about
/// word-id obfuscation: actual document vectors travel.
///
/// The support vectors and their cached norms live in one body that copies,
/// assignments and Clone() share: the simulator holds each uploaded model at
/// the peer, at its home and in the cascade, and those copies cost one
/// array, not three. The body's one member written after construction is
/// its inverted index, built by the first Decision() on a non-empty query
/// and published through std::call_once; so any number of threads may read
/// one model, and only models that are scored pay for an index.
class KernelSvmModel final : public BinaryClassifier {
 public:
  KernelSvmModel() = default;
  KernelSvmModel(Kernel kernel, std::vector<SupportVector> svs, double bias);

  /// bias + Σ α_i y_i K(sv_i, x), summed in SV order. Each SV's dot with
  /// the query accumulates over the posting lists of the query's ids only,
  /// in id order, and K comes from Kernel::FromDot with the cached ‖sv‖².
  /// Vectors failing Kernel::Gatherable() use Kernel::operator().
  double Decision(const SparseVector& x) const override;

  std::size_t WireSize() const override;

  std::unique_ptr<BinaryClassifier> Clone() const override {
    return std::make_unique<KernelSvmModel>(*this);
  }

  const std::vector<SupportVector>& support_vectors() const {
    return body().svs;
  }
  const Kernel& kernel() const { return kernel_; }
  double bias() const { return bias_; }
  std::size_t num_support_vectors() const { return body().svs.size(); }

 private:
  struct Body {
    std::vector<SupportVector> svs;
    /// ‖sv‖² per support vector.
    std::vector<double> norm2;
    /// Postings of the gatherable SVs, built once on first use.
    mutable std::once_flag index_once;
    mutable FeaturePostings index;
  };
  /// The shared body; a default-constructed or moved-from model has none
  /// and reads as one without support vectors.
  const Body& body() const;

  Kernel kernel_;
  std::shared_ptr<const Body> body_;
  double bias_ = 0.0;
};

/// Gram matrix K(x_i, x_j) of `data`, row-major n x n and exactly
/// symmetric: what TrainKernelSvm's SMO runs on. The problem's entries are
/// inverted once into per-id postings in example order; row i walks the
/// postings of x_i's ids from example i on, so each dot x_i·x_j (j >= i)
/// sums only the products of shared ids, in id order, and K comes from
/// Kernel::FromDot. Pairs with a vector failing Kernel::Gatherable() use
/// Kernel::operator().
std::vector<double> KernelMatrix(const std::vector<Example>& data,
                                 const Kernel& kernel);

/// Trains a C-SVM with Sequential Minimal Optimization using
/// maximal-violating-pair working-set selection (Keerthi et al. / LIBSVM
/// WSS1). The full kernel matrix is materialized, which is appropriate for
/// the per-peer training-set sizes in P2PDocTagger (tens to a few hundred
/// examples); the cascade keeps merged sets small by construction.
Result<KernelSvmModel> TrainKernelSvm(const std::vector<Example>& data,
                                      const KernelSvmOptions& options = {});

/// Cascade-SVM merge step: pools the support vectors of several models into
/// a training set (deduplicating identical vectors) and retrains a single
/// SVM on the pool. This is the super-peer operation in CEMPaR: "super-peers
/// which collect the local models of peers cascade them to construct
/// regional cascaded models."
Result<KernelSvmModel> CascadeMerge(
    const std::vector<const KernelSvmModel*>& models,
    const KernelSvmOptions& options);

/// Multi-level cascade: merges models pairwise (fan-in `fan_in`) level by
/// level until a single model remains. Equivalent to CascadeMerge for small
/// inputs but bounds the size of any single retraining problem.
Result<KernelSvmModel> CascadeTree(
    const std::vector<const KernelSvmModel*>& models,
    const KernelSvmOptions& options, std::size_t fan_in = 4);

}  // namespace p2pdt

#endif  // P2PDT_ML_KERNEL_SVM_H_
