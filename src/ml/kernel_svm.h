#ifndef P2PDT_ML_KERNEL_SVM_H_
#define P2PDT_ML_KERNEL_SVM_H_

#include <cstdint>
#include <memory>
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

/// Feature-id ceiling of the dense query buffer Decision() scatters into:
/// the default hashing-trick dimensionality
/// (PreprocessorOptions::hashed_dimensions, 2^18). A query and model whose
/// ids both reach it are scored with the reference merge instead, so no
/// buffer is ever sized from a feature id alone.
inline constexpr uint64_t kGatherDimensionCeiling = uint64_t{1} << 18;

/// Non-linear (kernel) SVM model, represented by its support vectors.
///
/// In CEMPaR this is what peers upload to their super-peer: "these SVM
/// models (support vectors) are propagated once to one of the super-peers"
/// (paper Sec. 2). WireSize() therefore charges the support vectors
/// themselves — which is also why CEMPaR's privacy argument is only about
/// word-id obfuscation: actual document vectors travel.
///
/// The support vectors, their cached norms and the dimension bound live in
/// one immutable body that copies, assignments and Clone() share: the
/// simulator holds each uploaded model at the peer, at its home and in the
/// cascade, and those copies cost one array, not three. Nothing writes the
/// body after construction, so any number of threads may read one model.
class KernelSvmModel final : public BinaryClassifier {
 public:
  KernelSvmModel() = default;
  KernelSvmModel(Kernel kernel, std::vector<SupportVector> svs, double bias);

  /// bias + Σ α_i y_i K(sv_i, x). The query is scattered once into a
  /// per-thread dense buffer over ids below min(query bound, model bound);
  /// each SV's K comes from a gather against it and the cached ‖sv‖².
  /// Vectors failing Kernel::Gatherable(), and pairs whose bounds both pass
  /// kGatherDimensionCeiling, use Kernel::operator().
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
    /// Largest SV feature id + 1 (64-bit).
    uint64_t dimension_bound = 0;
  };
  /// The shared body; a default-constructed or moved-from model has none
  /// and reads as one without support vectors.
  const Body& body() const;

  Kernel kernel_;
  std::shared_ptr<const Body> body_;
  double bias_ = 0.0;
};

/// Gram matrix K(x_i, x_j) of `data`, row-major n x n and exactly
/// symmetric: what TrainKernelSvm's SMO runs on. Feature ids are remapped
/// to a compact per-problem table once; each row i is a scatter of x_i into
/// a buffer of that size plus one gather per j >= i, read through
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
