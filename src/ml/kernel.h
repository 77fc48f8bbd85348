#ifndef P2PDT_ML_KERNEL_H_
#define P2PDT_ML_KERNEL_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/cost_ledger.h"
#include "common/sparse_vector.h"

namespace p2pdt {

/// Kernel family for the non-linear SVM (CEMPaR's base learner).
enum class KernelType {
  kLinear,
  kRbf,
  kPolynomial,
};

/// A kernel function K(a, b) with its parameters.
struct Kernel {
  KernelType type = KernelType::kRbf;
  /// RBF: exp(-gamma ||a-b||²); polynomial: (gamma a·b + coef0)^degree.
  double gamma = 1.0;
  double coef0 = 0.0;
  int degree = 3;

  /// Reference K(a, b): a fresh two-pointer merge per call. The SVM hot
  /// paths use FromDot over cached norms instead and fall back to this for
  /// any vector that fails Gatherable().
  double operator()(const SparseVector& a, const SparseVector& b) const {
    if (CostLedger::enabled()) ++CostLedger::Tls().kernel_evals;
    switch (type) {
      case KernelType::kLinear:
        return a.Dot(b);
      case KernelType::kRbf:
        return std::exp(-gamma * a.SquaredDistance(b));
      case KernelType::kPolynomial:
        return Power(gamma * a.Dot(b) + coef0);
    }
    return 0.0;
  }

  /// K from a·b and the squared norms ‖a‖², ‖b‖², for every kernel type;
  /// RBF reads ‖a−b‖² as max(0, ‖a‖² + ‖b‖² − 2a·b). Linear and polynomial
  /// values equal operator()'s bit for bit when `dot` is summed in id
  /// order; RBF differs from the merge by rounding only. Both norms must
  /// pass Gatherable(). Charges nothing to the ledger.
  double FromDot(double dot, double a_norm2, double b_norm2) const {
    switch (type) {
      case KernelType::kLinear:
        return dot;
      case KernelType::kRbf:
        return std::exp(-gamma *
                        std::max(0.0, a_norm2 + b_norm2 - 2.0 * dot));
      case KernelType::kPolynomial:
        return Power(gamma * dot + coef0);
    }
    return 0.0;
  }

  /// Largest squared norm FromDot accepts: below it ‖a‖² + ‖b‖² + 2|a·b|
  /// cannot overflow.
  static constexpr double kMaxGatherNorm2 =
      std::numeric_limits<double>::max() / 4;

  /// Whether a vector with squared norm `norm2` may take the FromDot path.
  /// False for NaN, ±inf and overflowing norms (an entry of 1e200): there a
  /// gather's zero products turn into NaN or inf where the merge keeps the
  /// exact answer (an inf coordinate gives RBF K = 0), so such vectors use
  /// operator().
  static bool Gatherable(double norm2) { return norm2 <= kMaxGatherNorm2; }

  static Kernel Linear() { return {KernelType::kLinear, 0.0, 0.0, 0}; }
  static Kernel Rbf(double gamma) { return {KernelType::kRbf, gamma, 0.0, 0}; }
  static Kernel Polynomial(double gamma, double coef0, int degree) {
    return {KernelType::kPolynomial, gamma, coef0, degree};
  }

  std::string ToString() const;

 private:
  double Power(double base) const {
    double out = 1.0;
    for (int i = 0; i < degree; ++i) out *= base;
    return out;
  }
};

}  // namespace p2pdt

#endif  // P2PDT_ML_KERNEL_H_
