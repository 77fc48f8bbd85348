// SMO optimality certificate (label `kernel`).
//
// Checks models from TrainKernelSvm, and every retrained level of a
// CascadeTree against the support vectors it was trained on, for the
// conditions an optimal soft-margin dual solution satisfies:
//  - KKT box conditions within the solver's stopping tolerance: for every
//    training example, y·f(x) >= 1 - tol when alpha = 0, |y·f(x) - 1| <= tol
//    when 0 < alpha < C, and y·f(x) <= 1 + tol when alpha = C;
//  - the equality constraint sum(alpha·y) = 0 up to rounding;
//  - no problem stopped at kSmoMaxIterations (the SMO iteration count comes
//    from the cost ledger).
// The duality gap of each problem is printed. PACE's dual coordinate
// descent keeps its duals internal, so it is not certified here.
//
// The problems run at C = 1 (every trainer's default) and C = 10, where
// each model has a support vector strictly inside the box and the bias is
// their average, and at C = 0.01, where many problems have every support
// vector at a bound and the bias comes from TrainKernelSvm's fallback: the
// midpoint of the interval the KKT conditions leave for it.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/cost_ledger.h"
#include "common/rng.h"
#include "ml/dataset.h"
#include "ml/kernel_svm.h"

namespace p2pdt {
namespace {

/// Sparse two-class problem: positives lean on features [0, 8), negatives
/// on [8, 16), both with shared noise features, and a share of labels
/// flipped so some examples must sit inside the margin.
std::vector<Example> MakeProblem(std::size_t n, uint64_t seed,
                                 double flip_share) {
  Rng rng(seed);
  std::vector<Example> data;
  for (std::size_t i = 0; i < n; ++i) {
    const bool pos = i % 2 == 0;
    std::vector<SparseVector::Entry> entries;
    const uint32_t base = pos ? 0 : 8;
    for (int k = 0; k < 3; ++k) {
      entries.emplace_back(base + static_cast<uint32_t>(rng.NextU64(8)),
                           0.2 + rng.NextDouble());
    }
    entries.emplace_back(16 + static_cast<uint32_t>(rng.NextU64(6)),
                         0.5 * rng.NextDouble());
    Example ex;
    ex.x = SparseVector::FromPairs(std::move(entries));
    ex.y = pos ? 1.0 : -1.0;
    if (rng.NextDouble() < flip_share) ex.y = -ex.y;
    data.push_back(std::move(ex));
  }
  return data;
}

/// What one certificate found.
struct Certificate {
  std::size_t n = 0;
  std::size_t free_svs = 0;  // 0 < alpha < C
  std::size_t worst_index = 0;
  double worst_violation = 0.0;  // largest KKT excess beyond tol (<= 0: ok)
  double sum_alpha_y = 0.0;
  double sum_alpha = 0.0;
  double primal = 0.0;
  double dual = 0.0;
};

/// Certifies `model` against its training set `data`. Support vectors are
/// the training examples with alpha > 0, kept in training order, so each
/// is matched to the next training example equal to it.
Certificate Certify(const KernelSvmModel& model,
                    const std::vector<Example>& data,
                    const KernelSvmOptions& options) {
  Certificate cert;
  cert.n = data.size();
  const std::vector<SupportVector>& svs = model.support_vectors();
  std::vector<double> alpha(data.size(), 0.0);
  std::size_t next = 0;
  for (std::size_t i = 0; i < data.size() && next < svs.size(); ++i) {
    if (svs[next].y == data[i].y && svs[next].x == data[i].x) {
      alpha[i] = svs[next++].alpha;
    }
  }
  EXPECT_EQ(next, svs.size()) << "support vectors not in training order";

  double quad = 0.0;  // alpha^T Q alpha = sum_i alpha_i y_i (f(x_i) - b)
  double slack = 0.0;
  cert.worst_violation = -kSmoTolerance;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double y = data[i].y;
    const double margin = y * model.Decision(data[i].x);
    double excess = 0.0;  // how far outside [condition] +- tol, minus tol
    if (alpha[i] == 0.0) {
      excess = (1.0 - margin) - kSmoTolerance;
    } else if (alpha[i] < options.c) {
      ++cert.free_svs;
      excess = std::fabs(margin - 1.0) - kSmoTolerance;
    } else {
      excess = (margin - 1.0) - kSmoTolerance;
    }
    if (excess > cert.worst_violation) {
      cert.worst_violation = excess;
      cert.worst_index = i;
    }
    cert.sum_alpha_y += alpha[i] * y;
    cert.sum_alpha += alpha[i];
    quad += alpha[i] * y * (model.Decision(data[i].x) - model.bias());
    slack += std::max(0.0, 1.0 - margin);
  }
  cert.primal = 0.5 * quad + options.c * slack;
  cert.dual = cert.sum_alpha - 0.5 * quad;
  return cert;
}

/// Trains on `data` with the ledger counting SMO iterations.
KernelSvmModel TrainCounted(const std::vector<Example>& data,
                            const KernelSvmOptions& options,
                            uint64_t* iterations) {
  const bool was = CostLedger::SetEnabled(true);
  const uint64_t before = CostLedger::Tls().smo_iterations;
  Result<KernelSvmModel> model = TrainKernelSvm(data, options);
  *iterations = CostLedger::Tls().smo_iterations - before;
  CostLedger::SetEnabled(was);
  EXPECT_TRUE(model.ok());
  return model.ok() ? std::move(model).value() : KernelSvmModel();
}

void ExpectCertified(const std::string& name, const KernelSvmModel& model,
                     const std::vector<Example>& data,
                     const KernelSvmOptions& options, uint64_t iterations,
                     bool may_use_fallback) {
  SCOPED_TRACE(name);
  const Certificate c = Certify(model, data, options);
  const double gap = c.primal - c.dual;
  std::printf(
      "[certificate] %-28s n=%-4zu sv=%-4zu free=%-4zu iters=%-5llu "
      "kkt_excess=%+.3e sum(ay)=%+.1e gap=%.4e rel_gap=%.3e\n",
      name.c_str(), c.n, model.num_support_vectors(), c.free_svs,
      static_cast<unsigned long long>(iterations), c.worst_violation,
      c.sum_alpha_y, gap, gap / std::max(1.0, std::fabs(c.primal)));
  EXPECT_LT(iterations, static_cast<uint64_t>(kSmoMaxIterations))
      << "SMO stopped at kSmoMaxIterations";
  if (!may_use_fallback) {
    EXPECT_GT(c.free_svs, 0u) << "bias came from the all-at-bound fallback";
  }
  EXPECT_LE(c.worst_violation, 0.0)
      << "KKT violated beyond tol at example " << c.worst_index;
  EXPECT_LE(std::fabs(c.sum_alpha_y), 1e-10 * (1.0 + c.sum_alpha));
}

struct Setting {
  const char* name;
  Kernel kernel;
  double c;
  /// Small C: the bias may come from the all-at-bound fallback.
  bool may_use_fallback = false;
};

std::vector<Setting> Settings() {
  return {{"rbf_c1", Kernel::Rbf(1.0), 1.0},
          {"rbf_c10", Kernel::Rbf(0.5), 10.0},
          {"linear_c1", Kernel::Linear(), 1.0},
          {"rbf_c0.01", Kernel::Rbf(1.0), 0.01, true},
          {"linear_c0.01", Kernel::Linear(), 0.01, true}};
}

TEST(SmoCertificate, TrainKernelSvmModelsAreOptimal) {
  for (const Setting& s : Settings()) {
    KernelSvmOptions opt;
    opt.kernel = s.kernel;
    opt.c = s.c;
    for (std::size_t n : {24, 60, 150}) {
      for (double flip : {0.0, 0.15}) {
        const std::vector<Example> data = MakeProblem(n, 1000 + n, flip);
        uint64_t iters = 0;
        const KernelSvmModel model = TrainCounted(data, opt, &iters);
        ExpectCertified(std::string(s.name) + "/n" + std::to_string(n) +
                            (flip > 0 ? "/noisy" : "/clean"),
                        model, data, opt, iters, s.may_use_fallback);
      }
    }
  }
}

/// The cascade's merge input: the support vectors of `models`, identical
/// (vector, label) pairs kept once, in model order.
std::vector<Example> Pool(const std::vector<const KernelSvmModel*>& models) {
  std::vector<Example> pool;
  for (const KernelSvmModel* m : models) {
    for (const SupportVector& sv : m->support_vectors()) {
      const bool seen =
          std::any_of(pool.begin(), pool.end(), [&](const Example& ex) {
            return ex.y == sv.y && ex.x == sv.x;
          });
      if (!seen) pool.push_back({sv.x, sv.y});
    }
  }
  return pool;
}

TEST(SmoCertificate, CascadeLevelsAreOptimalOnTheirSupportVectors) {
  for (const Setting& s : Settings()) {
    KernelSvmOptions opt;
    opt.kernel = s.kernel;
    opt.c = s.c;
    constexpr std::size_t kFanIn = 2;
    // Eight peers' local models, then the cascade rebuilt level by level
    // with the same grouping CascadeTree uses.
    std::vector<KernelSvmModel> level;
    for (uint64_t peer = 0; peer < 8; ++peer) {
      const std::vector<Example> local = MakeProblem(30, 77 + peer, 0.1);
      uint64_t iters = 0;
      level.push_back(TrainCounted(local, opt, &iters));
      ExpectCertified(std::string(s.name) + "/local" + std::to_string(peer),
                      level.back(), local, opt, iters,
                      s.may_use_fallback);
    }
    std::vector<const KernelSvmModel*> inputs;
    for (const KernelSvmModel& m : level) inputs.push_back(&m);
    Result<KernelSvmModel> tree = CascadeTree(inputs, opt, kFanIn);
    ASSERT_TRUE(tree.ok());

    for (int depth = 1; level.size() > 1; ++depth) {
      std::vector<KernelSvmModel> next;
      for (std::size_t i = 0; i < level.size(); i += kFanIn) {
        std::vector<const KernelSvmModel*> group;
        for (std::size_t j = i; j < std::min(i + kFanIn, level.size()); ++j) {
          group.push_back(&level[j]);
        }
        if (group.size() == 1) {  // passed through unchanged, not retrained
          next.push_back(*group[0]);
          continue;
        }
        const std::vector<Example> pool = Pool(group);
        uint64_t iters = 0;
        next.push_back(TrainCounted(pool, opt, &iters));
        ExpectCertified(std::string(s.name) + "/level" +
                            std::to_string(depth) + "/group" +
                            std::to_string(i / kFanIn),
                        next.back(), pool, opt, iters, s.may_use_fallback);
      }
      level = std::move(next);
    }
    // The rebuilt root is the model CascadeTree returned.
    ASSERT_EQ(level[0].num_support_vectors(), tree->num_support_vectors());
    EXPECT_EQ(level[0].bias(), tree->bias());
    for (std::size_t i = 0; i < level[0].num_support_vectors(); ++i) {
      EXPECT_EQ(level[0].support_vectors()[i].alpha,
                tree->support_vectors()[i].alpha);
    }
  }
}

}  // namespace
}  // namespace p2pdt
