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
//
// The cascade is also checked against weak duality, which no solver
// tolerance enters: each level's dual is at most its parent's primal, and
// the root's dual at most the primal of one SVM trained on every local's
// data. Its merge step must pool exactly as the quadratic reference below.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
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

Certificate ExpectCertified(const std::string& name,
                            const KernelSvmModel& model,
                            const std::vector<Example>& data,
                            const KernelSvmOptions& options,
                            uint64_t iterations, bool may_use_fallback) {
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
  return c;
}

/// What rounding alone may leave between a dual value and a primal one.
double RoundingSlack(double primal) {
  return 1e-9 * std::max(1.0, std::fabs(primal));
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

// Weak duality along the tree: a child's alpha, zero-padded, is feasible in
// its parent's pool, which holds every one of the child's support vectors,
// so dual(child) <= D*(parent) <= primal(parent). The root's alpha is
// feasible in the union of the locals' data the same way (Graf et al., NIPS
// 2004). Fan-in 2 builds three levels; 8 is CEMPaR's default, one level.
TEST(SmoCertificate, CascadeLevelsAreOptimalOnTheirSupportVectors) {
  for (const Setting& s : Settings()) {
    KernelSvmOptions opt;
    opt.kernel = s.kernel;
    opt.c = s.c;
    // Eight peers' local models, each with its dual on its own data.
    std::vector<KernelSvmModel> locals;
    std::vector<double> local_duals;
    std::vector<Example> all;
    for (uint64_t peer = 0; peer < 8; ++peer) {
      const std::vector<Example> local = MakeProblem(30, 77 + peer, 0.1);
      all.insert(all.end(), local.begin(), local.end());
      uint64_t iters = 0;
      locals.push_back(TrainCounted(local, opt, &iters));
      local_duals.push_back(
          ExpectCertified(std::string(s.name) + "/local" + std::to_string(peer),
                          locals.back(), local, opt, iters, s.may_use_fallback)
              .dual);
    }
    uint64_t union_iters = 0;
    const KernelSvmModel whole = TrainCounted(all, opt, &union_iters);
    const Certificate central =
        ExpectCertified(std::string(s.name) + "/union", whole, all, opt,
                        union_iters, s.may_use_fallback);

    for (std::size_t fan_in : {2, 8}) {
      const std::string prefix =
          std::string(s.name) + "/fan" + std::to_string(fan_in);
      std::vector<const KernelSvmModel*> inputs;
      for (const KernelSvmModel& m : locals) inputs.push_back(&m);
      Result<KernelSvmModel> tree = CascadeTree(inputs, opt, fan_in);
      ASSERT_TRUE(tree.ok());

      // The cascade rebuilt level by level with the grouping CascadeTree
      // uses.
      std::vector<KernelSvmModel> level = locals;
      std::vector<double> duals = local_duals;
      for (int depth = 1; level.size() > 1; ++depth) {
        std::vector<KernelSvmModel> next;
        std::vector<double> next_duals;
        for (std::size_t i = 0; i < level.size(); i += fan_in) {
          const std::size_t end = std::min(i + fan_in, level.size());
          if (end - i == 1) {  // passed through unchanged, not retrained
            next.push_back(level[i]);
            next_duals.push_back(duals[i]);
            continue;
          }
          std::vector<const KernelSvmModel*> group;
          for (std::size_t j = i; j < end; ++j) group.push_back(&level[j]);
          const std::vector<Example> pool = Pool(group);
          uint64_t iters = 0;
          next.push_back(TrainCounted(pool, opt, &iters));
          const std::string name = prefix + "/level" + std::to_string(depth) +
                                   "/group" + std::to_string(i / fan_in);
          const Certificate parent = ExpectCertified(
              name, next.back(), pool, opt, iters, s.may_use_fallback);
          next_duals.push_back(parent.dual);
          for (std::size_t j = i; j < end; ++j) {
            EXPECT_LE(duals[j], parent.primal + RoundingSlack(parent.primal))
                << name << ": child " << j - i
                << "'s dual exceeds its parent's primal";
          }
        }
        level = std::move(next);
        duals = std::move(next_duals);
      }
      EXPECT_LE(duals[0], central.primal + RoundingSlack(central.primal))
          << prefix << ": root dual exceeds the union SVM's primal";

      // The rebuilt root is the model CascadeTree returned.
      ASSERT_EQ(level[0].num_support_vectors(), tree->num_support_vectors());
      EXPECT_EQ(level[0].bias(), tree->bias());
      for (std::size_t i = 0; i < level[0].num_support_vectors(); ++i) {
        EXPECT_EQ(level[0].support_vectors()[i].alpha,
                  tree->support_vectors()[i].alpha);
      }
    }
  }
}

/// A model like a byzantine garbage upload: six support vectors whose one
/// coordinate cycles NaN / inf / 1e30, under a NaN bias.
KernelSvmModel NonFiniteModel(const Kernel& kernel) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<SupportVector> svs;
  for (uint32_t k = 0; k < 6; ++k) {
    const double v = k % 3 == 0 ? kNan : k % 3 == 1 ? kInf : 1.0e30;
    svs.push_back({SparseVector::FromPairs({{3 + k, v}}),
                   k % 2 == 0 ? 1.0 : -1.0, 1.0});
  }
  return KernelSvmModel(kernel, std::move(svs), kNan);
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// CascadeMerge pools through a hash; it must still train on the reference
// pool: shared support vectors kept once, first occurrences in model order,
// and each vector carrying a NaN kept every time, since it equals nothing,
// itself included.
TEST(SmoCertificate, CascadeMergePoolsAsTheQuadraticReference) {
  for (const Setting& s : Settings()) {
    SCOPED_TRACE(s.name);
    KernelSvmOptions opt;
    opt.kernel = s.kernel;
    opt.c = s.c;
    const std::vector<Example> a = MakeProblem(40, 501, 0.1);
    std::vector<Example> b = MakeProblem(40, 502, 0.1);
    b.insert(b.end(), a.begin(), a.begin() + 20);
    uint64_t iters = 0;
    const KernelSvmModel ma = TrainCounted(a, opt, &iters);
    const KernelSvmModel mb = TrainCounted(b, opt, &iters);
    const KernelSvmModel garbage = NonFiniteModel(opt.kernel);
    const std::vector<const KernelSvmModel*> group = {&ma, &garbage, &mb,
                                                      &garbage, &ma};
    const std::vector<Example> pool = Pool(group);
    const auto has_nan = [](const Example& ex) {
      return std::any_of(ex.x.entries().begin(), ex.x.entries().end(),
                         [](const auto& e) { return std::isnan(e.second); });
    };
    // Two NaN vectors per garbage copy; b's model shares some of a's.
    EXPECT_EQ(std::count_if(pool.begin(), pool.end(), has_nan), 4);
    EXPECT_LT(pool.size(),
              ma.num_support_vectors() + mb.num_support_vectors() + 8);

    Result<KernelSvmModel> merged = CascadeMerge(group, opt);
    Result<KernelSvmModel> reference = TrainKernelSvm(pool, opt);
    ASSERT_TRUE(merged.ok());
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(Bits(merged->bias()), Bits(reference->bias()));
    ASSERT_EQ(merged->num_support_vectors(), reference->num_support_vectors());
    for (std::size_t i = 0; i < merged->num_support_vectors(); ++i) {
      const SupportVector& got = merged->support_vectors()[i];
      const SupportVector& want = reference->support_vectors()[i];
      EXPECT_EQ(Bits(got.alpha), Bits(want.alpha)) << "sv " << i;
      EXPECT_EQ(Bits(got.y), Bits(want.y)) << "sv " << i;
    }
  }
}

}  // namespace
}  // namespace p2pdt
