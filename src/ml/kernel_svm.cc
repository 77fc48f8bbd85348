#include "ml/kernel_svm.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "common/cost_ledger.h"
#include "common/profile.h"

namespace p2pdt {

namespace {

// Charges `evals` cached-norm kernel evaluations whose dot products
// multiplied `ops` postings: to the distance counters for RBF, whose merge
// they replace, to the dot counters otherwise. One charge per matrix or
// decision keeps the inner loops free of ledger branches.
void ChargeGathers(const Kernel& kernel, uint64_t evals, uint64_t ops) {
  if (!CostLedger::enabled() || evals == 0) return;
  CostCounts& c = CostLedger::Tls();
  c.kernel_evals += evals;
  if (kernel.type == KernelType::kRbf) {
    c.sparse_dist_calls += evals;
    c.sparse_dist_ops += ops;
  } else {
    c.sparse_dot_calls += evals;
    c.sparse_dot_ops += ops;
  }
}

// The buffers that inverting a problem and building its kernel rows need.
struct PostingScratch {
  FeaturePostings postings;
  std::vector<uint32_t> entry_slot;  // slot of every indexed entry, in order
  std::vector<uint32_t> cursor;
  std::vector<double> norm2;
  std::vector<double> dots;
};

// Inverts the entries of each items[i].x whose s.norm2[i] passes
// Kernel::Gatherable into s.postings. Slots are numbered in order of first
// appearance, and a counting sort lays each slot's postings out in item
// order; s.entry_slot gets the slot of every indexed entry, item by item.
// The table is an open-addressing hash, not FeatureRemapper's
// unordered_map or a sort: on a local problem of 50 documents x ~47 ids
// the map costs 2.5x the kernel rows and a sort 14x the hash.
template <typename Item>
void InvertEntries(const std::vector<Item>& items, PostingScratch& s) {
  constexpr uint32_t kNoSlot = FeaturePostings::kNoSlot;
  FeaturePostings& out = s.postings;
  std::size_t total = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (Kernel::Gatherable(s.norm2[i])) total += items[i].x.nnz();
  }
  const std::size_t capacity = std::bit_ceil(2 * total + 2);
  out.shift = 64 - std::countr_zero(capacity);
  out.cells.assign(capacity, FeaturePostings::Cell{});
  // begin[s + 1] counts slot s's entries until the prefix sum below.
  out.begin.assign(1, 0);
  s.entry_slot.clear();
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (!Kernel::Gatherable(s.norm2[i])) continue;
    for (const auto& [id, w] : items[i].x.entries()) {
      const std::size_t h = out.Probe(id);
      if (out.cells[h].slot == kNoSlot) {
        out.cells[h] = {id, static_cast<uint32_t>(out.begin.size() - 1)};
        out.begin.push_back(0);
      }
      ++out.begin[out.cells[h].slot + 1];
      s.entry_slot.push_back(out.cells[h].slot);
    }
  }
  for (std::size_t slot = 1; slot < out.begin.size(); ++slot) {
    out.begin[slot] += out.begin[slot - 1];
  }
  s.cursor.assign(out.begin.begin(), out.begin.end() - 1);
  out.owner.resize(total);
  out.weight.resize(total);
  std::size_t e = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (!Kernel::Gatherable(s.norm2[i])) continue;
    for (const auto& [id, w] : items[i].x.entries()) {
      const uint32_t at = s.cursor[s.entry_slot[e++]]++;
      out.owner[at] = static_cast<uint32_t>(i);
      out.weight[at] = w;
    }
  }
}

// A model's postings under a table sized by its distinct ids rather than
// by its entries, since the model keeps it.
FeaturePostings IndexSupportVectors(const std::vector<SupportVector>& svs,
                                    const std::vector<double>& norm2) {
  PostingScratch s;
  s.norm2 = norm2;
  InvertEntries(svs, s);
  FeaturePostings& all = s.postings;
  FeaturePostings index;
  const std::size_t capacity = std::bit_ceil(2 * all.begin.size());
  index.shift = 64 - std::countr_zero(capacity);
  index.cells.resize(capacity);
  for (const FeaturePostings::Cell& cell : all.cells) {
    if (cell.slot != FeaturePostings::kNoSlot) {
      index.cells[index.Probe(cell.id)] = cell;
    }
  }
  index.begin = std::move(all.begin);
  index.owner = std::move(all.owner);
  index.weight = std::move(all.weight);
  return index;
}

// Problems of up to this many entries, every peer's local problem among
// them, reuse their thread's PostingScratch: on the ~13-document local
// problems of a 20% training split, fresh buffers made KernelMatrix ~13%
// slower. A larger problem allocates its own, a cost its n² kernel
// evaluations dwarf, so that no thread keeps a cascade pool's buffers.
constexpr std::size_t kReusedScratchEntries = std::size_t{1} << 12;

}  // namespace

KernelSvmModel::KernelSvmModel(Kernel kernel, std::vector<SupportVector> svs,
                               double bias)
    : kernel_(kernel), bias_(bias) {
  auto body = std::make_shared<Body>();
  body->svs = std::move(svs);
  body->norm2.reserve(body->svs.size());
  for (const SupportVector& sv : body->svs) {
    body->norm2.push_back(sv.x.SquaredNorm());
  }
  body_ = std::move(body);
}

const KernelSvmModel::Body& KernelSvmModel::body() const {
  static const Body kEmpty;
  return body_ != nullptr ? *body_ : kEmpty;
}

double KernelSvmModel::Decision(const SparseVector& x) const {
  PhaseScope profile("kernel_decision");
  const Body& b = body();
  double sum = bias_;
  const double x_norm2 = x.SquaredNorm();
  if (!Kernel::Gatherable(x_norm2)) {
    for (const auto& sv : b.svs) sum += sv.alpha * sv.y * kernel_(sv.x, x);
    return sum;
  }
  // dots[s] gets sv_s's products with the query's ids in id order, as
  // SparseVector::Dot adds them; the ids sv_s lacks would add only ±0.0.
  thread_local std::vector<double> dots;
  dots.assign(b.svs.size(), 0.0);
  uint64_t ops = 0;
  if (!x.empty() && !b.svs.empty()) {
    std::call_once(b.index_once,
                   [&b] { b.index = IndexSupportVectors(b.svs, b.norm2); });
    const FeaturePostings& index = b.index;
    for (const auto& [id, w] : x.entries()) {
      const uint32_t slot = index.Find(id);
      if (slot == FeaturePostings::kNoSlot) continue;
      const uint32_t end = index.begin[slot + 1];
      for (uint32_t q = index.begin[slot]; q < end; ++q) {
        dots[index.owner[q]] += index.weight[q] * w;
      }
      ops += end - index.begin[slot];
    }
  }
  uint64_t gathers = 0;
  for (std::size_t s = 0; s < b.svs.size(); ++s) {
    const SupportVector& sv = b.svs[s];
    double k;
    if (Kernel::Gatherable(b.norm2[s])) {
      k = kernel_.FromDot(dots[s], b.norm2[s], x_norm2);
      ++gathers;
    } else {
      k = kernel_(sv.x, x);
    }
    sum += sv.alpha * sv.y * k;
  }
  ChargeGathers(kernel_, gathers, ops);
  return sum;
}

std::size_t KernelSvmModel::WireSize() const {
  // Each SV ships its vector plus label and alpha; one double for the bias
  // and a small kernel descriptor.
  std::size_t bytes = 8 + 16;
  for (const auto& sv : body().svs) bytes += sv.x.WireSize() + 16;
  return bytes;
}

std::vector<double> KernelMatrix(const std::vector<Example>& data,
                                 const Kernel& kernel) {
  PhaseScope profile("kernel_matrix");
  const std::size_t n = data.size();
  std::size_t entries = 0;
  for (const Example& ex : data) entries += ex.x.nnz();
  thread_local PostingScratch reused;
  PostingScratch fresh;
  const bool reuse = entries <= kReusedScratchEntries;
  PostingScratch& s = reuse ? reused : fresh;
  s.norm2.resize(n);
  for (std::size_t i = 0; i < n; ++i) s.norm2[i] = data[i].x.SquaredNorm();
  InvertEntries(data, s);
  // Rows read slots from entry_slot, so a large problem frees its id table
  // before the n x n matrix exists.
  if (!reuse) std::vector<FeaturePostings::Cell>().swap(s.postings.cells);
  const FeaturePostings& p = s.postings;
  // A slot's postings before its cursor belong to rows already built; the
  // one at the cursor is x_i's own.
  s.cursor.assign(p.begin.begin(), p.begin.end() - 1);
  std::vector<double> k(n * n);
  s.dots.resize(n);
  uint64_t gathers = 0, ops = 0;
  std::size_t e = 0;  // x_i's first entry in entry_slot
  for (std::size_t i = 0; i < n; ++i) {
    if (!Kernel::Gatherable(s.norm2[i])) {
      for (std::size_t j = i; j < n; ++j) {
        k[i * n + j] = kernel(data[i].x, data[j].x);
        k[j * n + i] = k[i * n + j];
      }
      continue;
    }
    // dots[j] gets x_i's products with x_j in id order, as Dot adds them.
    std::fill(s.dots.begin() + i, s.dots.end(), 0.0);
    for (const auto& [id, w] : data[i].x.entries()) {
      const uint32_t slot = s.entry_slot[e++];
      const uint32_t end = p.begin[slot + 1];
      for (uint32_t q = s.cursor[slot]; q < end; ++q) {
        s.dots[p.owner[q]] += w * p.weight[q];
      }
      ops += end - s.cursor[slot]++;
    }
    for (std::size_t j = i; j < n; ++j) {
      if (Kernel::Gatherable(s.norm2[j])) {
        k[i * n + j] = kernel.FromDot(s.dots[j], s.norm2[i], s.norm2[j]);
        ++gathers;
      } else {
        k[i * n + j] = kernel(data[i].x, data[j].x);
      }
      k[j * n + i] = k[i * n + j];
    }
  }
  ChargeGathers(kernel, gathers, ops);
  return k;
}

Result<KernelSvmModel> TrainKernelSvm(const std::vector<Example>& data,
                                      const KernelSvmOptions& options) {
  if (data.empty()) {
    return Status::InvalidArgument("cannot train kernel SVM on empty data");
  }
  if (options.c <= 0.0) {
    return Status::InvalidArgument("kernel SVM requires C > 0");
  }
  const std::size_t n = data.size();

  std::vector<double> y(n);
  bool has_pos = false, has_neg = false;
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = data[i].y >= 0.0 ? 1.0 : -1.0;
    (y[i] > 0 ? has_pos : has_neg) = true;
  }
  // Degenerate single-class data: constant decision at the class sign.
  if (!has_pos || !has_neg) {
    return KernelSvmModel(options.kernel, {}, has_pos ? 1.0 : -1.0);
  }

  // Materialized kernel matrix Q_ij = y_i y_j K(x_i, x_j).
  std::vector<double> q = KernelMatrix(data, options.kernel);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      q[i * n + j] = y[i] * y[j] * q[i * n + j];
    }
  }

  // SMO solving min ½αᵀQα − eᵀα, 0 ≤ α ≤ C, yᵀα = 0, with
  // maximal-violating-pair selection.
  PhaseScope profile("smo_solve");
  std::vector<double> alpha(n, 0.0);
  std::vector<double> grad(n, -1.0);  // G_i = (Qα)_i − 1
  const double c = options.c;
  const double tau = 1e-12;

  int iter = 0;
  for (; iter < kSmoMaxIterations; ++iter) {
    // Select i: max over I_up of −y_i G_i; j: min over I_down of −y_j G_j.
    int i_sel = -1, j_sel = -1;
    double g_max = -std::numeric_limits<double>::infinity();
    double g_min = std::numeric_limits<double>::infinity();
    for (std::size_t t = 0; t < n; ++t) {
      bool in_up = (y[t] > 0 && alpha[t] < c) || (y[t] < 0 && alpha[t] > 0);
      bool in_down = (y[t] > 0 && alpha[t] > 0) || (y[t] < 0 && alpha[t] < c);
      double v = -y[t] * grad[t];
      if (in_up && v > g_max) {
        g_max = v;
        i_sel = static_cast<int>(t);
      }
      if (in_down && v < g_min) {
        g_min = v;
        j_sel = static_cast<int>(t);
      }
    }
    if (i_sel < 0 || j_sel < 0 || g_max - g_min < kSmoTolerance) break;

    const std::size_t i = static_cast<std::size_t>(i_sel);
    const std::size_t j = static_cast<std::size_t>(j_sel);

    // Solve the two-variable subproblem analytically.
    double quad = q[i * n + i] + q[j * n + j] - 2.0 * y[i] * y[j] * q[i * n + j];
    if (quad <= 0.0) quad = tau;
    double delta = (-y[i] * grad[i] + y[j] * grad[j]) / quad;

    // Clip to the feasible box along the constraint line yᵀα = const.
    double ai_old = alpha[i], aj_old = alpha[j];
    double ai = ai_old + y[i] * delta;
    double aj = aj_old - y[j] * delta;
    // Project back into [0, C] on both coordinates, preserving the line.
    double sum = y[i] * ai_old + y[j] * aj_old;
    ai = std::clamp(ai, 0.0, c);
    aj = y[j] * (sum - y[i] * ai);
    aj = std::clamp(aj, 0.0, c);
    ai = y[i] * (sum - y[j] * aj);
    ai = std::clamp(ai, 0.0, c);

    double dai = ai - ai_old, daj = aj - aj_old;
    if (std::fabs(dai) < tau && std::fabs(daj) < tau) break;
    alpha[i] = ai;
    alpha[j] = aj;
    // Q is symmetric, so rows i and j hold columns i and j contiguously.
    for (std::size_t t = 0; t < n; ++t) {
      grad[t] += q[i * n + t] * dai + q[j * n + t] * daj;
    }
  }
  if (CostLedger::enabled()) {
    CostLedger::Tls().smo_iterations += static_cast<uint64_t>(iter);
  }

  // Bias: average of y_i − Σ α_j y_j K(x_j, x_i) over free SVs; fall back to
  // the midpoint of the interval the KKT conditions leave for b when no free
  // SVs exist (LIBSVM's calculate_rho). An example at α = 0 with y = +1, or
  // at α = C with y = −1, needs b ≥ b_i, so that set bounds b from below;
  // the other at-bound examples bound it from above.
  double b_sum = 0.0;
  int b_count = 0;
  double ub = std::numeric_limits<double>::infinity();
  double lb = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    double yg = y[i] * grad[i];  // y_i (Qα)_i − y_i = y_i f(x_i) − y_i − b...
    // grad_i = Σ_j Q_ij α_j − 1 = y_i (Σ_j α_j y_j K_ij) − 1
    // ⇒ Σ_j α_j y_j K_ij = y_i (grad_i + 1); b = y_i − that value.
    double decision_no_bias = y[i] * (grad[i] + 1.0);
    double bi = y[i] - decision_no_bias;
    if (alpha[i] > tau && alpha[i] < c - tau) {
      b_sum += bi;
      ++b_count;
    } else if ((alpha[i] <= tau && y[i] > 0) ||
               (alpha[i] >= c - tau && y[i] < 0)) {
      lb = std::max(lb, bi);
    } else {
      ub = std::min(ub, bi);
    }
    (void)yg;
  }
  double bias;
  if (b_count > 0) {
    bias = b_sum / b_count;
  } else if (std::isfinite(ub) && std::isfinite(lb)) {
    bias = (ub + lb) / 2.0;
  } else if (std::isfinite(ub)) {
    bias = ub;
  } else if (std::isfinite(lb)) {
    bias = lb;
  } else {
    bias = 0.0;
  }

  std::vector<SupportVector> svs;
  for (std::size_t i = 0; i < n; ++i) {
    if (alpha[i] > tau) svs.push_back({data[i].x, y[i], alpha[i]});
  }
  return KernelSvmModel(options.kernel, std::move(svs), bias);
}

namespace {

// Hash of a (vector, label) pair that agrees with ==: values that compare
// equal hash alike, -0.0 and 0.0 included.
uint64_t PoolHash(const SparseVector& x, double y) {
  constexpr uint64_t kMul = 0x9E3779B97F4A7C15ull;
  // v + 0.0 turns -0.0 into 0.0 and leaves every other value alone.
  auto bits = [](double v) { return std::bit_cast<uint64_t>(v + 0.0); };
  uint64_t h = bits(y);
  for (const auto& [id, w] : x.entries()) {
    h = (h ^ id) * kMul;
    h = (h ^ bits(w)) * kMul;
  }
  return h ^ (h >> 29);
}

// Pools the support vectors of `models` into a training set, deduplicating
// identical (vector, label) pairs so repeated cascade levels do not inflate
// the problem. First occurrences stay, in model order; a candidate is
// compared only with the pooled vectors of equal hash. A vector holding a
// NaN equals nothing, itself included, so it is always pooled.
std::vector<Example> PoolSupportVectors(
    const std::vector<const KernelSvmModel*>& models) {
  std::size_t total = 0;
  for (const KernelSvmModel* m : models) total += m->num_support_vectors();
  std::vector<Example> pool;
  pool.reserve(total);
  std::unordered_multimap<uint64_t, std::size_t> seen;
  seen.reserve(total);
  for (const KernelSvmModel* m : models) {
    for (const auto& sv : m->support_vectors()) {
      const uint64_t h = PoolHash(sv.x, sv.y);
      const auto [lo, hi] = seen.equal_range(h);
      const bool duplicate = std::any_of(lo, hi, [&](const auto& entry) {
        const Example& ex = pool[entry.second];
        return ex.y == sv.y && ex.x == sv.x;
      });
      if (duplicate) continue;
      seen.emplace(h, pool.size());
      pool.push_back({sv.x, sv.y});
    }
  }
  return pool;
}

}  // namespace

Result<KernelSvmModel> CascadeMerge(
    const std::vector<const KernelSvmModel*>& models,
    const KernelSvmOptions& options) {
  if (models.empty()) {
    return Status::InvalidArgument("cascade merge of zero models");
  }
  if (models.size() == 1) {
    return KernelSvmModel(*models[0]);
  }
  std::vector<Example> pool = PoolSupportVectors(models);
  if (pool.empty()) {
    // All inputs were degenerate constant models; majority of their biases.
    double s = 0.0;
    for (const KernelSvmModel* m : models) s += m->bias() >= 0 ? 1.0 : -1.0;
    return KernelSvmModel(options.kernel, {}, s >= 0 ? 1.0 : -1.0);
  }
  return TrainKernelSvm(pool, options);
}

Result<KernelSvmModel> CascadeTree(
    const std::vector<const KernelSvmModel*>& models,
    const KernelSvmOptions& options, std::size_t fan_in) {
  if (models.empty()) {
    return Status::InvalidArgument("cascade tree of zero models");
  }
  if (fan_in < 2) {
    return Status::InvalidArgument("cascade fan-in must be >= 2");
  }
  // Level-by-level merge; own the intermediate models. The first level's
  // copies share the inputs' support vectors.
  std::vector<KernelSvmModel> current;
  current.reserve(models.size());
  for (const KernelSvmModel* m : models) current.push_back(*m);

  while (current.size() > 1) {
    std::vector<KernelSvmModel> next;
    for (std::size_t i = 0; i < current.size(); i += fan_in) {
      std::vector<const KernelSvmModel*> group;
      for (std::size_t j = i; j < std::min(i + fan_in, current.size()); ++j) {
        group.push_back(&current[j]);
      }
      Result<KernelSvmModel> merged = CascadeMerge(group, options);
      if (!merged.ok()) return merged.status();
      next.push_back(std::move(merged).value());
    }
    current = std::move(next);
  }
  return std::move(current[0]);
}

}  // namespace p2pdt
