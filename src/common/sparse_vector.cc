#include "common/sparse_vector.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

#include "common/cost_ledger.h"

namespace p2pdt {

SparseVector SparseVector::FromPairs(std::vector<Entry> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.first < b.first; });
  SparseVector out;
  out.entries_.reserve(entries.size());
  for (const Entry& e : entries) {
    if (!out.entries_.empty() && out.entries_.back().first == e.first) {
      out.entries_.back().second += e.second;
    } else {
      out.entries_.push_back(e);
    }
  }
  // Drop zeros that may result from summing cancelling duplicates.
  out.entries_.erase(
      std::remove_if(out.entries_.begin(), out.entries_.end(),
                     [](const Entry& e) { return e.second == 0.0; }),
      out.entries_.end());
  return out;
}

SparseVector SparseVector::FromDense(const std::vector<double>& dense) {
  SparseVector out;
  for (std::size_t i = 0; i < dense.size(); ++i) {
    if (dense[i] != 0.0) {
      out.entries_.emplace_back(static_cast<Index>(i), dense[i]);
    }
  }
  return out;
}

void SparseVector::PushBack(Index id, double weight) {
  assert(entries_.empty() || entries_.back().first < id);
  if (weight == 0.0) return;
  entries_.emplace_back(id, weight);
}

double SparseVector::Get(Index id) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), id,
      [](const Entry& e, Index key) { return e.first < key; });
  if (it != entries_.end() && it->first == id) return it->second;
  return 0.0;
}

double SparseVector::Dot(const SparseVector& other) const {
  double sum = 0.0;
  std::size_t i = 0, j = 0;
  while (i < entries_.size() && j < other.entries_.size()) {
    Index a = entries_[i].first, b = other.entries_[j].first;
    if (a == b) {
      sum += entries_[i].second * other.entries_[j].second;
      ++i;
      ++j;
    } else if (a < b) {
      ++i;
    } else {
      ++j;
    }
  }
  // Charged once per call with the merge-step aggregate (i + j), so the
  // inner loop stays branch-free when the ledger is off.
  if (CostLedger::enabled()) {
    CostCounts& c = CostLedger::Tls();
    ++c.sparse_dot_calls;
    c.sparse_dot_ops += i + j;
  }
  return sum;
}

double SparseVector::DotDense(const std::vector<double>& dense) const {
  double sum = 0.0;
  for (const Entry& e : entries_) {
    if (e.first < dense.size()) sum += e.second * dense[e.first];
  }
  if (CostLedger::enabled()) {
    CostCounts& c = CostLedger::Tls();
    ++c.sparse_dot_calls;
    c.sparse_dot_ops += entries_.size();
  }
  return sum;
}

double SparseVector::Norm() const { return std::sqrt(SquaredNorm()); }

double SparseVector::SquaredNorm() const {
  double sum = 0.0;
  for (const Entry& e : entries_) sum += e.second * e.second;
  return sum;
}

double SparseVector::Sum() const {
  double sum = 0.0;
  for (const Entry& e : entries_) sum += e.second;
  return sum;
}

void SparseVector::Scale(double factor) {
  if (factor == 0.0) {
    entries_.clear();
    return;
  }
  for (Entry& e : entries_) e.second *= factor;
}

void SparseVector::L2Normalize() {
  double n = Norm();
  if (n > 0.0) Scale(1.0 / n);
}

void SparseVector::Add(const SparseVector& other, double alpha) {
  if (alpha == 0.0 || other.empty()) return;
  std::vector<Entry> merged;
  merged.reserve(entries_.size() + other.entries_.size());
  std::size_t i = 0, j = 0;
  while (i < entries_.size() || j < other.entries_.size()) {
    if (j >= other.entries_.size() ||
        (i < entries_.size() &&
         entries_[i].first < other.entries_[j].first)) {
      merged.push_back(entries_[i++]);
    } else if (i >= entries_.size() ||
               other.entries_[j].first < entries_[i].first) {
      merged.emplace_back(other.entries_[j].first,
                          alpha * other.entries_[j].second);
      ++j;
    } else {
      double w = entries_[i].second + alpha * other.entries_[j].second;
      if (w != 0.0) merged.emplace_back(entries_[i].first, w);
      ++i;
      ++j;
    }
  }
  if (CostLedger::enabled()) CostLedger::Tls().sparse_axpy_ops += i + j;
  entries_ = std::move(merged);
}

double SparseVector::SquaredDistance(const SparseVector& other) const {
  // ||a - b||² = ||a||² + ||b||² - 2 a·b, computed with one merge pass for
  // numerical symmetry.
  double sum = 0.0;
  std::size_t i = 0, j = 0;
  while (i < entries_.size() || j < other.entries_.size()) {
    if (j >= other.entries_.size() ||
        (i < entries_.size() &&
         entries_[i].first < other.entries_[j].first)) {
      sum += entries_[i].second * entries_[i].second;
      ++i;
    } else if (i >= entries_.size() ||
               other.entries_[j].first < entries_[i].first) {
      sum += other.entries_[j].second * other.entries_[j].second;
      ++j;
    } else {
      double d = entries_[i].second - other.entries_[j].second;
      sum += d * d;
      ++i;
      ++j;
    }
  }
  if (CostLedger::enabled()) {
    CostCounts& c = CostLedger::Tls();
    ++c.sparse_dist_calls;
    c.sparse_dist_ops += i + j;
  }
  return sum;
}

double SparseVector::Cosine(const SparseVector& other) const {
  double na = Norm(), nb = other.Norm();
  if (na == 0.0 || nb == 0.0) return 0.0;
  return Dot(other) / (na * nb);
}

uint64_t SparseVector::DimensionBound() const {
  if (entries_.empty()) return 0;
  return uint64_t{entries_.back().first} + 1;
}

std::string SparseVector::ToString() const {
  std::string out = "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ", ";
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%u:%.4g", entries_[i].first,
                  entries_[i].second);
    out += buf;
  }
  out += "}";
  return out;
}

void DenseAccumulator::Add(const SparseVector& v, double alpha) {
  for (const SparseVector::Entry& e : v.entries()) {
    if (e.first >= values_.size()) values_.resize(e.first + 1, 0.0);
    values_[e.first] += alpha * e.second;
  }
}

void DenseAccumulator::Scale(double factor) {
  for (double& x : values_) x *= factor;
}

SparseVector DenseAccumulator::ToSparse() const {
  return SparseVector::FromDense(values_);
}

}  // namespace p2pdt
