#include "p2pml/predict_cache.h"

#include "common/fnv.h"

namespace p2pdt {

uint64_t FingerprintVector(const SparseVector& x) {
  Fnv64 h;
  for (const auto& [index, weight] : x.entries()) {
    h.MixBytes(&index, sizeof(index));
    h.MixDouble(weight);
  }
  return h.state;
}

const P2PPrediction* PredictionCache::Lookup(uint64_t key, uint64_t epoch,
                                             double now,
                                             CacheOutcome* outcome) {
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    if (outcome) *outcome = CacheOutcome::kMiss;
    return nullptr;
  }
  Entry& e = *it->second;
  if (e.epoch != epoch || now - e.inserted_at > options_.ttl_seconds) {
    // Stale: wrong model version or past TTL. Erase on contact so a stale
    // answer can never be served later by accident.
    lru_.erase(it->second);
    map_.erase(it);
    ++stale_;
    if (outcome) *outcome = CacheOutcome::kStale;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  if (outcome) *outcome = CacheOutcome::kHit;
  return &it->second->value;
}

void PredictionCache::Insert(uint64_t key, uint64_t epoch, double now,
                             P2PPrediction value) {
  auto it = map_.find(key);
  if (it != map_.end()) {
    it->second->epoch = epoch;
    it->second->inserted_at = now;
    it->second->value = std::move(value);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, epoch, now, std::move(value)});
  map_[key] = lru_.begin();
  while (map_.size() > options_.capacity) {
    map_.erase(lru_.back().key);
    lru_.pop_back();
    ++evictions_;
  }
}

PredictionCache& PredictCacheSet::ForNode(NodeId node) {
  if (node >= caches_.size()) caches_.resize(node + 1);
  if (!caches_[node]) {
    caches_[node] = std::make_unique<PredictionCache>(options_);
  }
  return *caches_[node];
}

uint64_t PredictCacheSet::hits() const {
  uint64_t n = 0;
  for (const auto& c : caches_) {
    if (c) n += c->hits();
  }
  return n;
}

uint64_t PredictCacheSet::misses() const {
  uint64_t n = 0;
  for (const auto& c : caches_) {
    if (c) n += c->misses();
  }
  return n;
}

uint64_t PredictCacheSet::stale() const {
  uint64_t n = 0;
  for (const auto& c : caches_) {
    if (c) n += c->stale();
  }
  return n;
}

}  // namespace p2pdt
