#include "common/cost_ledger.h"

#include <memory>
#include <mutex>

namespace p2pdt {

namespace {

/// Owns every thread's block so Collect() can outlive the threads that
/// charged them (pool workers come and go with SetGlobalConcurrency).
/// Blocks are never freed; the count is bounded by the threads a process
/// ever starts.
struct BlockRegistry {
  std::mutex mu;
  std::vector<std::unique_ptr<CostCounts>> blocks;
};

BlockRegistry& Registry() {
  static BlockRegistry* registry = new BlockRegistry();  // leaked on purpose
  return *registry;
}

}  // namespace

std::atomic<bool> CostLedger::enabled_{false};

bool CostLedger::SetEnabled(bool on) {
  return enabled_.exchange(on, std::memory_order_relaxed);
}

CostCounts& CostLedger::Tls() {
  thread_local CostCounts* block = [] {
    BlockRegistry& registry = Registry();
    std::lock_guard<std::mutex> lock(registry.mu);
    registry.blocks.push_back(std::make_unique<CostCounts>());
    return registry.blocks.back().get();
  }();
  return *block;
}

CostCounts CostLedger::Collect() {
  CostCounts total;
  BlockRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (const auto& block : registry.blocks) total += *block;
  return total;
}

CostCounts CostCounts::operator-(const CostCounts& o) const {
  CostCounts out;
#define P2PDT_COST_SUB(name) out.name = name - o.name;
  P2PDT_COST_SCALAR_FIELDS(P2PDT_COST_SUB)
#undef P2PDT_COST_SUB
  return out;
}

CostCounts& CostCounts::operator+=(const CostCounts& o) {
#define P2PDT_COST_ADD(name) name += o.name;
  P2PDT_COST_SCALAR_FIELDS(P2PDT_COST_ADD)
#undef P2PDT_COST_ADD
  return *this;
}

std::vector<std::pair<const char*, uint64_t>> CostCounts::Scalars() const {
  std::vector<std::pair<const char*, uint64_t>> out;
#define P2PDT_COST_EMIT(name) out.emplace_back(#name, name);
  P2PDT_COST_SCALAR_FIELDS(P2PDT_COST_EMIT)
#undef P2PDT_COST_EMIT
  return out;
}

std::string CostCounts::ToString() const {
  std::string out;
  for (const auto& [name, value] : Scalars()) {
    out += name;
    out += '=';
    out += std::to_string(value);
    out += '\n';
  }
  return out;
}

}  // namespace p2pdt
