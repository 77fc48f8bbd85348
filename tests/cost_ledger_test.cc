// The cost-ledger contract: counters are behavior-neutral, additive across
// threads, and bit-identical for any work partition — the property that
// lets BENCH_baseline.json gate at 0% tolerance and lets the scale suite
// assert serial == parallel ledgers.

#include "common/cost_ledger.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "corpus/vectorize.h"
#include "ml/kernel_svm.h"
#include "ml/lsh.h"
#include "ml/serialization.h"
#include "p2pdmt/experiment.h"

namespace p2pdt {
namespace {

std::vector<Example> TinyProblem(std::size_t n) {
  std::vector<Example> data;
  for (std::size_t i = 0; i < n; ++i) {
    double sign = i % 2 == 0 ? 1.0 : -1.0;
    SparseVector x = SparseVector::FromPairs(
        {{static_cast<uint32_t>(i % 4), 1.0}, {10, sign * 0.5}});
    x.L2Normalize();
    data.push_back({std::move(x), sign});
  }
  return data;
}

TEST(CostCountsTest, ArithmeticAndEquality) {
  CostCounts a;
  a.kernel_evals = 10;
  a.serialized_bytes = 100;
  CostCounts b;
  b.kernel_evals = 4;
  b.serialized_bytes = 60;
  b.lsh_probes = 1;

  CostCounts d = a;
  d += b;
  EXPECT_EQ(d.kernel_evals, 14u);
  EXPECT_EQ(d.serialized_bytes, 160u);
  EXPECT_EQ(d.lsh_probes, 1u);
  EXPECT_EQ((d - b).kernel_evals, a.kernel_evals);
  EXPECT_TRUE(d - b == a);
  EXPECT_TRUE(a != b);
}

TEST(CostCountsTest, ScalarsEnumerateEveryFieldInOrder) {
  CostCounts c;
  c.sparse_dot_calls = 7;
  auto scalars = c.Scalars();
  ASSERT_FALSE(scalars.empty());
  EXPECT_STREQ(scalars.front().first, "sparse_dot_calls");
  EXPECT_EQ(scalars.front().second, 7u);
  // ToString is the bit-exact fingerprint: every scalar appears.
  std::string s = c.ToString();
  for (const auto& [name, value] : scalars) {
    EXPECT_NE(s.find(name), std::string::npos) << name;
  }
}

TEST(CostLedgerTest, DisabledChargesNothing) {
  ScopedCostLedger off(false);
  CostCounts before = CostLedger::Collect();
  auto model = TrainKernelSvm(TinyProblem(16), {});
  ASSERT_TRUE(model.ok());
  EXPECT_TRUE(CostLedger::Collect() - before == CostCounts{});
}

TEST(CostLedgerTest, KernelTrainingIsCounted) {
  ScopedCostLedger on(true);
  CostCounts before = CostLedger::Collect();
  auto model = TrainKernelSvm(TinyProblem(16), {});
  ASSERT_TRUE(model.ok());
  CostCounts delta = CostLedger::Collect() - before;
  EXPECT_GT(delta.kernel_evals, 0u);
  EXPECT_GT(delta.smo_iterations, 0u);
}

TEST(CostLedgerTest, SerializationBytesBalanceOnRoundTrip) {
  auto model = TrainKernelSvm(TinyProblem(16), {});
  ASSERT_TRUE(model.ok());
  ScopedCostLedger on(true);
  CostCounts before = CostLedger::Collect();
  std::string wire = SerializeKernelSvm(model.value());
  auto back = DeserializeKernelSvm(wire);
  ASSERT_TRUE(back.ok());
  CostCounts delta = CostLedger::Collect() - before;
  EXPECT_EQ(delta.serialized_bytes, wire.size());
  EXPECT_EQ(delta.deserialized_bytes, wire.size());
}

TEST(CostLedgerTest, LshQueryIsCounted) {
  CosineLsh index{LshOptions{}};
  auto data = TinyProblem(32);
  ScopedCostLedger on(true);
  CostCounts before = CostLedger::Collect();
  for (std::size_t i = 0; i < data.size(); ++i) index.Insert(i, data[i].x);
  index.QueryAtLeast(data[0].x, 4);
  CostCounts delta = CostLedger::Collect() - before;
  EXPECT_GT(delta.lsh_signature_dots, 0u);
  EXPECT_GT(delta.lsh_probes, 0u);
}

// The core determinism property: per-thread TLS blocks summed at a
// quiesce point are identical for ANY partition of the same work.
TEST(CostLedgerTest, TlsSumIsPartitionInvariant) {
  ScopedCostLedger on(true);
  CostCounts reference;
  bool have_reference = false;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                              std::size_t{4}}) {
    for (std::size_t chunk : {std::size_t{1}, std::size_t{7},
                              std::size_t{64}}) {
      ThreadPool::SetGlobalConcurrency(threads);
      CostCounts before = CostLedger::Collect();
      ParallelFor(0, 1000, chunk, [](std::size_t lo, std::size_t hi) {
        // Per-chunk aggregate, exactly like the kmeans hot path: the sum
        // over chunks must not depend on the partition.
        CostCounts& tls = CostLedger::Tls();
        tls.sparse_dot_ops += (hi - lo) * 3;
        tls.sparse_dot_calls += hi - lo;
      });
      CostCounts delta = CostLedger::Collect() - before;
      if (!have_reference) {
        reference = delta;
        have_reference = true;
      }
      EXPECT_TRUE(delta == reference)
          << "threads=" << threads << " chunk=" << chunk << "\n"
          << delta.ToString();
    }
  }
  EXPECT_EQ(reference.sparse_dot_ops, 3000u);
  EXPECT_EQ(reference.sparse_dot_calls, 1000u);
  ThreadPool::SetGlobalConcurrency(0);
}

// Experiment-level: the ledger reports identical costs across repeated
// runs, and switching it on changes nothing about the run itself.
class LedgerExperimentTest : public ::testing::Test {
 protected:
  static const VectorizedCorpus& Corpus() {
    static const VectorizedCorpus corpus = [] {
      CorpusOptions opt;
      opt.num_users = 8;
      opt.min_docs_per_user = 10;
      opt.max_docs_per_user = 16;
      opt.num_tags = 4;
      opt.vocabulary_size = 300;
      opt.seed = 777;
      Result<VectorizedCorpus> r = MakeVectorizedCorpus(opt);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      return std::move(r).value();
    }();
    return corpus;
  }

  static ExperimentOptions Options(bool ledger) {
    ExperimentOptions opt;
    opt.algorithm = AlgorithmType::kCempar;
    opt.env.num_peers = 8;
    opt.distribution.cls = ClassDistribution::kByUser;
    opt.max_test_documents = 20;
    opt.env.observe.metrics = true;
    opt.env.observe.cost_ledger = ledger;
    return opt;
  }
};

TEST_F(LedgerExperimentTest, RepeatedRunsYieldIdenticalLedgers) {
  Result<ExperimentResult> a = RunExperiment(Corpus(), Options(true));
  Result<ExperimentResult> b = RunExperiment(Corpus(), Options(true));
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_TRUE(a->cost_ledger_enabled);
  EXPECT_GT(a->train_cost.kernel_evals, 0u);
  EXPECT_GT(a->train_bytes, 0u);
  EXPECT_TRUE(a->train_cost == b->train_cost)
      << a->train_cost.ToString() << "\nvs\n" << b->train_cost.ToString();
  EXPECT_TRUE(a->predict_cost == b->predict_cost);
}

TEST_F(LedgerExperimentTest, LedgerIsBehaviorNeutral) {
  Result<ExperimentResult> off = RunExperiment(Corpus(), Options(false));
  Result<ExperimentResult> on = RunExperiment(Corpus(), Options(true));
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  EXPECT_FALSE(off->cost_ledger_enabled);
  EXPECT_TRUE(off->train_cost == CostCounts{});
  EXPECT_EQ(off->metrics.macro_f1, on->metrics.macro_f1);
  EXPECT_EQ(off->train_messages, on->train_messages);
  EXPECT_EQ(off->train_bytes, on->train_bytes);
  EXPECT_EQ(off->predict_messages, on->predict_messages);
  EXPECT_EQ(off->failed_predictions, on->failed_predictions);
}

}  // namespace
}  // namespace p2pdt
