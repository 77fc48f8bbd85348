// Protocol equivalence suite (label `protocol`).
//
// Two kinds of evidence that CEMPaR and PACE compute what the paper says:
//
// * Degenerate-topology oracles. When one peer holds every document, CEMPaR
//   (R = 1) must answer exactly what a centralized kernel SVM answers, and
//   PACE (top_k = 1) must answer what that peer's own one-vs-all linear
//   model answers.
// * Pinned answers. For every runtime configuration the shared peer runtime
//   serves (defaults, reliable delivery under loss, the defended overload
//   arm, sanitation + reputation against label-flip adversaries, sanitation
//   against vote-spam adversaries, one online refresh, snapshot -> evict ->
//   restore), the tag sets, the scores
//   (rounded to 1e-9), the simulated traffic and the defense counters are
//   pinned to the values the protocols produced before the runtime was
//   factored out of them.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fnv.h"
#include "common/rng.h"
#include "ml/kernel_svm.h"
#include "ml/linear_svm.h"
#include "ml/multilabel.h"
#include "p2pdmt/byzantine.h"
#include "p2pdmt/environment.h"
#include "p2pml/cempar.h"
#include "p2pml/pace.h"
#include "p2psim/fault.h"

namespace p2pdt {
namespace {

constexpr TagId kTags = 4;
constexpr std::size_t kPeers = 12;

// Four tags, each tied to a distinct feature block, plus shared noise
// features; peers specialize in two tags.
std::vector<MultiLabelDataset> MakePeerData(std::size_t num_peers,
                                            std::size_t per_peer,
                                            uint64_t seed) {
  Rng rng(seed);
  std::vector<MultiLabelDataset> peers(num_peers, MultiLabelDataset(kTags));
  for (std::size_t p = 0; p < num_peers; ++p) {
    for (std::size_t i = 0; i < per_peer; ++i) {
      TagId tag = static_cast<TagId>((p + i) % kTags);
      MultiLabelExample ex;
      ex.x = SparseVector::FromPairs(
          {{tag * 3 + static_cast<uint32_t>(rng.NextU64(3)), 1.0},
           {12 + static_cast<uint32_t>(rng.NextU64(4)),
            0.3 * rng.NextDouble()}});
      ex.tags = {tag};
      if (i % 5 == 4) ex.tags.push_back(static_cast<TagId>((tag + 1) % kTags));
      peers[p].Add(std::move(ex));
    }
  }
  return peers;
}

/// The documents every scenario tags: one clean probe per tag, two-tag
/// mixes and a noise-only document.
std::vector<SparseVector> Probes() {
  std::vector<SparseVector> probes;
  for (uint32_t t = 0; t < kTags; ++t) {
    probes.push_back(SparseVector::FromPairs({{t * 3, 1.0}, {t * 3 + 1, 1.0}}));
  }
  probes.push_back(
      SparseVector::FromPairs({{0, 0.7}, {4, 0.7}, {13, 0.2}}));
  probes.push_back(
      SparseVector::FromPairs({{7, 0.5}, {11, 0.9}, {14, 0.1}}));
  probes.push_back(SparseVector::FromPairs({{12, 0.4}, {15, 0.3}}));
  return probes;
}

/// Offset basis the pins were recorded with: FNV-1a's 14695981039346656037
/// with its last decimal digit dropped. Every other step is Fnv64's, so
/// seeding Fnv64 with it reproduces every pinned digest.
constexpr uint64_t kPinBasis = 1469598103934665603ull;

/// Everything one scenario pins.
struct Pin {
  uint64_t tags = 0;    // FNV over tag sets and outcome flags
  uint64_t scores = 0;  // FNV over every score rounded to 1e-9
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t events = 0;
  uint64_t rejected = 0;
  uint64_t discarded = 0;
  uint64_t snapshot = 0;  // FNV of a snapshot blob (0 when none is taken)
};

std::string Describe(const Pin& p) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{0x%016llxull, 0x%016llxull, %llu, %llu, %llu, %llu, %llu, "
                "0x%016llxull}",
                static_cast<unsigned long long>(p.tags),
                static_cast<unsigned long long>(p.scores),
                static_cast<unsigned long long>(p.messages),
                static_cast<unsigned long long>(p.bytes),
                static_cast<unsigned long long>(p.events),
                static_cast<unsigned long long>(p.rejected),
                static_cast<unsigned long long>(p.discarded),
                static_cast<unsigned long long>(p.snapshot));
  return buf;
}

void ExpectPinned(const Pin& got, const Pin& want, const char* scenario) {
  SCOPED_TRACE(std::string(scenario) + " observed " + Describe(got));
  EXPECT_EQ(got.tags, want.tags);
  EXPECT_EQ(got.scores, want.scores);
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.bytes, want.bytes);
  EXPECT_EQ(got.events, want.events);
  EXPECT_EQ(got.rejected, want.rejected);
  EXPECT_EQ(got.discarded, want.discarded);
  EXPECT_EQ(got.snapshot, want.snapshot);
}

enum class Scenario {
  kDefaults,
  kReliableLoss,
  kOverload,
  kAdversaries,
  kVoteSpam,
  kRefresh,
  kSnapshotRestore,
};

const char* ScenarioName(Scenario s) {
  switch (s) {
    case Scenario::kDefaults:
      return "defaults";
    case Scenario::kReliableLoss:
      return "reliable_loss";
    case Scenario::kOverload:
      return "overload";
    case Scenario::kAdversaries:
      return "adversaries";
    case Scenario::kVoteSpam:
      return "vote_spam";
    case Scenario::kRefresh:
      return "refresh";
    case Scenario::kSnapshotRestore:
      return "snapshot_restore";
  }
  return "?";
}

std::unique_ptr<Environment> MakeEnv(Scenario s, std::size_t peers) {
  EnvironmentOptions eo;
  eo.num_peers = peers;
  if (s == Scenario::kReliableLoss) eo.physical.loss_rate = 0.2;
  if (s == Scenario::kOverload) eo.observe.metrics = true;
  if (s == Scenario::kAdversaries) {
    eo.fault = MakeAdversaryPlan(peers, AdversaryBehavior::kLabelFlip, 0.25,
                                 /*seed=*/41);
  }
  if (s == Scenario::kVoteSpam) {
    eo.fault = MakeAdversaryPlan(peers, AdversaryBehavior::kVoteSpam, 0.25,
                                 /*seed=*/43);
  }
  std::unique_ptr<Environment> env =
      std::move(Environment::Create(eo)).value();
  if (env->fault_injector() != nullptr) env->fault_injector()->Arm();
  return env;
}

ServeOptions Defended() {
  ServeOptions serve;
  serve.enabled = true;
  serve.admission_control = true;
  serve.service_rate = 20.0;
  serve.max_depth = 2;
  return serve;
}

/// Drives one protocol through one scenario and digests what it answered.
class Runner {
 public:
  Runner(std::unique_ptr<Environment> env,
         std::unique_ptr<StatefulP2PClassifier> algo)
      : env_(std::move(env)), algo_(std::move(algo)) {}

  Environment& env() { return *env_; }
  StatefulP2PClassifier& algo() { return *algo_; }

  void Train(std::vector<MultiLabelDataset> data) {
    ASSERT_TRUE(algo_->Setup(std::move(data), kTags).ok());
    bool done = false;
    algo_->Train([&](Status s) {
      EXPECT_TRUE(s.ok()) << s.ToString();
      done = true;
    });
    env_->RunUntilFlag(done, 3600);
    ASSERT_TRUE(done);
  }

  P2PPrediction PredictSync(NodeId requester, const SparseVector& x) {
    P2PPrediction out;
    bool done = false;
    algo_->Predict(requester, x, [&](P2PPrediction p) {
      out = std::move(p);
      done = true;
    });
    env_->RunUntilFlag(done, 3600);
    EXPECT_TRUE(done);
    return out;
  }

  /// Every requester tags every probe, one request at a time.
  void Sweep(std::size_t peers) {
    const std::vector<SparseVector> probes = Probes();
    for (NodeId r = 0; r < peers; ++r) {
      for (const SparseVector& x : probes) Record(PredictSync(r, x));
    }
  }

  /// A flash burst: `n` requests issued at one simulated instant from three
  /// requesters over four documents, answered in issue order.
  void Burst(std::size_t n) {
    const std::vector<SparseVector> probes = Probes();
    std::vector<P2PPrediction> out(n);
    std::size_t answered = 0;
    for (std::size_t i = 0; i < n; ++i) {
      algo_->Predict(static_cast<NodeId>(i % 3), probes[i % 4],
                     [&out, &answered, i](P2PPrediction p) {
                       out[i] = std::move(p);
                       ++answered;
                     });
    }
    bool all = false;
    while (!all && env_->sim().pending_events() > 0) {
      env_->sim().RunUntil(env_->sim().Now() + 1.0);
      all = answered == n;
    }
    ASSERT_EQ(answered, n);
    for (const P2PPrediction& p : out) Record(p);
  }

  void Record(const P2PPrediction& p) {
    cached_ += p.cached ? 1 : 0;
    tags_.Mix(p.tags.size());
    for (TagId t : p.tags) tags_.Mix(uint64_t{t});
    tags_.Mix(uint64_t{(p.success ? 1u : 0u) | (p.degraded ? 2u : 0u) |
                       (p.overloaded ? 4u : 0u) | (p.cached ? 8u : 0u)});
    scores_.Mix(p.scores.size());
    for (double s : p.scores) {
      scores_.Mix(static_cast<uint64_t>(std::llround(s * 1e9)));
    }
  }

  std::size_t cached() const { return cached_; }

  void SetSnapshot(const std::string& blob) {
    Fnv64 f{kPinBasis};
    f.Mix(blob.size());
    f.MixBytes(blob.data(), blob.size());
    snapshot_ = f.state;
  }

  Pin Finish() {
    Pin pin;
    pin.tags = tags_.state;
    pin.scores = scores_.state;
    pin.messages = env_->net().stats().messages_sent();
    pin.bytes = env_->net().stats().bytes_sent();
    pin.events = env_->sim().executed_events();
    const DefenseStats d = algo_->defense_stats();
    pin.rejected = d.models_rejected;
    pin.discarded = d.votes_discarded;
    pin.snapshot = snapshot_;
    return pin;
  }

 private:
  std::unique_ptr<Environment> env_;
  std::unique_ptr<StatefulP2PClassifier> algo_;
  Fnv64 tags_{kPinBasis};
  Fnv64 scores_{kPinBasis};
  std::size_t cached_ = 0;
  uint64_t snapshot_ = 0;
};

CemparOptions CemparFor(Scenario s) {
  CemparOptions o;
  switch (s) {
    case Scenario::kReliableLoss:
      o.reliable_transport = true;
      break;
    case Scenario::kOverload:
      o.reliable_transport = true;
      o.batch_predictions = true;
      o.serve = Defended();
      o.predict_cache.enabled = true;
      break;
    case Scenario::kAdversaries:
      // Three regions per tag give the requester's median trim a majority
      // to trim against.
      o.regions_per_tag = 3;
      o.reputation.enabled = true;
      break;
    default:
      break;
  }
  return o;
}

PaceOptions PaceFor(Scenario s) {
  PaceOptions o;
  switch (s) {
    case Scenario::kReliableLoss:
      o.reliable_dissemination = true;
      break;
    case Scenario::kOverload:
      o.serve = Defended();
      o.predict_cache.enabled = true;
      break;
    case Scenario::kAdversaries:
      o.reputation.enabled = true;
      break;
    default:
      break;
  }
  return o;
}

/// The scenario body shared by both protocols: train, exercise the
/// scenario's runtime path, then tag.
Pin RunScenario(Runner& d, Scenario s) {
  d.Train(MakePeerData(kPeers, 8, 7));
  if (::testing::Test::HasFatalFailure()) return {};
  switch (s) {
    case Scenario::kOverload: {
      d.Burst(48);
      d.Burst(48);  // the second burst meets a warm cache
      // The scenario must reach both defenses: sheds and cache hits.
      MetricsRegistry& m = *d.env().metrics();
      uint64_t shed = 0;
      for (const char* reason : {"queue_full", "wait_exceeded"}) {
        shed += m.GetCounter("requests_shed", {{"classifier", d.algo().name()},
                                               {"reason", reason}})
                    .value();
      }
      EXPECT_GT(shed, 0u);
      EXPECT_GT(d.cached(), 0u);
      return d.Finish();
    }
    case Scenario::kRefresh: {
      std::vector<MultiLabelDataset> fresh = MakePeerData(kPeers, 10, 99);
      DatasetShard window = DatasetShard::Own(std::move(fresh[5]));
      EXPECT_TRUE(d.algo().ReplacePeerData(2, std::move(window)).ok());
      bool done = false;
      d.algo().RefreshPeer(2, [&] { done = true; });
      d.env().RunUntilFlag(done, 3600);
      EXPECT_TRUE(done);
      EXPECT_EQ(d.algo().ModelVersion(2), 1u);
      break;
    }
    case Scenario::kSnapshotRestore: {
      Result<std::string> blob = d.algo().Snapshot(3);
      EXPECT_TRUE(blob.ok());
      if (!blob.ok()) return {};
      d.SetSnapshot(*blob);
      d.algo().EvictPeer(3);
      EXPECT_TRUE(d.algo().Restore(3, *blob).ok());
      break;
    }
    default:
      break;
  }
  d.Sweep(kPeers);
  return d.Finish();
}

Pin RunCempar(Scenario s) {
  std::unique_ptr<Environment> env = MakeEnv(s, kPeers);
  auto algo = std::make_unique<Cempar>(env->sim(), env->net(), *env->chord(),
                                       CemparFor(s));
  Runner d(std::move(env), std::move(algo));
  return RunScenario(d, s);
}

Pin RunPace(Scenario s) {
  std::unique_ptr<Environment> env = MakeEnv(s, kPeers);
  auto algo = std::make_unique<Pace>(env->sim(), env->net(), env->overlay(),
                                     PaceFor(s));
  Runner d(std::move(env), std::move(algo));
  return RunScenario(d, s);
}

struct Pinned {
  Scenario scenario;
  Pin cempar;
  Pin pace;
};

// Recorded from the protocols before the shared peer runtime existed. Each
// row: {tags, scores, messages, wire bytes, executed events, models
// rejected, votes discarded, snapshot blob}.
const Pinned kPinned[] = {
    {Scenario::kDefaults,
     {0xf1b48d167d28fa03ull, 0x1bc08fbac813b893ull,
      924, 56192, 952, 0, 0, 0},
     {0x783a389d41594ec3ull, 0x7f6b56f6c62f35dbull,
      288, 113088, 384, 0, 0, 0}},
    {Scenario::kReliableLoss,
     {0x94f43d18623a8b03ull, 0xe62fde6470ae44ffull,
      2116, 110032, 3154, 0, 0, 0},
     {0x783a389d41594ec3ull, 0x7f6b56f6c62f35dbull,
      411, 160816, 590, 0, 0, 0}},
    {Scenario::kOverload,
     {0xba832e001f727383ull, 0x798cd2e7ee681b8eull,
      416, 57828, 584, 0, 0, 0},
     {0xb8c02759bd3c2003ull, 0xece86c76416bdb8bull,
      288, 113088, 396, 0, 0, 0}},
    {Scenario::kAdversaries,
     {0x4221fbd358ca8a03ull, 0x325d6e5f9e398d83ull,
      1440, 86664, 1482, 10, 0, 0},
     {0x4221fbd358ca8a03ull, 0x7b30ce14cec0cdd2ull,
      288, 113088, 384, 22, 0, 0}},
    {Scenario::kVoteSpam,
     {0x783a389d41594ec3ull, 0x9f94a82d71c410a3ull,
      924, 56192, 952, 0, 84, 0},
     {0x783a389d41594ec3ull, 0x246482334ce73343ull,
      288, 96324, 384, 36, 0, 0}},
    {Scenario::kRefresh,
     {0xf1b48d167d28fa03ull, 0x16401c6e1b10bb9bull,
      938, 58752, 967, 0, 0, 0},
     {0x783a389d41594ec3ull, 0x440df443f06293a3ull,
      299, 122768, 396, 0, 0, 0}},
    {Scenario::kSnapshotRestore,
     {0xf1b48d167d28fa03ull, 0x1bc08fbac813b893ull,
      932, 56704, 960, 0, 0, 0x7b3e85d7a1124f64ull},
     {0x783a389d41594ec3ull, 0x7f6b56f6c62f35dbull,
      288, 113088, 384, 0, 0, 0xaea65d028edd34bfull}},
};

void PrintTo(const Pinned& p, std::ostream* os) {
  *os << ScenarioName(p.scenario);
}

class PinnedAnswers : public ::testing::TestWithParam<Pinned> {};

TEST_P(PinnedAnswers, Cempar) {
  ExpectPinned(RunCempar(GetParam().scenario), GetParam().cempar,
               ScenarioName(GetParam().scenario));
}

TEST_P(PinnedAnswers, Pace) {
  ExpectPinned(RunPace(GetParam().scenario), GetParam().pace,
               ScenarioName(GetParam().scenario));
}

INSTANTIATE_TEST_SUITE_P(
    Runtime, PinnedAnswers, ::testing::ValuesIn(kPinned),
    [](const ::testing::TestParamInfo<Pinned>& info) {
      return std::string(ScenarioName(info.param.scenario));
    });

// ---------------------------------------------------------------------------
// Degenerate topologies: one peer holds every document.

MultiLabelDataset AllData() {
  MultiLabelDataset all(kTags);
  for (const MultiLabelDataset& part : MakePeerData(kPeers, 8, 7)) {
    all.Merge(part);
  }
  return all;
}

std::vector<MultiLabelDataset> OnePeerHoldsAll(std::size_t peers) {
  std::vector<MultiLabelDataset> data(peers, MultiLabelDataset(kTags));
  data[0] = AllData();
  return data;
}

TEST(DegenerateTopology, CemparEqualsCentralizedKernelSvm) {
  constexpr std::size_t kNodes = 6;
  CemparOptions opt;  // R = 1
  std::unique_ptr<Environment> env = MakeEnv(Scenario::kDefaults, kNodes);
  auto algo =
      std::make_unique<Cempar>(env->sim(), env->net(), *env->chord(), opt);
  Runner d(std::move(env), std::move(algo));
  d.Train(OnePeerHoldsAll(kNodes));
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  const DatasetShard shard = DatasetShard::Own(AllData());
  std::vector<KernelSvmModel> central;
  for (TagId t = 0; t < kTags; ++t) {
    Result<KernelSvmModel> m = TrainKernelSvm(shard.OneAgainstAll(t), opt.svm);
    ASSERT_TRUE(m.ok());
    central.push_back(std::move(m).value());
  }
  for (NodeId r = 0; r < kNodes; ++r) {
    for (const SparseVector& x : Probes()) {
      std::vector<double> want(kTags);
      for (TagId t = 0; t < kTags; ++t) want[t] = central[t].Decision(x);
      P2PPrediction got = d.PredictSync(r, x);
      ASSERT_TRUE(got.success);
      ASSERT_EQ(got.scores.size(), kTags);
      for (TagId t = 0; t < kTags; ++t) {
        // A one-model cascade returns the model unchanged and the vote
        // weight is 1, so the score is the centralized decision bit for bit.
        EXPECT_EQ(got.scores[t], want[t]) << "requester " << r << " tag " << t;
      }
      EXPECT_EQ(got.tags, DecideTags(want, opt.policy));
    }
  }
}

TEST(DegenerateTopology, PaceTopOneEqualsThePeersOwnModel) {
  constexpr std::size_t kNodes = 6;
  PaceOptions opt;
  opt.top_k = 1;
  std::unique_ptr<Environment> env = MakeEnv(Scenario::kDefaults, kNodes);
  auto algo =
      std::make_unique<Pace>(env->sim(), env->net(), env->overlay(), opt);
  Runner d(std::move(env), std::move(algo));
  d.Train(OnePeerHoldsAll(kNodes));
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  // The holder's own fit: the same per-(peer, tag) seeds PACE derives.
  DatasetShard padded = DatasetShard::Own(AllData());
  padded.set_num_tags(kTags);
  const NodeId holder = 0;
  IndexedBinaryTrainer trainer =
      [&opt, holder](const std::vector<Example>& examples, TagId tag)
      -> Result<std::unique_ptr<BinaryClassifier>> {
    LinearSvmOptions svm = opt.svm;
    svm.seed = DeriveSeed(opt.svm.seed, holder, tag);
    Result<LinearSvmModel> m = TrainLinearSvm(examples, svm);
    if (!m.ok()) return m.status();
    return std::unique_ptr<BinaryClassifier>(
        std::make_unique<LinearSvmModel>(std::move(m).value()));
  };
  Result<OneVsAllModel> own = TrainOneVsAll(padded, trainer);
  ASSERT_TRUE(own.ok());

  for (NodeId r = 0; r < kNodes; ++r) {
    for (const SparseVector& x : Probes()) {
      std::vector<double> want = own->Scores(x);
      ASSERT_EQ(want.size(), kTags);
      P2PPrediction got = d.PredictSync(r, x);
      ASSERT_TRUE(got.success);
      ASSERT_EQ(got.scores.size(), kTags);
      for (TagId t = 0; t < kTags; ++t) {
        // The vote divides w * d by w: equal up to rounding, not bit for bit.
        EXPECT_LE(std::fabs(got.scores[t] - want[t]),
                  1e-12 * std::fabs(want[t]))
            << "requester " << r << " tag " << t;
      }
      EXPECT_EQ(got.tags, DecideTags(want, opt.policy));
    }
  }
}

}  // namespace
}  // namespace p2pdt
