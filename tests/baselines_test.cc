#include "p2pml/baselines.h"

#include <gtest/gtest.h>

#include "p2pdmt/environment.h"

namespace p2pdt {
namespace {

std::vector<MultiLabelDataset> MakePeerData(std::size_t num_peers,
                                            std::size_t per_peer,
                                            uint64_t seed) {
  Rng rng(seed);
  std::vector<MultiLabelDataset> peers(num_peers, MultiLabelDataset(3));
  for (std::size_t p = 0; p < num_peers; ++p) {
    for (std::size_t i = 0; i < per_peer; ++i) {
      TagId tag = static_cast<TagId>((p + i) % 3);
      MultiLabelExample ex;
      ex.x = SparseVector::FromPairs(
          {{tag * 2 + static_cast<uint32_t>(rng.NextU64(2)), 1.0}});
      ex.tags = {tag};
      peers[p].Add(std::move(ex));
    }
  }
  return peers;
}

SparseVector TagVector(TagId tag) {
  return SparseVector::FromPairs({{tag * 2u, 1.0}, {tag * 2u + 1, 1.0}});
}

template <typename Algo>
P2PPrediction PredictSync(Environment& env, Algo& algo, NodeId requester,
                          const SparseVector& x) {
  P2PPrediction out;
  bool done = false;
  algo.Predict(requester, x, [&](P2PPrediction p) {
    out = std::move(p);
    done = true;
  });
  env.RunUntilFlag(done, 3600);
  EXPECT_TRUE(done);
  return out;
}

template <typename Algo>
Status TrainSync(Environment& env, Algo& algo,
                 std::vector<MultiLabelDataset> data, TagId num_tags) {
  P2PDT_RETURN_IF_ERROR(algo.Setup(std::move(data), num_tags));
  bool done = false;
  Status status = Status::OK();
  algo.Train([&](Status s) {
    status = s;
    done = true;
  });
  env.RunUntilFlag(done, 3600);
  EXPECT_TRUE(done);
  return status;
}

std::unique_ptr<Environment> MakeEnv(std::size_t peers) {
  EnvironmentOptions eo;
  eo.num_peers = peers;
  return std::move(Environment::Create(eo)).value();
}

TEST(CentralizedTest, TrainsAndPredictsFromAnyPeer) {
  auto env = MakeEnv(8);
  CentralizedClassifier algo(env->sim(), env->net());
  ASSERT_TRUE(TrainSync(*env, algo, MakePeerData(8, 10, 1), 3).ok());
  for (NodeId r = 0; r < 8; ++r) {
    P2PPrediction p = PredictSync(*env, algo, r, TagVector(1));
    ASSERT_TRUE(p.success) << r;
    EXPECT_EQ(p.tags, (std::vector<TagId>{1}));
  }
}

TEST(CentralizedTest, ShipsRawDataToCoordinator) {
  auto env = MakeEnv(8);
  CentralizedClassifier algo(env->sim(), env->net());
  ASSERT_TRUE(TrainSync(*env, algo, MakePeerData(8, 10, 2), 3).ok());
  EXPECT_GT(env->net().stats().bytes_sent(MessageType::kDataTransfer), 0u);
}

TEST(CentralizedTest, CoordinatorIsSinglePointOfFailure) {
  auto env = MakeEnv(8);
  CentralizedClassifier algo(env->sim(), env->net());
  ASSERT_TRUE(TrainSync(*env, algo, MakePeerData(8, 10, 3), 3).ok());
  ASSERT_TRUE(PredictSync(*env, algo, 1, TagVector(0)).success);
  env->net().SetOnline(CentralizedClassifier::kCoordinator, false);
  EXPECT_FALSE(PredictSync(*env, algo, 1, TagVector(0)).success);
}

TEST(LocalOnlyTest, ZeroCommunication) {
  auto env = MakeEnv(6);
  env->net().stats().Reset();  // discard overlay bootstrap traffic
  LocalOnlyClassifier algo(env->sim(), env->net());
  ASSERT_TRUE(TrainSync(*env, algo, MakePeerData(6, 9, 5), 3).ok());
  EXPECT_EQ(env->net().stats().messages_sent(), 0u);
  P2PPrediction p = PredictSync(*env, algo, 2, TagVector(0));
  EXPECT_TRUE(p.success);
  EXPECT_EQ(env->net().stats().messages_sent(), 0u);
}

TEST(LocalOnlyTest, PeerWithoutModelFails) {
  auto env = MakeEnv(4);
  LocalOnlyClassifier algo(env->sim(), env->net());
  std::vector<MultiLabelDataset> data = MakePeerData(4, 6, 6);
  data[1] = MultiLabelDataset(3);
  ASSERT_TRUE(TrainSync(*env, algo, std::move(data), 3).ok());
  EXPECT_FALSE(PredictSync(*env, algo, 1, TagVector(0)).success);
  EXPECT_TRUE(PredictSync(*env, algo, 0, TagVector(0)).success);
}

TEST(LocalOnlyTest, MissesTagsThePeerNeverSaw) {
  auto env = MakeEnv(3);
  LocalOnlyClassifier algo(env->sim(), env->net());
  // Peer 0 only ever sees tag 0.
  std::vector<MultiLabelDataset> peers(3, MultiLabelDataset(3));
  Rng rng(9);
  for (int i = 0; i < 10; ++i) {
    MultiLabelExample ex;
    ex.x = SparseVector::FromPairs(
        {{static_cast<uint32_t>(rng.NextU64(2)), 1.0}});
    ex.tags = {0};
    peers[0].Add(ex);
    MultiLabelExample other;
    other.x = SparseVector::FromPairs(
        {{2 + static_cast<uint32_t>(rng.NextU64(2)), 1.0}});
    other.tags = {1};
    peers[1].Add(other);
    peers[2].Add(other);
  }
  ASSERT_TRUE(TrainSync(*env, algo, std::move(peers), 3).ok());
  P2PPrediction p = PredictSync(*env, algo, 0, TagVector(1));
  ASSERT_TRUE(p.success);
  // Peer 0 cannot produce tag 1 — the collaboration gap the paper targets.
  EXPECT_EQ(p.tags, (std::vector<TagId>{0}));
}

TEST(ModelAvgTest, TrainsViaBroadcastAndPredictsLocally) {
  auto env = MakeEnv(8);
  ModelAveragingClassifier algo(env->sim(), env->net(), env->overlay());
  ASSERT_TRUE(TrainSync(*env, algo, MakePeerData(8, 10, 7), 3).ok());
  EXPECT_GT(
      env->net().stats().messages_sent(MessageType::kModelBroadcast), 0u);
  uint64_t before = env->net().stats().messages_sent();
  P2PPrediction p = PredictSync(*env, algo, 5, TagVector(2));
  ASSERT_TRUE(p.success);
  EXPECT_EQ(p.tags, (std::vector<TagId>{2}));
  EXPECT_EQ(env->net().stats().messages_sent(), before);
}

TEST(ModelAvgTest, AveragingBeatsLonePeer) {
  auto env = MakeEnv(6);
  ModelAveragingClassifier algo(env->sim(), env->net(), env->overlay());
  ASSERT_TRUE(TrainSync(*env, algo, MakePeerData(6, 6, 8), 3).ok());
  // Every peer, even one whose local data misses a tag, can now tag it.
  for (TagId t = 0; t < 3; ++t) {
    P2PPrediction p = PredictSync(*env, algo, 0, TagVector(t));
    ASSERT_TRUE(p.success);
    EXPECT_EQ(p.tags, (std::vector<TagId>{t}));
  }
}

}  // namespace
}  // namespace p2pdt
