#include "core/tag_cloud.h"

#include <algorithm>

#include <gtest/gtest.h>

namespace p2pdt {
namespace {

Document Doc(DocId id, std::vector<std::string> tags) {
  Document d;
  d.id = id;
  for (auto& t : tags) d.tags.push_back({t, TagSource::kManual, 1.0});
  return d;
}

// Two dense tag groups joined only through "navigation" — the exact
// structure of the paper's Fig. 4.
TagLibrary Fig4Library() {
  TagLibrary lib;
  DocId id = 0;
  // Cluster 1: {css, html, design} fully interlinked.
  lib.Index(Doc(id++, {"css", "html"}));
  lib.Index(Doc(id++, {"css", "design"}));
  lib.Index(Doc(id++, {"html", "design"}));
  // Cluster 2: {maps, gps, travel} fully interlinked.
  lib.Index(Doc(id++, {"maps", "gps"}));
  lib.Index(Doc(id++, {"maps", "travel"}));
  lib.Index(Doc(id++, {"gps", "travel"}));
  // The bridge: navigation co-occurs with one tag from each cluster.
  lib.Index(Doc(id++, {"navigation", "design"}));
  lib.Index(Doc(id++, {"navigation", "maps"}));
  return lib;
}

TEST(TagCloudTest, NodesAlphabeticalWithCounts) {
  TagLibrary lib;
  lib.Index(Doc(0, {"zeta", "alpha"}));
  lib.Index(Doc(1, {"alpha"}));
  TagCloud cloud = TagCloud::Build(lib);
  ASSERT_EQ(cloud.nodes().size(), 2u);
  EXPECT_EQ(cloud.nodes()[0].tag, "alpha");
  EXPECT_EQ(cloud.nodes()[0].count, 2u);
  EXPECT_EQ(cloud.nodes()[1].tag, "zeta");
}

TEST(TagCloudTest, FontScaleGrowsWithUsage) {
  TagLibrary lib;
  for (DocId i = 0; i < 20; ++i) lib.Index(Doc(i, {"huge"}));
  lib.Index(Doc(100, {"tiny", "huge"}));
  TagCloud cloud = TagCloud::Build(lib);
  const auto& nodes = cloud.nodes();
  double huge_scale = 0, tiny_scale = 0;
  for (const auto& n : nodes) {
    if (n.tag == "huge") huge_scale = n.font_scale;
    if (n.tag == "tiny") tiny_scale = n.font_scale;
  }
  EXPECT_GT(huge_scale, tiny_scale);
  EXPECT_LE(huge_scale, 3.0 + 1e-9);
  EXPECT_GE(tiny_scale, 1.0);
}

TEST(TagCloudTest, EdgesCarryCoOccurrenceWeights) {
  TagLibrary lib;
  lib.Index(Doc(0, {"a", "b"}));
  lib.Index(Doc(1, {"a", "b"}));
  lib.Index(Doc(2, {"a", "c"}));
  TagCloud cloud = TagCloud::Build(lib);
  ASSERT_EQ(cloud.edges().size(), 2u);  // a-b (2), a-c (1); no b-c edge
  for (const auto& e : cloud.edges()) {
    const std::string& ta = cloud.nodes()[e.a].tag;
    const std::string& tb = cloud.nodes()[e.b].tag;
    if ((ta == "a" && tb == "b") || (ta == "b" && tb == "a")) {
      EXPECT_EQ(e.weight, 2u);
    } else {
      EXPECT_EQ(e.weight, 1u);
    }
  }
}

TEST(TagCloudTest, DisconnectedTagsFormClusters) {
  TagLibrary lib;
  lib.Index(Doc(0, {"a", "b"}));
  lib.Index(Doc(1, {"x", "y"}));
  lib.Index(Doc(2, {"solo"}));
  TagCloud cloud = TagCloud::Build(lib);
  EXPECT_EQ(cloud.num_clusters(), 3u);
  // Tags in the same doc share a cluster id.
  std::size_t ca = 0, cb = 0, cx = 0;
  for (const auto& n : cloud.nodes()) {
    if (n.tag == "a") ca = n.cluster;
    if (n.tag == "b") cb = n.cluster;
    if (n.tag == "x") cx = n.cluster;
  }
  EXPECT_EQ(ca, cb);
  EXPECT_NE(ca, cx);
}

TEST(TagCloudTest, Fig4BridgeDetected) {
  TagCloud cloud = TagCloud::Build(Fig4Library());
  // One connected component (the bridge joins the clusters)...
  EXPECT_EQ(cloud.num_clusters(), 1u);
  // ...and "navigation" is the articulation point between them.
  std::vector<std::string> bridges = cloud.BridgeTags();
  EXPECT_NE(std::find(bridges.begin(), bridges.end(), "navigation"),
            bridges.end());
  // Tags strictly inside a triangle are never articulation points.
  EXPECT_EQ(std::find(bridges.begin(), bridges.end(), "css"), bridges.end());
  EXPECT_EQ(std::find(bridges.begin(), bridges.end(), "gps"), bridges.end());
}

TEST(TagCloudTest, ChainHasInteriorBridges) {
  TagLibrary lib;
  lib.Index(Doc(0, {"a", "b"}));
  lib.Index(Doc(1, {"b", "c"}));
  lib.Index(Doc(2, {"c", "d"}));
  TagCloud cloud = TagCloud::Build(lib);
  std::vector<std::string> bridges = cloud.BridgeTags();
  EXPECT_EQ(bridges, (std::vector<std::string>{"b", "c"}));
}

TEST(TagCloudTest, EmptyLibrary) {
  TagLibrary lib;
  TagCloud cloud = TagCloud::Build(lib);
  EXPECT_TRUE(cloud.nodes().empty());
  EXPECT_TRUE(cloud.edges().empty());
  EXPECT_EQ(cloud.num_clusters(), 0u);
  EXPECT_TRUE(cloud.BridgeTags().empty());
}

TEST(TagCloudTest, DotOutputWellFormed) {
  TagCloud cloud = TagCloud::Build(Fig4Library());
  std::string dot = cloud.ToDot();
  EXPECT_NE(dot.find("graph tagcloud"), std::string::npos);
  EXPECT_NE(dot.find("navigation"), std::string::npos);
  EXPECT_NE(dot.find(" -- "), std::string::npos);
}

TEST(TagCloudTest, RenderListsEveryTag) {
  TagCloud cloud = TagCloud::Build(Fig4Library());
  std::string rendered = cloud.Render();
  for (const auto& n : cloud.nodes()) {
    EXPECT_NE(rendered.find(n.tag), std::string::npos) << n.tag;
  }
}

}  // namespace
}  // namespace p2pdt
