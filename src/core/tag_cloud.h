#ifndef P2PDT_CORE_TAG_CLOUD_H_
#define P2PDT_CORE_TAG_CLOUD_H_

#include <string>
#include <vector>

#include "core/tag_library.h"

namespace p2pdt {

/// The Tag Cloud interface of the demo (Figs. 3–4): tags sized by usage,
/// with edges between tags that co-occur in documents. The paper points
/// out that the edge structure "captures higher level concepts", showing
/// "two clusters of highly interconnected tags bridged by the word
/// 'navigation'" — clusters and bridge tags are first-class here.
class TagCloud {
 public:
  /// Font scale assigned to the most-used tag (linear in log-count).
  static constexpr double kMaxFontScale = 3.0;

  struct Node {
    std::string tag;
    std::size_t count = 0;      // documents carrying the tag
    double font_scale = 1.0;    // 1.0 (rare) .. kMaxFontScale (top tag)
    std::size_t cluster = 0;    // connected-component id
  };
  struct Edge {
    std::size_t a = 0;  // node indexes
    std::size_t b = 0;
    std::size_t weight = 0;  // co-occurrence count
  };

  /// Builds the cloud from the library's current index.
  static TagCloud Build(const TagLibrary& library);

  /// Nodes in alphabetical order (the demo arranges suggestions
  /// alphabetically).
  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<Edge>& edges() const { return edges_; }

  std::size_t num_clusters() const { return num_clusters_; }

  /// Tags that bridge otherwise-separate groups: articulation points of
  /// the co-occurrence graph (removing one disconnects its component) —
  /// the "navigation" phenomenon of Fig. 4.
  std::vector<std::string> BridgeTags() const;

  /// Graphviz rendering (node size ~ font scale, edge width ~ weight).
  std::string ToDot() const;

  /// Terminal rendering: alphabetical list with font-size markers and
  /// strongest co-occurrence per tag.
  std::string Render() const;

 private:
  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
  std::vector<std::vector<std::size_t>> adjacency_;  // node -> edge idxs
  std::size_t num_clusters_ = 0;
};

}  // namespace p2pdt

#endif  // P2PDT_CORE_TAG_CLOUD_H_
