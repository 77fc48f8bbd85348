#include "core/tag_cloud.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>

namespace p2pdt {

TagCloud TagCloud::Build(const TagLibrary& library) {
  TagCloud cloud;
  auto counts = library.TagCounts();  // alphabetical
  cloud.nodes_.reserve(counts.size());
  std::size_t max_count = 1;
  for (const auto& [tag, count] : counts) {
    max_count = std::max(max_count, count);
  }
  for (const auto& [tag, count] : counts) {
    Node n;
    n.tag = tag;
    n.count = count;
    // Log-scaled font size: 1.0 for singletons up to kMaxFontScale.
    double t = std::log(1.0 + static_cast<double>(count)) /
               std::log(1.0 + static_cast<double>(max_count));
    n.font_scale = 1.0 + t * (kMaxFontScale - 1.0);
    cloud.nodes_.push_back(std::move(n));
  }

  cloud.adjacency_.resize(cloud.nodes_.size());
  for (std::size_t i = 0; i < cloud.nodes_.size(); ++i) {
    for (std::size_t j = i + 1; j < cloud.nodes_.size(); ++j) {
      std::size_t w =
          library.CoOccurrence(cloud.nodes_[i].tag, cloud.nodes_[j].tag);
      if (w > 0) {
        cloud.adjacency_[i].push_back(cloud.edges_.size());
        cloud.adjacency_[j].push_back(cloud.edges_.size());
        cloud.edges_.push_back(Edge{i, j, w});
      }
    }
  }

  // Connected components = clusters.
  std::vector<std::size_t> cluster(cloud.nodes_.size(),
                                   static_cast<std::size_t>(-1));
  std::size_t next_cluster = 0;
  for (std::size_t start = 0; start < cloud.nodes_.size(); ++start) {
    if (cluster[start] != static_cast<std::size_t>(-1)) continue;
    std::vector<std::size_t> stack{start};
    cluster[start] = next_cluster;
    while (!stack.empty()) {
      std::size_t at = stack.back();
      stack.pop_back();
      for (std::size_t e : cloud.adjacency_[at]) {
        std::size_t other =
            cloud.edges_[e].a == at ? cloud.edges_[e].b : cloud.edges_[e].a;
        if (cluster[other] == static_cast<std::size_t>(-1)) {
          cluster[other] = next_cluster;
          stack.push_back(other);
        }
      }
    }
    ++next_cluster;
  }
  for (std::size_t i = 0; i < cloud.nodes_.size(); ++i) {
    cloud.nodes_[i].cluster = cluster[i];
  }
  cloud.num_clusters_ = next_cluster;
  return cloud;
}

std::vector<std::string> TagCloud::BridgeTags() const {
  // Tarjan articulation points (iterative-friendly recursive DFS; tag
  // graphs are small).
  const std::size_t n = nodes_.size();
  std::vector<int> disc(n, -1), low(n, 0);
  std::vector<bool> articulation(n, false);
  int timer = 0;

  std::function<void(std::size_t, std::size_t)> dfs =
      [&](std::size_t u, std::size_t parent) {
        disc[u] = low[u] = timer++;
        std::size_t children = 0;
        for (std::size_t e : adjacency_[u]) {
          std::size_t v = edges_[e].a == u ? edges_[e].b : edges_[e].a;
          if (v == parent) continue;
          if (disc[v] != -1) {
            low[u] = std::min(low[u], disc[v]);
            continue;
          }
          ++children;
          dfs(v, u);
          low[u] = std::min(low[u], low[v]);
          if (parent != static_cast<std::size_t>(-1) && low[v] >= disc[u]) {
            articulation[u] = true;
          }
        }
        if (parent == static_cast<std::size_t>(-1) && children > 1) {
          articulation[u] = true;
        }
      };

  for (std::size_t i = 0; i < n; ++i) {
    if (disc[i] == -1) dfs(i, static_cast<std::size_t>(-1));
  }

  std::vector<std::string> out;
  for (std::size_t i = 0; i < n; ++i) {
    if (articulation[i]) out.push_back(nodes_[i].tag);
  }
  return out;
}

std::string TagCloud::ToDot() const {
  std::string out = "graph tagcloud {\n  layout=fdp;\n";
  char buf[160];
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "  t%zu [label=\"%s\", fontsize=%.0f];\n", i,
                  nodes_[i].tag.c_str(), 10.0 * nodes_[i].font_scale);
    out += buf;
  }
  for (const Edge& e : edges_) {
    std::snprintf(buf, sizeof(buf), "  t%zu -- t%zu [penwidth=%.1f];\n", e.a,
                  e.b, 0.5 + 0.5 * static_cast<double>(e.weight));
    out += buf;
  }
  out += "}\n";
  return out;
}

std::string TagCloud::Render() const {
  std::string out;
  char buf[256];
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    // Strongest co-occurring neighbor, if any.
    std::size_t best_edge = static_cast<std::size_t>(-1);
    std::size_t best_w = 0;
    for (std::size_t e : adjacency_[i]) {
      if (edges_[e].weight > best_w) {
        best_w = edges_[e].weight;
        best_edge = e;
      }
    }
    std::string neighbor = "-";
    if (best_edge != static_cast<std::size_t>(-1)) {
      const Edge& e = edges_[best_edge];
      neighbor = nodes_[e.a == i ? e.b : e.a].tag;
    }
    int stars = static_cast<int>(std::lround(nodes_[i].font_scale));
    std::snprintf(buf, sizeof(buf), "%-18s %-4.*s count=%-5zu cluster=%zu "
                                    "strongest-link=%s\n",
                  nodes_[i].tag.c_str(), stars, "****", nodes_[i].count,
                  nodes_[i].cluster, neighbor.c_str());
    out += buf;
  }
  return out;
}

}  // namespace p2pdt
