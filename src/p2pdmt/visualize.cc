#include "p2pdmt/visualize.h"

#include <algorithm>
#include <cstdio>

#include "common/string_util.h"

namespace p2pdt {

namespace {

std::string NodeLabel(NodeId n) { return "n" + std::to_string(n); }

void EmitNode(std::string& out, NodeId n, bool online) {
  out += "  " + NodeLabel(n) + " [label=\"" + std::to_string(n) + "\"";
  if (!online) out += ", style=dashed, color=gray";
  out += "];\n";
}

}  // namespace

std::string UnstructuredToDot(const UnstructuredOverlay& overlay,
                              const PhysicalNetwork& net) {
  std::string out = "graph unstructured {\n  layout=neato;\n";
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    EmitNode(out, n, net.IsOnline(n));
  }
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    for (NodeId nb : overlay.Neighbors(n)) {
      if (n < nb) {  // undirected: emit each edge once
        out += "  " + NodeLabel(n) + " -- " + NodeLabel(nb) + ";\n";
      }
    }
  }
  out += "}\n";
  return out;
}

std::string ChordToDot(const ChordOverlay& overlay, const PhysicalNetwork& net,
                       std::size_t max_finger_edges_per_node) {
  std::string out = "digraph chord {\n  layout=circo;\n";
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    EmitNode(out, n, net.IsOnline(n));
  }
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    std::vector<NodeId> succ = overlay.SuccessorsOf(n);
    if (!succ.empty()) {
      out += "  " + NodeLabel(n) + " -> " + NodeLabel(succ.front()) +
             " [penwidth=2];\n";
    }
    std::vector<NodeId> fingers = overlay.FingersOf(n);
    std::size_t emitted = 0;
    for (NodeId f : fingers) {
      if (!succ.empty() && f == succ.front()) continue;
      if (emitted++ >= max_finger_edges_per_node) break;
      out += "  " + NodeLabel(n) + " -> " + NodeLabel(f) +
             " [style=dashed, color=gray, constraint=false];\n";
    }
  }
  out += "}\n";
  return out;
}

Status WriteDotFile(const std::string& dot, const std::string& path) {
  return WriteStringToFile(path, dot);
}

}  // namespace p2pdt
