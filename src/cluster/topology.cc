#include "cluster/topology.h"

#include <stdexcept>
#include <utility>

#include "util/check.h"

namespace car::cluster {

Topology::Topology(std::vector<std::size_t> nodes_per_rack)
    : nodes_per_rack_(std::move(nodes_per_rack)) {
  CAR_CHECK(!nodes_per_rack_.empty(), "Topology: at least one rack required");
  rack_first_node_.reserve(nodes_per_rack_.size() + 1);
  rack_first_node_.push_back(0);
  for (std::size_t n : nodes_per_rack_) {
    CAR_CHECK(n > 0, "Topology: racks must be non-empty");
    total_nodes_ += n;
    rack_first_node_.push_back(total_nodes_);
  }
  rack_by_node_.reserve(total_nodes_);
  for (RackId rack = 0; rack < nodes_per_rack_.size(); ++rack) {
    rack_by_node_.insert(rack_by_node_.end(), nodes_per_rack_[rack], rack);
  }
}

std::size_t Topology::nodes_in_rack_count(RackId rack) const {
  if (rack >= num_racks()) {
    throw std::out_of_range("Topology::nodes_in_rack_count: bad rack id");
  }
  return nodes_per_rack_[rack];
}

std::pair<NodeId, NodeId> Topology::rack_range(RackId rack) const {
  if (rack >= num_racks()) {
    throw std::out_of_range("Topology::rack_range: bad rack id");
  }
  return {rack_first_node_[rack], rack_first_node_[rack + 1]};
}

std::vector<NodeId> Topology::nodes_in_rack(RackId rack) const {
  const auto [first, last] = rack_range(rack);
  std::vector<NodeId> out;
  out.reserve(last - first);
  for (NodeId n = first; n < last; ++n) out.push_back(n);
  return out;
}

std::string Topology::to_string() const {
  std::string out = "{";
  for (std::size_t i = 0; i < nodes_per_rack_.size(); ++i) {
    if (i) out += ',';
    out += std::to_string(nodes_per_rack_[i]);
  }
  out += '}';
  return out;
}

}  // namespace car::cluster
