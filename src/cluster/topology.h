// Physical cluster topology: racks of nodes behind top-of-rack switches.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/types.h"

namespace car::cluster {

/// Immutable description of a CFS: how many nodes live in each rack.
/// Node ids are assigned rack-by-rack: rack 0 holds nodes [0, n0), rack 1
/// holds [n0, n0+n1), and so on.
class Topology {
 public:
  /// Requires at least one rack and at least one node per rack.
  explicit Topology(std::vector<std::size_t> nodes_per_rack);

  [[nodiscard]] std::size_t num_racks() const noexcept {
    return nodes_per_rack_.size();
  }
  [[nodiscard]] std::size_t num_nodes() const noexcept { return total_nodes_; }
  [[nodiscard]] std::size_t nodes_in_rack_count(RackId rack) const;

  /// Rack that hosts `node`; throws std::out_of_range for bad ids.
  [[nodiscard]] RackId rack_of(NodeId node) const {
    if (node >= total_nodes_) {
      throw std::out_of_range("Topology::rack_of: bad node id");
    }
    return rack_by_node_[node];
  }

  /// Global node-id range [first, last) of a rack.
  [[nodiscard]] std::pair<NodeId, NodeId> rack_range(RackId rack) const;

  /// All node ids in a rack, ascending.
  [[nodiscard]] std::vector<NodeId> nodes_in_rack(RackId rack) const;

  [[nodiscard]] const std::vector<std::size_t>& nodes_per_rack() const noexcept {
    return nodes_per_rack_;
  }

  /// "{4,3,3}" style description for logs and table headers.
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Topology&, const Topology&) = default;

 private:
  std::vector<std::size_t> nodes_per_rack_;
  std::vector<NodeId> rack_first_node_;  // prefix sums; size num_racks()+1
  std::vector<RackId> rack_by_node_;     // direct node -> rack lookup
  std::size_t total_nodes_ = 0;
};

}  // namespace car::cluster
