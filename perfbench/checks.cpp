#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <unordered_map>

namespace perfbench {

namespace {

std::string pair_name(PeerId a, PeerId b) {
  return std::to_string(a) + "->" + std::to_string(b);
}

bool is_neighbor(const sel::overlay::Overlay& ov, PeerId a, PeerId b) {
  const auto nbrs = ov.neighbors(a);
  return std::find(nbrs.begin(), nbrs.end(), b) != nbrs.end();
}

}  // namespace

std::string check_route_walk(const sel::overlay::Overlay& ov, PeerId src,
                             PeerId dst, const std::vector<PeerId>& path) {
  if (path.empty() || path.front() != src || path.back() != dst) {
    return "route " + pair_name(src, dst) + " does not join its endpoints";
  }
  for (std::size_t i = 1; i < path.size(); ++i) {
    if (!is_neighbor(ov, path[i - 1], path[i])) {
      return "route " + pair_name(src, dst) + " steps over non-link " +
             pair_name(path[i - 1], path[i]);
    }
  }
  return {};
}

std::size_t bfs_distance(const sel::overlay::Overlay& ov, PeerId src,
                         PeerId dst) {
  std::unordered_map<PeerId, std::size_t> dist{{src, 0}};
  std::deque<PeerId> frontier{src};
  while (!frontier.empty()) {
    const PeerId p = frontier.front();
    frontier.pop_front();
    const std::size_t d = dist.at(p);
    if (p == dst) return d;
    for (const PeerId q : ov.neighbors(p)) {
      if (dist.emplace(q, d + 1).second) frontier.push_back(q);
    }
  }
  return std::numeric_limits<std::size_t>::max();
}

std::string check_route_not_shorter_than_bfs(const sel::overlay::Overlay& ov,
                                             PeerId src, PeerId dst,
                                             std::size_t hops) {
  const std::size_t bfs = bfs_distance(ov, src, dst);
  if (hops < bfs) {
    return "route " + pair_name(src, dst) + " took " + std::to_string(hops) +
           " hops, below the BFS distance " + std::to_string(bfs);
  }
  return {};
}

std::string check_long_link_degrees(const sel::overlay::RingSubstrate& ring,
                                    std::size_t k) {
  for (PeerId p = 0; p < ring.num_peers(); ++p) {
    if (ring.out_degree(p) > k || ring.in_degree(p) > k) {
      return "peer " + std::to_string(p) + " has " +
             std::to_string(ring.out_degree(p)) + " out / " +
             std::to_string(ring.in_degree(p)) + " in long links, k = " +
             std::to_string(k);
    }
  }
  return {};
}

std::string check_tree(const sel::overlay::Overlay& ov,
                       const sel::overlay::DisseminationTree& tree,
                       PeerId publisher) {
  const std::string who = "tree of " + std::to_string(publisher);
  if (tree.root() != publisher) {
    return who + " is rooted at " + std::to_string(tree.root());
  }
  for (const PeerId node : tree.nodes()) {
    if (node == tree.root()) continue;
    // A parent chain longer than the tree's node count revisits a node.
    PeerId up = node;
    for (std::size_t steps = 0; up != tree.root(); ++steps) {
      if (steps > tree.node_count()) return who + " has a cycle";
      const PeerId parent = tree.parent(up);
      if (parent == sel::overlay::kInvalidPeer) {
        return who + " has node " + std::to_string(up) + " without a parent";
      }
      up = parent;
    }
    if (!is_neighbor(ov, tree.parent(node), node)) {
      return who + " uses non-link " + pair_name(tree.parent(node), node);
    }
  }
  return {};
}

std::string check_select_fewest_hops(
    const std::map<std::string, double>& mean_hops) {
  const double select = mean_hops.at("select");
  for (const auto& [name, hops] : mean_hops) {
    if (name != "select" && !(select < hops)) {
      return "select mean hops " + std::to_string(select) + " not below " +
             name + "'s " + std::to_string(hops);
    }
  }
  return {};
}

std::size_t relay_forwards(const sel::overlay::DisseminationTree& tree,
                           const sel::FlatSet<PeerId>& subscribers) {
  std::size_t relays = 0;
  for (const PeerId node : tree.nodes()) {
    if (node != tree.root() && !subscribers.contains(node) &&
        !tree.children(node).empty()) {
      ++relays;
    }
  }
  return relays;
}

std::string check_steady(const std::vector<SteadyMessage>& messages,
                         const SteadyTotals& totals,
                         const std::map<PeerId, PublisherExpectation>& expected,
                         std::size_t latency_stride) {
  std::size_t delivered = 0;
  std::size_t relays = 0;
  for (std::size_t i = 0; i < messages.size(); ++i) {
    const SteadyMessage& m = messages[i];
    const std::string who = "message " + std::to_string(i) + " from " +
                            std::to_string(m.publisher);
    const auto it = expected.find(m.publisher);
    if (it == expected.end()) return who + ": publisher not in the stream";
    const PublisherExpectation& e = it->second;
    if (m.wanted != e.subscribers) {
      return who + " wanted " + std::to_string(m.wanted) + " of " +
             std::to_string(e.subscribers) + " subscribers";
    }
    if (m.delivered != m.wanted) {
      return who + " delivered " + std::to_string(m.delivered) + " of " +
             std::to_string(m.wanted);
    }
    delivered += m.delivered;
    relays += e.relay_forwards;
    if (i % latency_stride == 0) {
      if (!m.completion_s.has_value()) return who + " never completed";
      const double err = std::abs(*m.completion_s - e.latency_s);
      if (err > 1e-9 * std::max(e.latency_s, 1e-12)) {
        return who + " completed in " + std::to_string(*m.completion_s) +
               " s, closed form " + std::to_string(e.latency_s) + " s";
      }
    }
  }
  if (delivered != totals.deliveries) {
    return "records hold " + std::to_string(delivered) +
           " deliveries, engine stats " + std::to_string(totals.deliveries);
  }
  if (relays != totals.relay_forwards) {
    return "trees imply " + std::to_string(relays) +
           " relay forwards, engine counted " +
           std::to_string(totals.relay_forwards);
  }
  return {};
}

std::string check_churn(const sel::overlay::PubSubSystem& sys,
                        const std::vector<ChurnMessage>& messages,
                        std::size_t pending_replays) {
  if (pending_replays != 0) {
    return std::to_string(pending_replays) + " replays still pending";
  }
  for (std::size_t i = 0; i < messages.size(); ++i) {
    const ChurnMessage& m = messages[i];
    const sel::FlatSet<PeerId> subs = sys.subscribers_of(m.publisher);
    if (!std::equal(subs.begin(), subs.end(), m.delivered_to.begin(),
                    m.delivered_to.end())) {
      return "message " + std::to_string(i) + " from " +
             std::to_string(m.publisher) + " reached " +
             std::to_string(m.delivered_to.size()) + " peers, not its " +
             std::to_string(subs.size()) + " subscribers";
    }
  }
  return {};
}

}  // namespace perfbench
