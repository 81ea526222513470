// Output checks. Each one is computed by the benchmark from what the program
// returned — routes, trees, per-message records — and never reuses the
// program's own validators (src/check), so a fault shared by the program
// and its validator still shows. Each returns an empty string when the
// output holds, otherwise a one-line reason.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/flat_set.hpp"
#include "overlay/overlay.hpp"
#include "overlay/routing.hpp"
#include "overlay/system.hpp"
#include "overlay/tree.hpp"

namespace perfbench {

using sel::overlay::PeerId;

/// `path` starts at `src`, ends at `dst`, and each step moves to a peer in
/// `ov.neighbors()` of the previous one.
[[nodiscard]] std::string check_route_walk(const sel::overlay::Overlay& ov,
                                           PeerId src, PeerId dst,
                                           const std::vector<PeerId>& path);

/// Hop count of a shortest path over `ov.neighbors()`; SIZE_MAX when `dst`
/// cannot be reached.
[[nodiscard]] std::size_t bfs_distance(const sel::overlay::Overlay& ov,
                                       PeerId src, PeerId dst);

/// A routed lookup can never be shorter than the BFS distance over the
/// overlay's own links.
[[nodiscard]] std::string check_route_not_shorter_than_bfs(
    const sel::overlay::Overlay& ov, PeerId src, PeerId dst,
    std::size_t hops);

/// Every joined peer keeps at most `k` outgoing and `k` incoming long links
/// (SELECT's budget and its incoming cap).
[[nodiscard]] std::string check_long_link_degrees(
    const sel::overlay::RingSubstrate& ring, std::size_t k);

/// The tree is rooted at `publisher`, every parent chain reaches the root
/// without revisiting a node, and every parent-child pair is an overlay
/// link. (Whether it holds every subscriber decides whether the tree
/// operation failed; the workloads count that.)
[[nodiscard]] std::string check_tree(const sel::overlay::Overlay& ov,
                                     const sel::overlay::DisseminationTree& tree,
                                     PeerId publisher);

/// Fig. 2 shape: "select" has strictly fewer mean hops than every other
/// system in `mean_hops`.
[[nodiscard]] std::string check_select_fewest_hops(
    const std::map<std::string, double>& mean_hops);

/// Forwards by non-subscribers when `tree` carries one message: tree nodes
/// other than the root that have children and are not subscribers.
[[nodiscard]] std::size_t relay_forwards(
    const sel::overlay::DisseminationTree& tree,
    const sel::FlatSet<PeerId>& subscribers);

/// What the benchmark expects of one message from a publisher, derived from
/// `build_tree()` and the closed-form latency on the same overlay.
struct PublisherExpectation {
  std::size_t subscribers = 0;
  std::size_t relay_forwards = 0;
  double latency_s = 0.0;
};

/// One message of the perfect transfer plane, read back from its record.
struct SteadyMessage {
  PeerId publisher = sel::overlay::kInvalidPeer;
  std::size_t wanted = 0;
  std::size_t delivered = 0;
  std::optional<double> completion_s;  ///< completed_at - publish time
};

/// Totals the engine reports for the same run (EngineStats).
struct SteadyTotals {
  std::size_t deliveries = 0;
  std::size_t relay_forwards = 0;
};

/// notify_steady: every message reached every wanted subscriber, wanted is
/// the publisher's full subscriber set, the engine's delivery and
/// relay-forward totals match what the messages and the trees imply, and
/// the completion latency of every `latency_stride`-th message equals the
/// closed form within 1e-9 relative.
[[nodiscard]] std::string check_steady(
    const std::vector<SteadyMessage>& messages, const SteadyTotals& totals,
    const std::map<PeerId, PublisherExpectation>& expected,
    std::size_t latency_stride);

/// One message of the churn run after the final replay.
struct ChurnMessage {
  PeerId publisher = sel::overlay::kInvalidPeer;
  std::vector<PeerId> delivered_to;  ///< ascending
};

/// churn_reliable: every message's `delivered_to` is exactly its
/// publisher's subscriber set, and no replay is pending.
[[nodiscard]] std::string check_churn(const sel::overlay::PubSubSystem& sys,
                                      const std::vector<ChurnMessage>& messages,
                                      std::size_t pending_replays);

}  // namespace perfbench
