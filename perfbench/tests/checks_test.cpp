// Every output check of the benchmark passes on the program's real outputs
// and fails on a seeded corruption of them: a dropped delivery, a wrong
// publisher, a non-link tree edge, a shortcut route, an over-budget peer.
#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/factory.hpp"
#include "checks.hpp"
#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "graph/profiles.hpp"
#include "net/network_model.hpp"
#include "pubsub/engine.hpp"
#include "pubsub/metrics.hpp"
#include "select/protocol.hpp"

namespace perfbench {
namespace {

using sel::overlay::DisseminationTree;
using sel::overlay::PubSubSystem;

constexpr std::size_t kPeers = 200;

class ChecksTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = sel::graph::make_dataset_graph(
        sel::graph::profile_by_name("facebook"), kPeers, 11);
    net_.emplace(kPeers, 12);
    select_ = sel::baselines::make_system("select", graph_,
                                          {.seed = 13, .net = &*net_});
    select_->build();
  }

  /// A peer that is neither `p` nor one of its overlay neighbours.
  [[nodiscard]] PeerId non_neighbor(PeerId p) const {
    const auto nbrs = select_->overlay().neighbors(p);
    for (PeerId q = 0; q < kPeers; ++q) {
      if (q != p && std::find(nbrs.begin(), nbrs.end(), q) == nbrs.end()) {
        return q;
      }
    }
    ADD_FAILURE() << "peer " << p << " is linked to everyone";
    return p;
  }

  sel::graph::SocialGraph graph_;
  std::optional<sel::net::NetworkModel> net_;
  std::unique_ptr<PubSubSystem> select_;
};

TEST_F(ChecksTest, RouteWalkFailsOnNonLinkStepAndWrongEnd) {
  const PeerId src = 3;
  const PeerId dst = graph_.neighbors(src).front();
  const auto route = select_->route(src, dst);
  ASSERT_TRUE(route.success);
  EXPECT_EQ(check_route_walk(select_->overlay(), src, dst, route.path), "");

  auto jump = route.path;
  jump.insert(jump.begin() + 1, non_neighbor(src));
  EXPECT_NE(check_route_walk(select_->overlay(), src, dst, jump), "");
  EXPECT_NE(check_route_walk(select_->overlay(), src, src + 1, route.path), "");
}

TEST_F(ChecksTest, RouteBelowBfsDistanceFails) {
  const PeerId src = 5;
  const PeerId far = non_neighbor(src);
  const std::size_t bfs = bfs_distance(select_->overlay(), src, far);
  ASSERT_GE(bfs, 2u);
  const auto route = select_->route(src, far);
  ASSERT_TRUE(route.success);
  EXPECT_EQ(check_route_not_shorter_than_bfs(select_->overlay(), src, far,
                                             route.hops()),
            "");
  EXPECT_NE(check_route_not_shorter_than_bfs(select_->overlay(), src, far,
                                             bfs - 1),
            "");
}

TEST_F(ChecksTest, LongLinkBudgetFailsWhenAPeerExceedsK) {
  const auto& s = dynamic_cast<const sel::core::SelectSystem&>(
      select_->overlay());
  EXPECT_EQ(check_long_link_degrees(s.overlay(), s.k()), "");

  sel::overlay::RingSubstrate over_budget = s.overlay();
  const PeerId p = 7;
  for (PeerId q = 0; q < kPeers && over_budget.out_degree(p) <= s.k(); ++q) {
    (void)over_budget.add_long_link(p, q);
  }
  EXPECT_NE(check_long_link_degrees(over_budget, s.k()), "");
}

TEST_F(ChecksTest, TreeFailsOnNonLinkEdgeAndWrongPublisher) {
  const PeerId pub = 9;
  DisseminationTree tree = select_->build_tree(pub);
  EXPECT_EQ(check_tree(select_->overlay(), tree, pub), "");
  EXPECT_NE(check_tree(select_->overlay(), tree, pub + 1), "");

  PeerId stranger = non_neighbor(pub);
  for (PeerId q = 0; q < kPeers && tree.contains(stranger); ++q) {
    stranger = q;
  }
  ASSERT_FALSE(tree.contains(stranger));
  const auto nbrs = select_->overlay().neighbors(pub);
  if (std::find(nbrs.begin(), nbrs.end(), stranger) != nbrs.end()) {
    GTEST_SKIP() << "every peer outside the tree neighbours the publisher";
  }
  tree.add_child(pub, stranger);
  EXPECT_NE(check_tree(select_->overlay(), tree, pub), "");
}

TEST(Fig2Shape, FailsWhenABaselineRoutesInFewerHops) {
  EXPECT_EQ(check_select_fewest_hops({{"select", 1.6}, {"vitis", 4.3}}), "");
  EXPECT_NE(check_select_fewest_hops({{"select", 1.6}, {"bayeux", 1.5}}), "");
}

/// A short perfect-plane stream through the engine, read back the way the
/// notify_steady workload reads it.
TEST_F(ChecksTest, SteadyCheckFailsOnDroppedDeliveryWrongPublisherAndLatency) {
  sel::pubsub::NotificationEngine engine(*select_, *net_);
  std::map<PeerId, PublisherExpectation> expected;
  std::vector<sel::pubsub::MessageId> ids;
  for (PeerId p = 0; p < 40; ++p) {
    const auto subs = select_->subscribers_of(p);
    const auto tree = select_->build_tree(p);
    expected[p] = {subs.size(), relay_forwards(tree, subs),
                   sel::pubsub::measure_latency(*select_, *net_, {p})
                       .per_tree_s.mean()};
    ids.push_back(engine.publish(p, 0.5 * p));
  }
  engine.run_all();
  std::vector<SteadyMessage> messages;
  for (const auto id : ids) {
    const auto& rec = engine.record(id);
    messages.push_back({rec.publisher, rec.wanted, rec.delivered,
                        *rec.completed_at_s - rec.publish_time_s});
  }
  const SteadyTotals totals{engine.stats().deliveries,
                            engine.stats().relay_forwards};
  ASSERT_EQ(check_steady(messages, totals, expected, 1), "");

  auto dropped = messages;
  --dropped[3].delivered;
  EXPECT_NE(check_steady(dropped, totals, expected, 1), "");

  auto fewer = totals;
  --fewer.deliveries;
  EXPECT_NE(check_steady(messages, fewer, expected, 1), "");

  // Another publisher with a different subscriber count.
  auto wrong = messages;
  for (PeerId p = 0; p < 40; ++p) {
    if (expected[p].subscribers != expected[wrong[0].publisher].subscribers) {
      wrong[0].publisher = p;
      break;
    }
  }
  ASSERT_NE(wrong[0].publisher, messages[0].publisher);
  EXPECT_NE(check_steady(wrong, totals, expected, 1), "");

  auto slow = messages;
  *slow[5].completion_s *= 1.0 + 1e-7;
  EXPECT_NE(check_steady(slow, totals, expected, 1), "");
}

/// The reliable plane under drops and duplicates, all peers online: every
/// message must end with exactly its subscriber set.
TEST_F(ChecksTest, ChurnCheckFailsOnDroppedDeliveryWrongPublisherAndPending) {
  sel::fault::FaultPlan plan(sel::fault::FaultSpec::parse("drop=0.05,dup=0.01"),
                             14, kPeers);
  sel::pubsub::NotificationEngine engine(*select_, *net_);
  engine.set_fault_plan(&plan);
  sel::pubsub::RetryPolicy policy;
  policy.enabled = true;
  engine.set_retry_policy(policy);
  std::vector<sel::pubsub::MessageId> ids;
  for (PeerId p = 0; p < 40; ++p) ids.push_back(engine.publish(p, 0.5 * p));
  engine.run_all();
  for (PeerId p = 0; p < kPeers; ++p) engine.replay_missed(p, engine.now_s());
  std::vector<ChurnMessage> messages;
  for (const auto id : ids) {
    const auto& rec = engine.record(id);
    ChurnMessage m{rec.publisher, {rec.delivered_to.begin(), rec.delivered_to.end()}};
    std::sort(m.delivered_to.begin(), m.delivered_to.end());
    messages.push_back(std::move(m));
  }
  ASSERT_EQ(check_churn(*select_, messages, engine.pending_replays()), "");

  auto dropped = messages;
  dropped[2].delivered_to.pop_back();
  EXPECT_NE(check_churn(*select_, dropped, 0), "");

  auto wrong = messages;
  wrong[4].publisher = wrong[5].publisher;
  EXPECT_NE(check_churn(*select_, wrong, 0), "");

  EXPECT_NE(check_churn(*select_, messages, 1), "");
}

}  // namespace
}  // namespace perfbench
