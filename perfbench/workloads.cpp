#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string_view>

#include "baselines/factory.hpp"
#include "checks.hpp"
#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "graph/profiles.hpp"
#include "net/network_model.hpp"
#include "pubsub/engine.hpp"
#include "pubsub/metrics.hpp"
#include "pubsub/multipath.hpp"
#include "select/protocol.hpp"
#include "sim/churn.hpp"
#include "sim/workload.hpp"

namespace perfbench {

namespace {

using sel::derive_seed;
using sel::overlay::DisseminationTree;
using sel::overlay::PubSubSystem;
using sel::overlay::RouteResult;

// -- inputs (README.md "Inputs" lists the same values) ------------------------

constexpr std::string_view kProfile = "facebook";

/// Users per graph on the message-plane workloads.
constexpr std::size_t kPeers = 500;

// overlay_build: each round builds all five systems on one of kInstances
// pre-generated graphs, in turn; a cycle visits every instance once. The
// first cycle's SELECT overlays also yield the simulated quality figures
// (hops, relays, latency). Construction time follows the gossip rounds a
// graph needs to converge, which vary widely from graph to graph, so the
// workload averages many small graphs: enough that two seeds cost about the
// same, small enough that a cycle is short and each build repeats several
// times in a run (see BestOf).
constexpr std::size_t kOverlayPeers = 125;
constexpr std::size_t kInstances = 24;
constexpr std::size_t kLookupsPerSystem = 500;
constexpr std::size_t kTreesPerSystem = 100;
constexpr std::size_t kBfsChecksPerSystem = 32;

// notify_steady and churn_reliable: each round runs one world, in turn; a
// world is one graph with its SELECT overlay and its post stream, and a
// cycle visits every world once.
constexpr std::size_t kWorlds = 8;

// notify_steady
constexpr double kHorizonS = 200.0;
constexpr double kSliceS = 10.0;
constexpr std::size_t kLatencyStride = 41;

// churn_reliable
constexpr std::size_t kEpochs = 4;
constexpr double kEpochS = 300.0;
constexpr double kChurnPostsPerHour = 0.25;
constexpr std::string_view kFaultMix = "drop=0.05,dup=0.01,spike=0.02";

/// Friend lookups per world behind `lookup_hops` on the message-plane
/// workloads.
constexpr std::size_t kHopLookups = 500;

// -- helpers -------------------------------------------------------------------

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Linear-interpolation quantile (numpy's default); 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double as_double(std::size_t v) { return static_cast<double>(v); }

/// Uniform (user, friend) pairs: the social lookups of Fig. 2.
std::vector<std::pair<PeerId, PeerId>> friend_pairs(
    const sel::graph::SocialGraph& g, std::size_t count, std::uint64_t seed) {
  sel::Rng rng(seed);
  std::vector<std::pair<PeerId, PeerId>> pairs;
  pairs.reserve(count);
  while (pairs.size() < count) {
    const auto u = static_cast<PeerId>(rng.below(g.num_nodes()));
    const auto nbrs = g.neighbors(u);
    if (nbrs.empty()) continue;
    pairs.emplace_back(u, nbrs[rng.below(nbrs.size())]);
  }
  return pairs;
}

/// Time-budgeted round loop over whole cycles of `cycle` rounds: it stops
/// only at the end of a cycle, once `seconds` have passed since
/// construction, so every run measures each instance or world equally
/// often. At least one cycle runs.
class RoundLoop {
 public:
  RoundLoop(double seconds, std::size_t cycle)
      : seconds_(seconds), cycle_(cycle), start_(Clock::now()) {}
  [[nodiscard]] bool more(std::size_t done) const {
    return done == 0 || done % cycle_ != 0 || seconds_since(start_) < seconds_;
  }

 private:
  double seconds_;
  std::size_t cycle_;
  Clock::time_point start_;
};

/// Best-of timing over a run's cycles. Every cycle repeats each unit of
/// work (an instance's system, a world), so a unit's fastest repetition is
/// its cost with the least interference from the rest of the machine;
/// `rate()` is Σ operations ÷ Σ seconds over each unit's fastest
/// repetition, one cycle's work at the best speed seen for each part.
class BestOf {
 public:
  explicit BestOf(std::size_t units) : best_(units) {}
  void add(std::size_t unit, double ops, double seconds) {
    Rep& b = best_.at(unit);
    if (b.seconds == 0.0 || ops * b.seconds > b.ops * seconds) b = {ops, seconds};
  }
  [[nodiscard]] double rate() const {
    double ops = 0.0;
    double seconds = 0.0;
    for (const Rep& b : best_) {
      ops += b.ops;
      seconds += b.seconds;
    }
    return ratio(ops, seconds);
  }

 private:
  struct Rep {
    double ops = 0.0;
    double seconds = 0.0;
  };
  std::vector<Rep> best_;
};

/// Span names must outlive the recorder's open spans; interning keeps one
/// stable string per composed name.
const char* span_name(const std::string& name) {
  static std::map<std::string, std::unique_ptr<std::string>> interned;
  auto& slot = interned[name];
  if (!slot) slot = std::make_unique<std::string>(name);
  return slot->c_str();
}

/// What one SELECT construction did, for the select.* layer metrics.
struct SelectBuildStats {
  std::size_t builds = 0;
  std::size_t rounds = 0;
  std::size_t link_changes = 0;
  std::uint64_t tie_hits = 0;
  std::uint64_t tie_misses = 0;
  double build_s = 0.0;
  std::size_t peers = 0;
};

sel::core::SelectSystem& as_select(PubSubSystem& sys) {
  return dynamic_cast<sel::core::SelectSystem&>(sys.overlay());
}

/// Builds a system to convergence; returns its construction rounds. Untraced
/// runs call build(). Traced SELECT builds run the same sequence —
/// join_all(), then run_round() until converged() or max_rounds — so each
/// gossip round gets its own span; the round count and topology are those
/// of build().
std::size_t build_system(PubSubSystem& sys, SpanRecorder& spans,
                         std::uint64_t op, SelectBuildStats* select) {
  const auto start = Clock::now();
  std::size_t rounds = 0;
  if (select == nullptr) {
    Span span(spans, span_name("baselines." + std::string(sys.name()) +
                               ".build"),
              op);
    sys.build();
    rounds = sys.build_iterations();
    return rounds;
  }
  auto& s = as_select(sys);
  {
    Span span(spans, "select.build", op);
    if (!spans.enabled()) {
      sys.build();
      rounds = sys.build_iterations();
    } else {
      {
        Span join(spans, "select.join", op);
        s.join_all();
      }
      while (rounds < s.params().max_rounds && !s.converged()) {
        Span round(spans, "select.round", op, Span::kFold);
        s.run_round();
        ++rounds;
        select->link_changes += s.last_round_link_changes();
      }
    }
  }
  select->build_s += seconds_since(start);
  select->peers += sys.num_peers();
  select->rounds += rounds;
  ++select->builds;
  select->tie_hits += s.tie_stats().hits;
  select->tie_misses += s.tie_stats().misses;
  return rounds;
}

/// Per-layer bookkeeping: a name → value map checked against the
/// per_layer_metrics() table.
class Layers {
 public:
  explicit Layers(std::map<std::string, Metric>& out) : out_(out) {}
  void set(const std::string& name, double value) {
    const auto& table = per_layer_metrics();
    const auto it = std::find_if(table.begin(), table.end(),
                                 [&](const auto& e) { return e.first == name; });
    if (it == table.end()) {
      throw std::logic_error("unknown per-layer metric " + name);
    }
    out_[name] = Metric{value, it->second};
  }

 private:
  std::map<std::string, Metric>& out_;
};

void set_select_layers(Layers& layers, const SpanRecorder& spans,
                       const SelectBuildStats& b) {
  const auto& rounds = spans.aggregate("select.round").durations_s;
  std::vector<double> round_ms;
  for (const double d : rounds) round_ms.push_back(d * 1e3);
  layers.set("select.join_s",
             ratio(spans.aggregate("select.join").total_s, as_double(b.builds)));
  layers.set("select.round_ms.p50", quantile(round_ms, 0.5));
  layers.set("select.round_ms.max", quantile(round_ms, 1.0));
  layers.set("select.rounds", ratio(as_double(b.rounds), as_double(b.builds)));
  layers.set("select.tie_hit_ratio",
             ratio(static_cast<double>(b.tie_hits),
                   static_cast<double>(b.tie_hits + b.tie_misses)));
  layers.set("select.link_changes",
             ratio(as_double(b.link_changes), as_double(b.builds)));
  layers.set("select.build_peers_per_s", ratio(as_double(b.peers), b.build_s));
}

/// Per-call span quantile in microseconds.
double span_us(const SpanRecorder& spans, const std::string& name, double q) {
  std::vector<double> us;
  for (const double d : spans.aggregate(name).durations_s) us.push_back(d * 1e6);
  return quantile(std::move(us), q);
}

/// Routes `pairs` on SELECT outside any timed section and checks each path;
/// returns mean hops. Used by the message-plane workloads for `lookup_hops`.
double select_lookup_hops(const PubSubSystem& sys,
                          const std::vector<std::pair<PeerId, PeerId>>& pairs,
                          SpanRecorder& spans, Result& res) {
  double hops = 0.0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto [u, v] = pairs[i];
    RouteResult route;
    {
      Span span(spans, "overlay.select.route", i, Span::kFold);
      route = sys.route(u, v);
    }
    if (!route.success) {
      res.violations.push_back("SELECT lookup " + std::to_string(u) + "->" +
                               std::to_string(v) + " undelivered");
      continue;
    }
    if (auto v_msg = check_route_walk(sys.overlay(), u, v, route.path);
        !v_msg.empty()) {
      res.violations.push_back(std::move(v_msg));
    }
    hops += as_double(route.hops());
  }
  return hops / as_double(pairs.size());
}

void set_latency_and_relays(Result& res, std::vector<double> latencies,
                            double relay_forwards, double deliveries) {
  const double p50 = quantile(latencies, 0.5);
  const double p99 = quantile(std::move(latencies), 0.99);
  res.end_to_end["notify_latency_p50_s"] = {p50, "s"};
  res.end_to_end["notify_latency_p99_s"] = {p99, "s"};
  res.end_to_end["relay_forwards_per_delivery"] = {
      ratio(relay_forwards, deliveries), "fwd/delivery"};
  res.outputs["latency_p50_s"] = p50;
  res.outputs["latency_p99_s"] = p99;
  res.outputs["relay_forwards"] = relay_forwards;
  res.outputs["deliveries"] = deliveries;
}

/// Fig. 3/7 figures of an overlay with every peer online: one post from
/// every user, its tree's completion latency (closed form, Eq. 1) and its
/// relay forwards per subscriber reached.
void overlay_quality(const PubSubSystem& sys, const sel::net::NetworkModel& net,
                     std::vector<double>& latencies, std::size_t& relays,
                     std::size_t& covered) {
  for (PeerId p = 0; p < sys.num_peers(); ++p) {
    const auto subs = sys.subscribers_of(p);
    if (subs.empty()) continue;
    const DisseminationTree tree = sys.build_tree(p);
    relays += relay_forwards(tree, subs);
    covered += static_cast<std::size_t>(std::count_if(
        subs.begin(), subs.end(), [&](PeerId s) { return tree.contains(s); }));
    latencies.push_back(
        sel::pubsub::measure_latency(sys, net, {p}).per_tree_s.mean());
  }
}

// -- overlay_build -------------------------------------------------------------

Result run_overlay_build(const RunConfig& config, SpanRecorder& spans,
                         Clock::time_point process_start) {
  Result res;
  const auto& profile = sel::graph::profile_by_name(kProfile);
  struct Instance {
    sel::graph::SocialGraph graph;
    std::optional<sel::net::NetworkModel> net;
    std::uint64_t overlay_seed = 0;
    std::vector<std::pair<PeerId, PeerId>> lookups;
    std::vector<PeerId> publishers;
  };
  std::vector<Instance> instances(kInstances);
  for (std::size_t i = 0; i < instances.size(); ++i) {
    Instance& in = instances[i];
    {
      Span span(spans, "graph.generate", i);
      in.graph = sel::graph::make_dataset_graph(
          profile, kOverlayPeers, derive_seed(config.seed, 0x100 + i));
    }
    in.net.emplace(kOverlayPeers, derive_seed(config.seed, 0x200 + i));
    in.overlay_seed = derive_seed(config.seed, 0x300 + i);
    in.lookups = friend_pairs(in.graph, kLookupsPerSystem,
                              derive_seed(config.seed, 0x400 + i));
    const sel::sim::PublicationWorkload posting(
        in.graph, {}, derive_seed(config.seed, 0x500 + i));
    const auto pubs = posting.sample_publishers(
        kTreesPerSystem, derive_seed(config.seed, 0x600 + i));
    in.publishers.assign(pubs.begin(), pubs.end());
  }
  res.end_to_end["setup_s"] = {seconds_since(process_start), "s"};

  struct PerSystem {
    double build_s = 0.0;
    std::size_t builds = 0;
    std::size_t build_rounds = 0;
    double hops = 0.0;
    std::size_t routed = 0;
    double relays = 0.0;
    std::size_t trees = 0;
  };
  std::map<std::string, PerSystem> per_system;
  SelectBuildStats select_stats;
  double baseline_build_s = 0.0;
  std::size_t baseline_peers = 0;
  double route_s = 0.0;
  double tree_s = 0.0;
  std::vector<double> rates;
  // Quality figures over the first cycle's SELECT overlays.
  std::vector<double> latencies;
  double quality_hops = 0.0;
  std::size_t quality_routed = 0;
  std::size_t quality_relays = 0;
  std::size_t quality_covered = 0;

  const auto& systems = sel::baselines::all_system_names();
  BestOf best(instances.size() * systems.size());
  RoundLoop loop(config.seconds, instances.size());
  std::size_t round = 0;
  for (; loop.more(round); ++round) {
    const Instance& in = instances[round % instances.size()];
    const bool quality = round < instances.size();
    std::map<std::string, double> mean_hops;
    double work_s = 0.0;
    std::size_t completed = 0;
    for (std::size_t s = 0; s < systems.size(); ++s) {
      const std::string name(systems[s]);
      const bool is_select = name == "select";
      auto sys = sel::baselines::make_system(
          name, in.graph, {.seed = in.overlay_seed, .net = &*in.net});
      PerSystem& acc = per_system[name];

      auto t = Clock::now();
      const std::size_t build_rounds = build_system(
          *sys, spans, round, is_select ? &select_stats : nullptr);
      const double build_s = seconds_since(t);

      std::vector<RouteResult> routes;
      routes.reserve(in.lookups.size());
      const char* route_span = span_name("overlay." + name + ".route");
      t = Clock::now();
      for (std::size_t i = 0; i < in.lookups.size(); ++i) {
        Span span(spans, route_span, i, Span::kFold);
        routes.push_back(sys->route(in.lookups[i].first, in.lookups[i].second));
      }
      const double r_s = seconds_since(t);

      std::vector<DisseminationTree> trees;
      trees.reserve(in.publishers.size());
      const char* tree_span = span_name("overlay." + name + ".build_tree");
      t = Clock::now();
      for (std::size_t i = 0; i < in.publishers.size(); ++i) {
        Span span(spans, tree_span, i, Span::kFold);
        trees.push_back(sys->build_tree(in.publishers[i]));
      }
      const double t_s = seconds_since(t);

      acc.build_s += build_s;
      ++acc.builds;
      acc.build_rounds += build_rounds;
      if (!is_select) {
        baseline_build_s += build_s;
        baseline_peers += sys->num_peers();
      }
      route_s += r_s;
      tree_s += t_s;
      work_s += build_s + r_s + t_s;
      const std::size_t completed_before = completed;

      // -- checks (untimed) --
      double hops = 0.0;
      std::size_t routed = 0;
      for (std::size_t i = 0; i < routes.size(); ++i) {
        const auto [u, v] = in.lookups[i];
        ++res.attempted;
        if (!routes[i].success) {
          ++res.failed;
          continue;
        }
        ++routed;
        ++completed;
        hops += as_double(routes[i].hops());
        if (auto msg = check_route_walk(sys->overlay(), u, v, routes[i].path);
            !msg.empty()) {
          res.violations.push_back(name + ": " + msg);
        }
        if (i < kBfsChecksPerSystem) {
          if (auto msg = check_route_not_shorter_than_bfs(
                  sys->overlay(), u, v, routes[i].hops());
              !msg.empty()) {
            res.violations.push_back(name + ": " + msg);
          }
        }
      }
      for (std::size_t i = 0; i < trees.size(); ++i) {
        const PeerId pub = in.publishers[i];
        const auto subs = sys->subscribers_of(pub);
        ++res.attempted;
        const bool covers = std::all_of(subs.begin(), subs.end(), [&](PeerId s) {
          return trees[i].contains(s);
        });
        if (covers) {
          ++completed;
        } else {
          ++res.failed;
        }
        if (auto msg = check_tree(sys->overlay(), trees[i], pub); !msg.empty()) {
          res.violations.push_back(name + ": " + msg);
        }
        acc.relays += as_double(trees[i].relay_nodes(subs).size());
        ++acc.trees;
      }
      acc.hops += hops;
      acc.routed += routed;
      best.add((round % instances.size()) * systems.size() + s,
               as_double(completed - completed_before), build_s + r_s + t_s);
      mean_hops[name] = ratio(hops, as_double(routed));
      if (round == 0) {
        res.outputs["hops." + name] = mean_hops[name];
        res.outputs["build_rounds." + name] = as_double(build_rounds);
      }

      if (is_select) {
        const auto& s = as_select(*sys);
        if (auto msg = check_long_link_degrees(s.overlay(), s.k()); !msg.empty()) {
          res.violations.push_back("select: " + msg);
        }
        if (quality) {
          quality_hops += hops;
          quality_routed += routed;
          overlay_quality(*sys, *in.net, latencies, quality_relays,
                          quality_covered);
        }
      }
    }
    if (auto msg = check_select_fewest_hops(mean_hops); !msg.empty()) {
      res.violations.push_back("round " + std::to_string(round) + ": " + msg);
    }
    rates.push_back(as_double(completed) / work_s);
  }
  res.rounds = round;
  res.round_rates = rates;
  res.end_to_end["ops_per_s"] = {best.rate(), "1/s"};
  const double lookup_hops = ratio(quality_hops, as_double(quality_routed));
  res.end_to_end["lookup_hops"] = {lookup_hops, "hops"};
  res.outputs["lookup_hops"] = lookup_hops;
  set_latency_and_relays(res, std::move(latencies), as_double(quality_relays),
                         as_double(quality_covered));

  if (spans.enabled()) {
    Layers layers(res.per_layer);
    layers.set("graph.generate_s", spans.aggregate("graph.generate").total_s);
    set_select_layers(layers, spans, select_stats);
    layers.set("baselines.build_peers_per_s",
               ratio(as_double(baseline_peers), baseline_build_s));
    for (const auto& [name, acc] : per_system) {
      if (name != "select") {
        layers.set("baselines." + name + ".build_s",
                   ratio(acc.build_s, as_double(acc.builds)));
      }
      if (name == "vitis" || name == "omen") {
        layers.set("baselines." + name + ".rounds",
                   ratio(as_double(acc.build_rounds), as_double(acc.builds)));
      }
      const std::string prefix = "overlay." + name;
      layers.set(prefix + ".route_us.p50", span_us(spans, prefix + ".route", 0.5));
      layers.set(prefix + ".route_us.p99", span_us(spans, prefix + ".route", 0.99));
      layers.set(prefix + ".hops", ratio(acc.hops, as_double(acc.routed)));
      layers.set(prefix + ".tree_us.p50",
                 span_us(spans, prefix + ".build_tree", 0.5));
      layers.set(prefix + ".relays_per_tree",
                 ratio(acc.relays, as_double(acc.trees)));
    }
    const double systems = as_double(per_system.size());
    layers.set("overlay.lookups_per_s",
               ratio(as_double(round * kLookupsPerSystem) * systems, route_s));
    layers.set("overlay.trees_per_s",
               ratio(as_double(round * kTreesPerSystem) * systems, tree_s));
  }
  return res;
}

// -- message-plane workloads: shared set-up --------------------------------------

/// One graph with its SELECT overlay, built during set-up, and its post
/// stream. The overlay keeps pointers to the graph and the network model,
/// so a world never moves.
struct SelectWorld {
  SelectWorld(std::uint64_t seed, double posts_per_hour, double horizon_s,
              SpanRecorder& spans, SelectBuildStats& build) {
    {
      Span span(spans, "graph.generate");
      graph = sel::graph::make_dataset_graph(
          sel::graph::profile_by_name(kProfile), kPeers, derive_seed(seed, 1));
    }
    net.emplace(kPeers, derive_seed(seed, 2));
    sys = sel::baselines::make_system(
        "select", graph, {.seed = derive_seed(seed, 3), .net = &*net});
    select_rounds = build_system(*sys, spans, 0, &build);
    Span span(spans, "sim.posts_generate");
    sel::sim::WorkloadParams params;
    params.median_posts_per_hour = posts_per_hour;
    const sel::sim::PublicationWorkload posting(graph, params,
                                                derive_seed(seed, 4));
    posts = posting.generate(horizon_s, derive_seed(seed, 5));
    lookups = friend_pairs(graph, kHopLookups, derive_seed(seed, 6));
  }
  SelectWorld(const SelectWorld&) = delete;
  SelectWorld& operator=(const SelectWorld&) = delete;

  sel::graph::SocialGraph graph;
  std::optional<sel::net::NetworkModel> net;
  std::unique_ptr<PubSubSystem> sys;
  std::size_t select_rounds = 0;
  std::vector<sel::sim::Post> posts;
  std::vector<std::pair<PeerId, PeerId>> lookups;
};

std::vector<std::unique_ptr<SelectWorld>> make_worlds(
    const RunConfig& config, double posts_per_hour, double horizon_s,
    SpanRecorder& spans, SelectBuildStats& build, Result& res) {
  std::vector<std::unique_ptr<SelectWorld>> worlds;
  for (std::size_t i = 0; i < kWorlds; ++i) {
    worlds.push_back(std::make_unique<SelectWorld>(
        derive_seed(config.seed, 0x1000 + i), posts_per_hour, horizon_s, spans,
        build));
    res.outputs["select_rounds." + std::to_string(i)] =
        as_double(worlds.back()->select_rounds);
    res.outputs["posts." + std::to_string(i)] =
        as_double(worlds.back()->posts.size());
  }
  return worlds;
}

/// Mean SELECT hops over every world's friend lookups (checked walks).
double worlds_lookup_hops(
    const std::vector<std::unique_ptr<SelectWorld>>& worlds,
    SpanRecorder& spans, Result& res) {
  double hops = 0.0;
  for (const auto& w : worlds) {
    hops += select_lookup_hops(*w->sys, w->lookups, spans, res);
  }
  const double mean = hops / as_double(worlds.size());
  res.end_to_end["lookup_hops"] = {mean, "hops"};
  res.outputs["lookup_hops"] = mean;
  return mean;
}

void set_message_plane_layers(Layers& layers, const SpanRecorder& spans,
                              std::size_t rounds,
                              const sel::pubsub::EngineStats& first,
                              double deliveries_per_s, std::size_t max_depth,
                              double hops) {
  const double n = as_double(rounds);
  layers.set("graph.generate_s", spans.aggregate("graph.generate").total_s);
  layers.set("sim.posts_generate_s", spans.aggregate("sim.posts_generate").total_s);
  layers.set("pubsub.publish_us.p50", span_us(spans, "pubsub.publish", 0.5));
  layers.set("pubsub.publish_us.p99", span_us(spans, "pubsub.publish", 0.99));
  layers.set("pubsub.publish_s", spans.aggregate("pubsub.publish").self_s / n);
  layers.set("runtime.drain_s", spans.aggregate("runtime.drain").self_s / n);
  layers.set("runtime.queue_depth.max", as_double(max_depth));
  layers.set("pubsub.deliveries_per_s", deliveries_per_s);
  layers.set("pubsub.tree_cache_hit_ratio",
             ratio(as_double(first.tree_cache_hits),
                   as_double(first.tree_cache_hits + first.tree_cache_misses)));
  layers.set("overlay.select.route_us.p50",
             span_us(spans, "overlay.select.route", 0.5));
  layers.set("overlay.select.route_us.p99",
             span_us(spans, "overlay.select.route", 0.99));
  layers.set("overlay.select.hops", hops);
}

/// Adds `b` into `a` (the EngineStats counters the per-layer metrics read).
void accumulate(sel::pubsub::EngineStats& a, const sel::pubsub::EngineStats& b) {
  a.deliveries += b.deliveries;
  a.relay_forwards += b.relay_forwards;
  a.tree_cache_hits += b.tree_cache_hits;
  a.tree_cache_misses += b.tree_cache_misses;
  a.retries += b.retries;
  a.failovers += b.failovers;
  a.replays += b.replays;
  a.duplicates_suppressed += b.duplicates_suppressed;
}

// -- notify_steady ---------------------------------------------------------------

Result run_notify_steady(const RunConfig& config, SpanRecorder& spans,
                         Clock::time_point process_start) {
  Result res;
  SelectBuildStats build;
  const auto worlds =
      make_worlds(config, sel::sim::WorkloadParams{}.median_posts_per_hour,
                  kHorizonS, spans, build, res);
  res.end_to_end["setup_s"] = {seconds_since(process_start), "s"};

  // Expected per-publisher outcome, from build_tree() and the closed-form
  // latency on the same (static) overlay.
  std::vector<std::map<PeerId, PublisherExpectation>> expected(worlds.size());
  std::vector<std::map<PeerId, std::size_t>> tree_edges(worlds.size());
  double tree_relays = 0.0;
  std::size_t trees = 0;
  for (std::size_t i = 0; i < worlds.size(); ++i) {
    const SelectWorld& w = *worlds[i];
    for (const auto& post : w.posts) {
      const PeerId p = post.publisher;
      if (expected[i].contains(p)) continue;
      const auto subs = w.sys->subscribers_of(p);
      std::optional<DisseminationTree> tree;
      {
        Span span(spans, "overlay.select.build_tree", p, Span::kFold);
        tree.emplace(w.sys->build_tree(p));
      }
      if (auto msg = check_tree(w.sys->overlay(), *tree, p); !msg.empty()) {
        res.violations.push_back(std::move(msg));
      }
      expected[i][p] = PublisherExpectation{
          subs.size(), relay_forwards(*tree, subs),
          sel::pubsub::measure_latency(*w.sys, *w.net, {p}).per_tree_s.mean()};
      tree_edges[i][p] = tree->node_count() - 1;
      tree_relays += as_double(tree->relay_nodes(subs).size());
      ++trees;
    }
  }

  std::vector<double> rates;
  std::vector<double> latencies;
  sel::pubsub::EngineStats first;
  std::size_t max_depth = 0;
  std::size_t edges = 0;
  BestOf best(worlds.size());
  RoundLoop loop(config.seconds, worlds.size());
  std::size_t round = 0;
  for (; loop.more(round); ++round) {
    const std::size_t i = round % worlds.size();
    const bool first_pass = round < worlds.size();
    const SelectWorld& w = *worlds[i];
    sel::pubsub::NotificationEngine engine(*w.sys, *w.net);
    std::vector<sel::pubsub::MessageId> ids;
    ids.reserve(w.posts.size());
    const auto start = Clock::now();
    std::size_t next = 0;
    for (double until = kSliceS; next < w.posts.size(); until += kSliceS) {
      for (; next < w.posts.size() && w.posts[next].time_s < until; ++next) {
        Span span(spans, "pubsub.publish", ids.size() + 1, Span::kFold);
        ids.push_back(
            engine.publish(w.posts[next].publisher, w.posts[next].time_s));
        max_depth = std::max(max_depth, engine.in_flight());
      }
      Span span(spans, "runtime.drain", round, Span::kFold);
      engine.run_until(until);
    }
    {
      Span span(spans, "runtime.drain", round, Span::kFold);
      engine.run_all();
    }
    const double round_s = seconds_since(start);

    std::vector<SteadyMessage> messages;
    messages.reserve(ids.size());
    std::size_t wanted = 0;
    std::size_t delivered = 0;
    std::set<PeerId> timed_publishers;
    for (const auto id : ids) {
      const auto& rec = engine.record(id);
      std::optional<double> completion;
      if (rec.completed_at_s) {
        completion = *rec.completed_at_s - rec.publish_time_s;
      }
      messages.push_back(
          SteadyMessage{rec.publisher, rec.wanted, rec.delivered, completion});
      wanted += rec.wanted;
      delivered += rec.delivered;
      if (first_pass) {
        // Fig. 7: one completion latency per publisher (its first post).
        if (completion && timed_publishers.insert(rec.publisher).second) {
          latencies.push_back(*completion);
        }
        edges += tree_edges[i].at(rec.publisher);
      }
    }
    res.attempted += wanted;
    res.failed += wanted - std::min(wanted, delivered);
    const auto& stats = engine.stats();
    if (auto msg = check_steady(messages,
                                {stats.deliveries, stats.relay_forwards},
                                expected[i], kLatencyStride);
        !msg.empty()) {
      res.violations.push_back("world " + std::to_string(i) + " round " +
                               std::to_string(round) + ": " + msg);
    }
    if (first_pass) accumulate(first, stats);
    rates.push_back(as_double(delivered) / round_s);
    best.add(i, as_double(delivered), round_s);
  }
  res.rounds = round;

  const double ops_per_s = best.rate();
  res.end_to_end["ops_per_s"] = {ops_per_s, "1/s"};
  res.round_rates = rates;
  set_latency_and_relays(res, std::move(latencies),
                         as_double(first.relay_forwards),
                         as_double(first.deliveries));
  const double hops = worlds_lookup_hops(worlds, spans, res);

  if (spans.enabled()) {
    Layers layers(res.per_layer);
    set_select_layers(layers, spans, build);
    set_message_plane_layers(layers, spans, round, first, ops_per_s, max_depth,
                             hops);
    layers.set("pubsub.transfers_per_delivery",
               ratio(as_double(edges), as_double(first.deliveries)));
    layers.set("overlay.select.tree_us.p50",
               span_us(spans, "overlay.select.build_tree", 0.5));
    layers.set("overlay.select.relays_per_tree",
               ratio(tree_relays, as_double(trees)));
  }
  return res;
}

// -- churn_reliable ----------------------------------------------------------------

/// What one churn pass over a world left for the checks and metrics.
struct ChurnPass {
  double seconds = 0.0;
  std::size_t wanted = 0;
  std::size_t reached = 0;
  std::size_t max_depth = 0;
  sel::pubsub::EngineStats stats;
  sel::fault::FaultPlan::Stats faults;
};

/// Epochs of session churn over one world's SELECT overlay while its post
/// stream is published on the faulty plane; then every peer returns and
/// replays its queue. Checks every message against its subscriber set.
ChurnPass churn_pass(SelectWorld& w, std::uint64_t seed,
                     const sel::fault::FaultSpec& spec, std::size_t round,
                     SpanRecorder& spans, Result& res) {
  PubSubSystem& sys = *w.sys;
  auto& select = as_select(sys);
  const std::size_t n = sys.num_peers();
  sel::fault::FaultPlan plan(spec, derive_seed(seed, 7), n);
  sel::pubsub::NotificationEngine engine(sys, *w.net);
  engine.set_fault_plan(&plan);
  sel::pubsub::RetryPolicy policy;
  policy.enabled = true;
  engine.set_retry_policy(policy);
  engine.set_multipath_planner([&](PeerId publisher) {
    Span span(spans, "pubsub.multipath_plan", publisher, Span::kFold);
    return sel::pubsub::plan_multipath(sys.overlay(), w.graph, publisher);
  });
  engine.set_availability_observer(
      [&](PeerId p, bool up) { select.observe_availability(p, up); });
  sel::sim::SessionChurn churn(n, {}, derive_seed(seed, 8));

  ChurnPass pass;
  std::vector<sel::pubsub::MessageId> ids;
  const auto start = Clock::now();
  std::size_t next = 0;
  for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
    const double t0 = as_double(epoch) * kEpochS;
    churn.advance_to(t0);
    for (const auto p : churn.last_departures()) sys.set_peer_online(p, false);
    for (const auto p : churn.last_arrivals()) sys.set_peer_online(p, true);
    {
      Span span(spans, "select.maintenance", epoch, Span::kFold);
      sys.maintenance_round();
    }
    engine.invalidate_trees();
    {
      Span span(spans, "pubsub.replay", epoch, Span::kFold);
      for (const auto p : churn.last_arrivals()) engine.replay_missed(p, t0);
    }
    for (; next < w.posts.size() && w.posts[next].time_s < t0 + kEpochS; ++next) {
      if (!sys.peer_online(w.posts[next].publisher)) continue;
      Span span(spans, "pubsub.publish", ids.size() + 1, Span::kFold);
      ids.push_back(engine.publish(w.posts[next].publisher, w.posts[next].time_s));
      pass.max_depth = std::max(pass.max_depth, engine.in_flight());
    }
    Span span(spans, "runtime.drain", round, Span::kFold);
    engine.run_until(t0 + kEpochS);
  }
  // Every peer returns; queued messages replay once in-flight work ends.
  for (PeerId p = 0; p < n; ++p) sys.set_peer_online(p, true);
  {
    Span span(spans, "select.maintenance", kEpochs, Span::kFold);
    sys.maintenance_round();
  }
  engine.invalidate_trees();
  {
    Span span(spans, "runtime.drain", round, Span::kFold);
    engine.run_all();
  }
  {
    Span span(spans, "pubsub.replay", kEpochs, Span::kFold);
    for (PeerId p = 0; p < n; ++p) engine.replay_missed(p, engine.now_s());
  }
  pass.seconds = seconds_since(start);

  std::vector<ChurnMessage> messages;
  messages.reserve(ids.size());
  for (const auto id : ids) {
    const auto& rec = engine.record(id);
    ChurnMessage m{rec.publisher,
                   {rec.delivered_to.begin(), rec.delivered_to.end()}};
    std::sort(m.delivered_to.begin(), m.delivered_to.end());
    const auto subs = sys.subscribers_of(rec.publisher);
    pass.wanted += subs.size();
    pass.reached += static_cast<std::size_t>(std::count_if(
        subs.begin(), subs.end(),
        [&](PeerId s) { return rec.delivered_to.contains(s); }));
    messages.push_back(std::move(m));
  }
  if (auto msg = check_churn(sys, messages, engine.pending_replays());
      !msg.empty()) {
    res.violations.push_back("round " + std::to_string(round) + ": " + msg);
  }
  pass.stats = engine.stats();
  pass.faults = plan.stats();
  return pass;
}

Result run_churn_reliable(const RunConfig& config, SpanRecorder& spans,
                          Clock::time_point process_start) {
  Result res;
  SelectBuildStats build;
  const auto worlds = make_worlds(config, kChurnPostsPerHour,
                                  as_double(kEpochs) * kEpochS, spans, build, res);
  const sel::fault::FaultSpec spec = sel::fault::FaultSpec::parse(kFaultMix);
  res.end_to_end["setup_s"] = {seconds_since(process_start), "s"};

  std::vector<double> rates;
  sel::pubsub::EngineStats first;
  sel::fault::FaultPlan::Stats faults;
  std::size_t first_reached = 0;
  std::size_t max_depth = 0;
  // Routing quality of the overlays churn and maintenance left behind,
  // taken once every world has had its first pass.
  std::vector<double> latencies;
  double hops = 0.0;
  BestOf best(worlds.size());
  RoundLoop loop(config.seconds, worlds.size());
  std::size_t round = 0;
  for (; loop.more(round); ++round) {
    const std::size_t i = round % worlds.size();
    const ChurnPass pass = churn_pass(
        *worlds[i], derive_seed(config.seed, 0x1000 + i), spec, round, spans, res);
    res.attempted += pass.wanted;
    res.failed += pass.wanted - pass.reached;
    max_depth = std::max(max_depth, pass.max_depth);
    rates.push_back(as_double(pass.reached) / pass.seconds);
    best.add(i, as_double(pass.reached), pass.seconds);
    if (round < worlds.size()) {
      accumulate(first, pass.stats);
      faults.drops += pass.faults.drops;
      faults.duplicates += pass.faults.duplicates;
      faults.spikes += pass.faults.spikes;
      first_reached += pass.reached;
    }
    if (round + 1 == worlds.size()) {
      std::size_t relays = 0;
      std::size_t covered = 0;
      for (const auto& w : worlds) {
        overlay_quality(*w->sys, *w->net, latencies, relays, covered);
      }
      hops = worlds_lookup_hops(worlds, spans, res);
    }
  }
  res.rounds = round;

  const double ops_per_s = best.rate();
  res.end_to_end["ops_per_s"] = {ops_per_s, "1/s"};
  res.round_rates = rates;
  set_latency_and_relays(res, std::move(latencies),
                         as_double(first.relay_forwards),
                         as_double(first_reached));
  res.outputs["retries"] = as_double(first.retries);
  res.outputs["replays"] = as_double(first.replays);

  if (spans.enabled()) {
    Layers layers(res.per_layer);
    const double rounds = as_double(round);
    set_select_layers(layers, spans, build);
    set_message_plane_layers(layers, spans, round, first, ops_per_s, max_depth,
                             hops);
    layers.set("pubsub.multipath_plan_us.p50",
               span_us(spans, "pubsub.multipath_plan", 0.5));
    layers.set("pubsub.multipath_plan_s",
               spans.aggregate("pubsub.multipath_plan").total_s / rounds);
    layers.set("select.maintenance_ms.p50",
               span_us(spans, "select.maintenance", 0.5) / 1e3);
    layers.set("pubsub.replay_s", spans.aggregate("pubsub.replay").total_s / rounds);
    layers.set("pubsub.retries_per_delivery",
               ratio(as_double(first.retries), as_double(first_reached)));
    layers.set("pubsub.failovers", as_double(first.failovers));
    layers.set("pubsub.replays", as_double(first.replays));
    layers.set("pubsub.duplicates_suppressed",
               as_double(first.duplicates_suppressed));
    layers.set("fault.drops", as_double(faults.drops));
    layers.set("fault.duplicates", as_double(faults.duplicates));
    layers.set("fault.spikes", as_double(faults.spikes));
  }
  return res;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"overlay_build", "notify_steady",
                                                 "churn_reliable"};
  return names;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const auto table = [] {
    std::vector<std::pair<std::string, std::string>> t = {
        {"graph.generate_s", "s"},
        {"select.join_s", "s"},
        {"select.round_ms.p50", "ms"},
        {"select.round_ms.max", "ms"},
        {"select.rounds", "count"},
        {"select.tie_hit_ratio", "ratio"},
        {"select.link_changes", "count"},
        {"select.build_peers_per_s", "peers/s"},
        {"baselines.build_peers_per_s", "peers/s"},
    };
    for (const char* name : {"symphony", "bayeux", "vitis", "omen"}) {
      t.emplace_back("baselines." + std::string(name) + ".build_s", "s");
    }
    t.emplace_back("baselines.vitis.rounds", "count");
    t.emplace_back("baselines.omen.rounds", "count");
    for (const std::string_view name : sel::baselines::all_system_names()) {
      const std::string prefix = "overlay." + std::string(name);
      t.emplace_back(prefix + ".route_us.p50", "us");
      t.emplace_back(prefix + ".route_us.p99", "us");
      t.emplace_back(prefix + ".hops", "hops");
      t.emplace_back(prefix + ".tree_us.p50", "us");
      t.emplace_back(prefix + ".relays_per_tree", "relays");
    }
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"overlay.lookups_per_s", "lookups/s"},
        {"overlay.trees_per_s", "trees/s"},
        {"sim.posts_generate_s", "s"},
        {"pubsub.publish_us.p50", "us"},
        {"pubsub.publish_us.p99", "us"},
        {"pubsub.publish_s", "s"},
        {"pubsub.deliveries_per_s", "deliveries/s"},
        {"pubsub.tree_cache_hit_ratio", "ratio"},
        {"pubsub.transfers_per_delivery", "xfers/delivery"},
        {"runtime.drain_s", "s"},
        {"runtime.queue_depth.max", "events"},
        {"pubsub.multipath_plan_us.p50", "us"},
        {"pubsub.multipath_plan_s", "s"},
        {"select.maintenance_ms.p50", "ms"},
        {"pubsub.replay_s", "s"},
        {"pubsub.retries_per_delivery", "ratio"},
        {"pubsub.failovers", "count"},
        {"pubsub.replays", "count"},
        {"pubsub.duplicates_suppressed", "count"},
        {"fault.drops", "count"},
        {"fault.duplicates", "count"},
        {"fault.spikes", "count"},
    };
    t.insert(t.end(), rest.begin(), rest.end());
    return t;
  }();
  return table;
}

Result run_workload(const RunConfig& config, SpanRecorder& spans,
                    Clock::time_point process_start) {
  Result res;
  if (config.workload == "overlay_build") {
    res = run_overlay_build(config, spans, process_start);
  } else if (config.workload == "notify_steady") {
    res = run_notify_steady(config, spans, process_start);
  } else if (config.workload == "churn_reliable") {
    res = run_churn_reliable(config, spans, process_start);
  } else {
    throw std::invalid_argument("unknown workload " + config.workload);
  }
  if (spans.enabled()) {
    // A layer this workload does not run reads 0.
    for (const auto& [name, unit] : per_layer_metrics()) {
      res.per_layer.emplace(name, Metric{0.0, unit});
    }
  }
  return res;
}

}  // namespace perfbench
