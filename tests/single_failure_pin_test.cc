// Pinned digests of single-node-failure planning.
//
// A single failure is the paper's case and the most-run path of the repo:
// every figure, example and carctl subcommand plans one failed node.  Six
// configurations (the three paper CFSes at 100 stripes, and three larger
// ones at 2000 stripes) x a fixed seed list each fail one random node, and
// 64-bit FNV-1a digests of a canonical text form of the results are
// compared against constants recorded from a reference build:
//
//   * CAR: per-stripe rack sets and chunk picks after Algorithm 2, the λ
//     trace, the substitution count, and the per-rack traffic summary;
//   * every field of every step of the CAR and RR plans;
//   * the bandwidth-weighted balancer under seeded per-rack bandwidths:
//     rack sets, bottleneck trace and bottleneck drain;
//   * CAR and direct degraded-read plans for seeded random requests;
//   * the exhaustive optimiser on small instances (optimum, chosen sets,
//     states explored, and the node-budget abort).
//
// A planner change that moves any rack, chunk, coefficient, step id or
// floating-point value fails here and names the case.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "cluster/failure.h"
#include "cluster/placement.h"
#include "cluster/topology.h"
#include "recovery/balancer.h"
#include "recovery/degraded.h"
#include "recovery/metrics.h"
#include "recovery/multi.h"
#include "recovery/plan.h"
#include "recovery/weighted.h"
#include "rs/code.h"
#include "util/rng.h"

namespace car {
namespace {

std::string hex_digest(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  std::array<char, 17> buf{};
  std::snprintf(buf.data(), buf.size(), "%016llx",
                static_cast<unsigned long long>(h));
  return {buf.data()};
}

/// Exact (hex-float) rendering, so a one-ulp drift changes the digest.
std::string exact(double v) {
  std::array<char, 64> buf{};
  std::snprintf(buf.data(), buf.size(), "%a", v);
  return {buf.data()};
}

template <typename Range>
std::string list(const Range& values) {
  std::string out = "[";
  for (const auto v : values) out += std::to_string(v) + ",";
  return out + "]";
}

std::string describe(const recovery::BufferRef& ref) {
  return ref.kind == recovery::BufferRef::Kind::kChunk
             ? "c" + std::to_string(ref.stripe) + "#" +
                   std::to_string(ref.chunk_index)
             : "s" + std::to_string(ref.step_id);
}

std::string describe(const recovery::RecoveryPlan& plan) {
  std::string out = "plan " + std::to_string(plan.replacement) + " " +
                    std::to_string(plan.replacement_rack) + " " +
                    std::to_string(plan.chunk_size) + "\n";
  for (const auto& step : plan.steps) {
    out += std::to_string(step.id) + " " +
           (step.kind == recovery::StepKind::kTransfer ? "T" : "C") + " " +
           std::to_string(step.stripe) + " deps" + list(step.deps) + " " +
           std::to_string(step.src) + ">" + std::to_string(step.dst) + " " +
           describe(step.payload) + (step.cross_rack ? " x" : " i") + " @" +
           std::to_string(step.node) + " in[";
    for (const auto& in : step.inputs) {
      out += describe(in.buffer) + "*" + std::to_string(in.coeff) + ",";
    }
    out += "] " + std::to_string(step.bytes) + "\n";
  }
  for (const auto& o : plan.outputs) {
    out += "out " + std::to_string(o.stripe) + "#" +
           std::to_string(o.chunk_index) + "<-" + std::to_string(o.step_id) +
           "\n";
  }
  return out;
}

std::string describe(const recovery::TrafficSummary& t) {
  return "traffic " + std::to_string(t.failed_rack) + " " +
         list(t.per_rack_chunks) + " " + exact(t.lambda()) + "\n";
}

std::string describe_trace(const char* name,
                           const std::vector<double>& trace) {
  std::string out = name;
  for (const double v : trace) out += " " + exact(v);
  return out + "\n";
}

/// One stripe's CAR solution: lost chunks, rack set, and picks as
/// rack:chunk,chunk; groups in pick order.
std::string describe_car(const recovery::MultiStripeSolution& s) {
  std::string out = std::to_string(s.stripe) + " lost" + list(s.lost_chunks) +
                    " racks" + list(s.rack_set.racks) + " picks";
  for (const auto& pick : s.picks) {
    out += " " + std::to_string(pick.rack) + ":" + list(s.chunks_of(pick));
  }
  return out + "\n";
}

struct PinConfig {
  std::string name;
  std::vector<std::size_t> racks;
  std::size_t k = 0;
  std::size_t m = 0;
  std::size_t stripes = 0;
};

const std::vector<PinConfig>& configs() {
  static const std::vector<PinConfig> kConfigs = {
      {"cfs1", {4, 3, 3}, 4, 3, 100},
      {"cfs2", {4, 3, 3, 3}, 6, 3, 100},
      {"cfs3", {6, 4, 5, 3, 2}, 10, 4, 100},
      {"grid20", std::vector<std::size_t>(20, 20), 6, 3, 2000},
      {"uneven", {7, 3, 9, 2, 5, 8, 4}, 8, 3, 2000},
      {"wide", std::vector<std::size_t>(10, 6), 12, 4, 2000},
  };
  return kConfigs;
}

constexpr std::array<std::uint64_t, 3> kSeeds = {1, 17, 2024};
constexpr std::uint64_t kChunk = 1 << 20;

/// Reference digests, keyed by case name.
const std::map<std::string, std::string>& pinned() {
  static const std::map<std::string, std::string> kPinned = {
      {"cfs1/1/car-balance", "f017fc9745294a66"},
      {"cfs1/1/car-plan", "94d3df1192e0def8"},
      {"cfs1/1/degraded-car", "889656b84b866933"},
      {"cfs1/1/degraded-direct", "df88496abb1aac08"},
      {"cfs1/1/exhaustive", "0c9a5202adf0c792"},
      {"cfs1/1/rr-plan", "0daa91c2ea0c463b"},
      {"cfs1/1/weighted", "f583a5404d6a36bc"},
      {"cfs1/17/car-balance", "74cfbca1629078eb"},
      {"cfs1/17/car-plan", "376ac8f7089f6332"},
      {"cfs1/17/degraded-car", "9484d22fbf837ecc"},
      {"cfs1/17/degraded-direct", "858f4417b2ed663e"},
      {"cfs1/17/exhaustive", "ff7eba27e2c16162"},
      {"cfs1/17/rr-plan", "98a09c44d26844f5"},
      {"cfs1/17/weighted", "48de8ab3b05c548d"},
      {"cfs1/2024/car-balance", "fc74b86b6700f69b"},
      {"cfs1/2024/car-plan", "88f1518144c21266"},
      {"cfs1/2024/degraded-car", "0df0a00137557a7a"},
      {"cfs1/2024/degraded-direct", "b8564aeace370f5e"},
      {"cfs1/2024/exhaustive", "15d2157689193099"},
      {"cfs1/2024/rr-plan", "f0eb36c82f11acc3"},
      {"cfs1/2024/weighted", "1e5d6617840b6835"},
      {"cfs2/1/car-balance", "d2dc102e7e7e3eae"},
      {"cfs2/1/car-plan", "dcff69e2aa639d3d"},
      {"cfs2/1/degraded-car", "7aa4e4b2f8f5fefb"},
      {"cfs2/1/degraded-direct", "bf22473615cd0aff"},
      {"cfs2/1/exhaustive", "e59af7e47c0b931a"},
      {"cfs2/1/rr-plan", "d0fc13f31118dbee"},
      {"cfs2/1/weighted", "6f91fd5696faf165"},
      {"cfs2/17/car-balance", "7c3ba61c87a6370d"},
      {"cfs2/17/car-plan", "f38e3b0c65c6e5ca"},
      {"cfs2/17/degraded-car", "8ec3277dd852e9ec"},
      {"cfs2/17/degraded-direct", "31a01a841fa8661f"},
      {"cfs2/17/exhaustive", "9eb484eff3552576"},
      {"cfs2/17/rr-plan", "9dbee5372005810e"},
      {"cfs2/17/weighted", "9cd76f9fdd528cd1"},
      {"cfs2/2024/car-balance", "09f5f843c107b7b8"},
      {"cfs2/2024/car-plan", "57c1f6ce0ddacf8f"},
      {"cfs2/2024/degraded-car", "718d243f6f60680b"},
      {"cfs2/2024/degraded-direct", "febbc88803176756"},
      {"cfs2/2024/exhaustive", "1bd6054925d1f562"},
      {"cfs2/2024/rr-plan", "8f202242706f810f"},
      {"cfs2/2024/weighted", "a06133adc8a351a8"},
      {"cfs3/1/car-balance", "f7e5458c56c71acc"},
      {"cfs3/1/car-plan", "ce823907a573f279"},
      {"cfs3/1/degraded-car", "bebaf22b577f77d7"},
      {"cfs3/1/degraded-direct", "62f395d04f7745c5"},
      {"cfs3/1/exhaustive", "cd454591d6ee27a1"},
      {"cfs3/1/rr-plan", "4e0a1523fcf73f12"},
      {"cfs3/1/weighted", "5c41f8f5fb325eb8"},
      {"cfs3/17/car-balance", "10fe70ccd7dd3a1a"},
      {"cfs3/17/car-plan", "94fea4529fe5b989"},
      {"cfs3/17/degraded-car", "47d7b072c8a357c5"},
      {"cfs3/17/degraded-direct", "f6643c2090804f89"},
      {"cfs3/17/exhaustive", "bed7d25574f695ca"},
      {"cfs3/17/rr-plan", "27673b55f6d085c4"},
      {"cfs3/17/weighted", "9fcfc77776751b13"},
      {"cfs3/2024/car-balance", "b5010eeb583b346f"},
      {"cfs3/2024/car-plan", "74071c81dccb2219"},
      {"cfs3/2024/degraded-car", "f14dba5307165bab"},
      {"cfs3/2024/degraded-direct", "f06b413c67364a03"},
      {"cfs3/2024/exhaustive", "e7015f07288d9bc2"},
      {"cfs3/2024/rr-plan", "c72121ac9aad80fa"},
      {"cfs3/2024/weighted", "96b3839bc3dc7ea3"},
      {"grid20/1/car-balance", "5bc193fb72f9f8be"},
      {"grid20/1/car-plan", "53c475632b69b6e6"},
      {"grid20/1/degraded-car", "2f9650a7b32d1abc"},
      {"grid20/1/degraded-direct", "72c73922329f1bbc"},
      {"grid20/1/rr-plan", "b4e8cc0c126caebe"},
      {"grid20/1/weighted", "e9016843ae356def"},
      {"grid20/17/car-balance", "884f92dffa257eaa"},
      {"grid20/17/car-plan", "79f8287d2ebc9729"},
      {"grid20/17/degraded-car", "c79a774e14f9515d"},
      {"grid20/17/degraded-direct", "76b8f58373c3119c"},
      {"grid20/17/rr-plan", "d326e3c7888efa5e"},
      {"grid20/17/weighted", "7149bb39b4930aa7"},
      {"grid20/2024/car-balance", "8fa6365e9b59aed7"},
      {"grid20/2024/car-plan", "2d176a7a7663e4be"},
      {"grid20/2024/degraded-car", "1c68f9de928adc67"},
      {"grid20/2024/degraded-direct", "1c29fe11105cb648"},
      {"grid20/2024/rr-plan", "06ee0dcbe424ea94"},
      {"grid20/2024/weighted", "d3bed7631773152f"},
      {"uneven/1/car-balance", "06256dc26a84b524"},
      {"uneven/1/car-plan", "857eb886326ec048"},
      {"uneven/1/degraded-car", "fc16f32d63b7be31"},
      {"uneven/1/degraded-direct", "2c6be6c736aebaad"},
      {"uneven/1/rr-plan", "7c821c99df6b61f2"},
      {"uneven/1/weighted", "86c8e66c4dc9791e"},
      {"uneven/17/car-balance", "7a8f8f31b67e5c96"},
      {"uneven/17/car-plan", "0fffbc56a1f92191"},
      {"uneven/17/degraded-car", "b87aec5d6f731a12"},
      {"uneven/17/degraded-direct", "fe3fe0b1a3c61bc6"},
      {"uneven/17/rr-plan", "97ea8177a9a04632"},
      {"uneven/17/weighted", "4383fd3e0edc4d0b"},
      {"uneven/2024/car-balance", "be56b596ccb86a27"},
      {"uneven/2024/car-plan", "beb0c7066908436e"},
      {"uneven/2024/degraded-car", "853a18570718d754"},
      {"uneven/2024/degraded-direct", "d3361a885bf821da"},
      {"uneven/2024/rr-plan", "737153182a5ffd7e"},
      {"uneven/2024/weighted", "c84ed903bccc86d1"},
      {"wide/1/car-balance", "eb31ee30b6082a40"},
      {"wide/1/car-plan", "aeea41e4bcc9478b"},
      {"wide/1/degraded-car", "2773471b070dce1f"},
      {"wide/1/degraded-direct", "7b2e55f61ded243d"},
      {"wide/1/rr-plan", "4e1d7df535b27386"},
      {"wide/1/weighted", "5e1e4b9bf92b5972"},
      {"wide/17/car-balance", "fad949a24117db19"},
      {"wide/17/car-plan", "02d5bd3eed5cd636"},
      {"wide/17/degraded-car", "645c78489b1e2b0f"},
      {"wide/17/degraded-direct", "75f398cde1663bc6"},
      {"wide/17/rr-plan", "33775d7cf6f591e0"},
      {"wide/17/weighted", "c51c3262afc80728"},
      {"wide/2024/car-balance", "3e1cf375b5ad0fd2"},
      {"wide/2024/car-plan", "3ce6c3f26e23409a"},
      {"wide/2024/degraded-car", "79e722f4795817e2"},
      {"wide/2024/degraded-direct", "4827a752da4b4d99"},
      {"wide/2024/rr-plan", "2a2e8c099bf3ec1c"},
      {"wide/2024/weighted", "2f7f0a66207dc10d"},
  };
  return kPinned;
}

void expect_pinned(const std::string& name, const std::string& text) {
  const std::string got = hex_digest(text);
  const auto it = pinned().find(name);
  if (it == pinned().end()) {
    ADD_FAILURE() << "no pinned digest for " << name << ": {\"" << name
                  << "\", \"" << got << "\"},";
    return;
  }
  EXPECT_EQ(got, it->second) << name;
}

/// A placement of `cfg` with one random node failed, and the censuses of
/// that failure as the one-node case of a multi-failure.
struct Case {
  cluster::Placement placement;
  cluster::FailureScenario failure;
  std::vector<recovery::MultiStripeCensus> censuses;

  Case(const PinConfig& cfg, util::Rng& rng)
      : placement(cluster::Placement::random(cluster::Topology(cfg.racks),
                                             cfg.k, cfg.m, cfg.stripes, rng)),
        failure(cluster::inject_random_failure(placement, rng)),
        censuses(recovery::build_multi_censuses(
            placement,
            recovery::make_multi_failure(placement, {failure.failed_node}))) {}
};

std::string key(const PinConfig& cfg, std::uint64_t seed, const char* what) {
  return cfg.name + "/" + std::to_string(seed) + "/" + what;
}

TEST(SingleFailurePin, CarBalanceAndPlans) {
  for (const auto& cfg : configs()) {
    const rs::Code code(cfg.k, cfg.m);
    for (const std::uint64_t seed : kSeeds) {
      util::Rng rng(seed);
      const Case c(cfg, rng);
      const auto& p = c.placement;
      const auto racks = p.topology().num_racks();
      const auto car = recovery::balance_multi(p, c.censuses, 50);

      std::string balance = describe_trace("lambda", car.lambda_trace) +
                            "subs " + std::to_string(car.substitutions) + "\n";
      for (const auto& s : car.solutions) balance += describe_car(s);
      balance += describe(recovery::multi_traffic(car.solutions, racks,
                                                  c.failure.failed_rack));
      expect_pinned(key(cfg, seed, "car-balance"), balance);

      expect_pinned(key(cfg, seed, "car-plan"),
                    describe(recovery::build_multi_car_plan(
                        p, code, car.solutions, kChunk,
                        c.failure.failed_node)));
    }
  }
}

TEST(SingleFailurePin, RrPlans) {
  for (const auto& cfg : configs()) {
    const rs::Code code(cfg.k, cfg.m);
    for (const std::uint64_t seed : kSeeds) {
      util::Rng rng(seed);
      const Case c(cfg, rng);
      const auto& p = c.placement;
      util::Rng rr_rng(seed + 1);
      const auto rr = recovery::plan_multi_rr(p, c.censuses, rr_rng);

      std::string text;
      for (const auto& s : rr) {
        text += std::to_string(s.stripe) + " lost" + list(s.lost_chunks) +
                " read" + list(s.chunk_indices) + "\n";
      }
      text +=
          describe(recovery::multi_rr_traffic(p, rr, c.failure.failed_rack));
      text += describe(recovery::build_multi_rr_plan(p, code, rr, kChunk,
                                                     c.failure.failed_node));
      expect_pinned(key(cfg, seed, "rr-plan"), text);
    }
  }
}

TEST(SingleFailurePin, WeightedBalance) {
  for (const auto& cfg : configs()) {
    for (const std::uint64_t seed : kSeeds) {
      util::Rng rng(seed);
      const Case c(cfg, rng);
      const auto& p = c.placement;
      util::Rng bw_rng(seed + 2);
      std::vector<double> bandwidth(p.topology().num_racks());
      for (double& b : bandwidth) b = 0.25 + 2.0 * bw_rng.next_double();

      const auto weighted =
          recovery::balance_weighted(p, c.censuses, bandwidth, 50);
      std::string text =
          describe_trace("bottleneck", weighted.bottleneck_trace) + "subs " +
          std::to_string(weighted.substitutions) + " drain " +
          exact(recovery::bottleneck_drain(weighted.solutions, bandwidth,
                                           c.failure.failed_rack)) +
          "\n";
      for (const auto& s : weighted.solutions) text += describe_car(s);
      expect_pinned(key(cfg, seed, "weighted"), text);
    }
  }
}

TEST(SingleFailurePin, DegradedReads) {
  for (const auto& cfg : configs()) {
    const rs::Code code(cfg.k, cfg.m);
    for (const std::uint64_t seed : kSeeds) {
      util::Rng rng(seed);
      const Case c(cfg, rng);
      const auto& p = c.placement;
      util::Rng req_rng(seed + 3);
      std::string car_text;
      std::string direct_text;
      for (int i = 0; i < 24; ++i) {
        recovery::DegradedReadRequest request;
        request.stripe = req_rng.next_below(p.num_stripes());
        request.chunk_index = req_rng.next_below(p.chunks_per_stripe());
        request.reader = static_cast<cluster::NodeId>(
            req_rng.next_below(p.topology().num_nodes()));
        car_text += describe(
            recovery::plan_degraded_read_car(p, code, request, kChunk));
        direct_text += describe(recovery::plan_degraded_read_direct(
            p, code, request, kChunk, req_rng));
      }
      expect_pinned(key(cfg, seed, "degraded-car"), car_text);
      expect_pinned(key(cfg, seed, "degraded-direct"), direct_text);
    }
  }
}

TEST(SingleFailurePin, ExhaustiveOptimum) {
  // Small instances only: the search is exponential in the stripe count.
  for (const auto& cfg : configs()) {
    if (cfg.stripes > 100) continue;
    for (const std::uint64_t seed : kSeeds) {
      util::Rng rng(seed);
      const PinConfig small{cfg.name, cfg.racks, cfg.k, cfg.m, 8};
      const Case c(small, rng);
      std::string text;
      for (const std::uint64_t budget :
           {std::uint64_t{50}, std::uint64_t{2'000'000}}) {
        const auto exact_result =
            recovery::balance_exhaustive(c.placement, c.censuses, budget);
        text += "budget " + std::to_string(budget) + ": ";
        if (!exact_result) {
          text += "aborted\n";
          continue;
        }
        text += exact(exact_result->lambda) + " max " +
                std::to_string(exact_result->max_rack_chunks) + " explored " +
                std::to_string(exact_result->nodes_explored) + " chosen";
        for (const auto& set : exact_result->chosen) text += list(set.racks);
        text += "\n";
      }
      expect_pinned(key(cfg, seed, "exhaustive"), text);
    }
  }
}

}  // namespace
}  // namespace car
