#include "collect/adaptive_transmitter.hpp"
#include "collect/fleet_collector.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "net/loopback.hpp"
#include "trace/trace.hpp"
#include "trace/synthetic.hpp"

namespace resmon::collect {
namespace {

std::vector<double> scalar(double v) { return {v}; }

/// A copy of one step's beta indicators, so two fleets' steps compare.
std::vector<std::uint8_t> bytes_of(std::span<const std::uint8_t> beta) {
  return {beta.begin(), beta.end()};
}

TEST(AdaptiveTransmitter, ValidatesOptions) {
  EXPECT_THROW(AdaptiveTransmitter({.max_frequency = 0.0}), InvalidArgument);
  EXPECT_THROW(AdaptiveTransmitter({.max_frequency = 1.5}), InvalidArgument);
  EXPECT_THROW(AdaptiveTransmitter({.v0 = 0.0}), InvalidArgument);
  EXPECT_THROW(AdaptiveTransmitter({.gamma = 1.0}), InvalidArgument);
}

TEST(AdaptiveTransmitter, AlwaysTransmitsFirstMeasurement) {
  AdaptiveTransmitter tx({.max_frequency = 0.1});
  EXPECT_TRUE(tx.decide(0, scalar(0.5)));
  EXPECT_EQ(tx.transmissions(), 1u);
}

TEST(AdaptiveTransmitter, QueueFollowsEquation9) {
  AdaptiveTransmitter tx({.max_frequency = 0.3});
  tx.decide(0, scalar(0.5));  // transmits: Q += 1 - 0.3
  EXPECT_NEAR(tx.queue_length(), 0.7, 1e-12);
  // Large positive queue suppresses transmission: Q -= B.
  tx.decide(1, scalar(0.5));
  EXPECT_NEAR(tx.queue_length(), 0.4, 1e-12);
}

TEST(AdaptiveTransmitter, EmptyMeasurementThrows) {
  AdaptiveTransmitter tx({});
  EXPECT_THROW(tx.decide(0, std::vector<double>{}), InvalidArgument);
}

TEST(AdaptiveTransmitter, PenaltyIsMeanSquaredDeviation) {
  AdaptiveTransmitter tx({.max_frequency = 0.3});
  tx.decide(0, std::vector<double>{0.0, 0.0});  // first: transmit
  tx.decide(1, std::vector<double>{0.3, 0.4});
  // F = (0.09 + 0.16) / 2.
  EXPECT_NEAR(tx.last_penalty(), 0.125, 1e-12);
}

TEST(AdaptiveTransmitter, LongRunFrequencyMeetsConstraint) {
  // Random-walk measurements; the drift-plus-penalty rule must keep the
  // long-run transmission frequency at (or below) B.
  for (const double b : {0.1, 0.3, 0.5}) {
    AdaptiveTransmitter tx({.max_frequency = b});
    Rng rng(17);
    double x = 0.5;
    const std::size_t steps = 5000;
    for (std::size_t t = 0; t < steps; ++t) {
      x = std::clamp(x + rng.normal(0.0, 0.05), 0.0, 1.0);
      tx.decide(t, scalar(x));
    }
    EXPECT_NEAR(tx.actual_frequency(), b, 0.03) << "B = " << b;
  }
}

TEST(AdaptiveTransmitter, LargeV0TransmitsOnLargeChanges) {
  // With a sizeable V0, a big measurement jump must trigger transmission
  // even if the queue is positive.
  AdaptiveTransmitter tx({.max_frequency = 0.3, .v0 = 10.0});
  tx.decide(0, scalar(0.1));  // initial transmit, Q = 0.7
  EXPECT_TRUE(tx.decide(1, scalar(0.9)));  // V*F = ~2 > Q
}

TEST(AdaptiveTransmitter, ConstantSignalWithClampStaysSilent) {
  AdaptiveTransmitter tx(
      {.max_frequency = 0.3, .v0 = 1.0, .clamp_queue = true});
  tx.decide(0, scalar(0.4));
  std::size_t transmissions_after_first = 0;
  for (std::size_t t = 1; t < 200; ++t) {
    if (tx.decide(t, scalar(0.4))) ++transmissions_after_first;
  }
  EXPECT_EQ(transmissions_after_first, 0u);
  EXPECT_GE(tx.queue_length(), 0.0);
}

TEST(AdaptiveTransmitter, UnclampedQueueMeansEqualityConstraint) {
  // Per the paper, without clamping the constraint is met with equality
  // even when the signal is flat (transmissions still happen).
  AdaptiveTransmitter tx({.max_frequency = 0.25, .clamp_queue = false});
  for (std::size_t t = 0; t < 2000; ++t) {
    tx.decide(t, scalar(0.4));
  }
  EXPECT_NEAR(tx.actual_frequency(), 0.25, 0.02);
}

TEST(UniformTransmitter, TransmitsAtFixedInterval) {
  UniformTransmitter tx(0.25);
  std::vector<bool> pattern;
  for (std::size_t t = 0; t < 8; ++t) {
    pattern.push_back(tx.decide(t, scalar(0.0)));
  }
  // credit starts at 1.0: transmits at t=0, then whenever the accumulated
  // credit reaches a full message again (t=3, t=7, ... for B=0.25).
  EXPECT_TRUE(pattern[0]);
  EXPECT_FALSE(pattern[1]);
  EXPECT_FALSE(pattern[2]);
  EXPECT_TRUE(pattern[3]);
  EXPECT_FALSE(pattern[4]);
  EXPECT_FALSE(pattern[5]);
  EXPECT_FALSE(pattern[6]);
  EXPECT_TRUE(pattern[7]);
}

TEST(UniformTransmitter, FrequencyMatchesB) {
  for (const double b : {0.05, 0.3, 0.7, 1.0}) {
    UniformTransmitter tx(b);
    for (std::size_t t = 0; t < 1000; ++t) tx.decide(t, scalar(0.0));
    EXPECT_NEAR(tx.actual_frequency(), b, 0.01) << "B = " << b;
  }
}

TEST(UniformTransmitter, RejectsInvalidB) {
  EXPECT_THROW(UniformTransmitter(0.0), InvalidArgument);
  EXPECT_THROW(UniformTransmitter(1.1), InvalidArgument);
}

// ---- FleetCollector -------------------------------------------------

TEST(FleetCollector, StoreCompleteAfterFirstStep) {
  trace::SyntheticProfile p = trace::alibaba_profile();
  p.num_nodes = 10;
  p.num_steps = 50;
  const trace::InMemoryTrace t = trace::generate(p, 3);
  for (const PolicyKind kind :
       {PolicyKind::kAdaptive, PolicyKind::kUniform, PolicyKind::kAlways}) {
    FleetCollector fleet(t, {.kind = kind, .max_frequency = 0.3});
    fleet.step(0);
    EXPECT_TRUE(fleet.store().complete());
  }
}

TEST(FleetCollector, StepsMustBeConsecutive) {
  trace::SyntheticProfile p = trace::alibaba_profile();
  p.num_nodes = 4;
  p.num_steps = 10;
  const trace::InMemoryTrace t = trace::generate(p, 3);
  FleetCollector fleet(t, {.kind = PolicyKind::kAlways, .max_frequency = 1.0});
  fleet.step(0);
  EXPECT_THROW(fleet.step(2), InvalidArgument);
}

TEST(FleetCollector, AlwaysPolicyKeepsStoreFresh) {
  trace::SyntheticProfile p = trace::google_profile();
  p.num_nodes = 6;
  p.num_steps = 30;
  const trace::InMemoryTrace t = trace::generate(p, 5);
  FleetCollector fleet(t, {.kind = PolicyKind::kAlways, .max_frequency = 1.0});
  for (std::size_t step = 0; step < t.num_steps(); ++step) {
    fleet.step(step);
    for (std::size_t i = 0; i < t.num_nodes(); ++i) {
      EXPECT_EQ(fleet.store().staleness(i, step), 0u);
      EXPECT_DOUBLE_EQ(fleet.store().stored(i)[0], t.value(i, step, 0));
    }
  }
}

TEST(FleetCollector, BetaIndicatorsMatchStoreUpdates) {
  trace::SyntheticProfile p = trace::bitbrains_profile();
  p.num_nodes = 8;
  p.num_steps = 60;
  const trace::InMemoryTrace t = trace::generate(p, 6);
  FleetCollector fleet(t,
                       {.kind = PolicyKind::kAdaptive, .max_frequency = 0.3});
  for (std::size_t step = 0; step < t.num_steps(); ++step) {
    const std::span<const std::uint8_t> beta = fleet.step(step);
    for (std::size_t i = 0; i < t.num_nodes(); ++i) {
      if (beta[i]) {
        EXPECT_EQ(fleet.store().last_update_step(i), step);
        EXPECT_DOUBLE_EQ(fleet.store().stored(i)[0], t.value(i, step, 0));
      }
    }
  }
}

TEST(FleetCollector, ChannelAccountsForTraffic) {
  trace::SyntheticProfile p = trace::alibaba_profile();
  p.num_nodes = 5;
  p.num_steps = 40;
  const trace::InMemoryTrace t = trace::generate(p, 7);
  FleetCollector fleet(t,
                       {.kind = PolicyKind::kUniform, .max_frequency = 0.5});
  for (std::size_t step = 0; step < t.num_steps(); ++step) fleet.step(step);
  std::uint64_t transmissions = 0;
  for (std::size_t i = 0; i < t.num_nodes(); ++i) {
    transmissions += fleet.transmissions(i);
  }
  EXPECT_EQ(fleet.link().messages_sent(), transmissions);
  // Every message is one wire frame; wire_size() is the encoder's exact
  // byte count (see transport/wire_format.hpp).
  EXPECT_EQ(fleet.link().bytes_sent(),
            transmissions *
                net::wire::measurement_frame_size(t.num_resources()));
}

TEST(FleetCollector, LoopbackLinkMatchesPlainChannelBitForBit) {
  // The LoopbackLink pushes every message through the real wire codec; on
  // a failure-injecting link it must still behave exactly like the bare
  // Channel with the same options (encode->decode is an identity and both
  // draw the same drop/delay RNG sequence).
  trace::SyntheticProfile p = trace::alibaba_profile();
  p.num_nodes = 8;
  p.num_steps = 120;
  const trace::InMemoryTrace t = trace::generate(p, 13);
  const transport::ChannelOptions lossy{
      .drop_probability = 0.2, .max_delay_slots = 3, .seed = 99};
  const PolicySpec adaptive{.kind = PolicyKind::kAdaptive,
                            .max_frequency = 0.3};
  FleetCollector plain(t, adaptive, lossy);
  FleetCollector loopback(t, adaptive, lossy,
                          std::make_unique<net::LoopbackLink>(lossy));
  for (std::size_t step = 0; step < t.num_steps(); ++step) {
    EXPECT_EQ(bytes_of(plain.step(step)), bytes_of(loopback.step(step)))
        << "step " << step;
    for (std::size_t i = 0; i < t.num_nodes(); ++i) {
      ASSERT_EQ(plain.store().has(i), loopback.store().has(i));
      if (!plain.store().has(i)) continue;
      ASSERT_EQ(plain.store().last_update_step(i),
                loopback.store().last_update_step(i));
      ASSERT_EQ(plain.store().stored(i), loopback.store().stored(i));
    }
  }
  EXPECT_EQ(plain.link().messages_sent(), loopback.link().messages_sent());
  EXPECT_EQ(plain.link().bytes_sent(), loopback.link().bytes_sent());
  EXPECT_EQ(plain.link().messages_dropped(),
            loopback.link().messages_dropped());
}

// ---- MeasurementSource ----------------------------------------------

// ---- fleet pass vs a frozen per-node reference -----------------------------
//
// FrozenNode is the per-node rule as it stood when every node ran its own
// TransmitPolicy object (a copy, deliberately not calling the shared inline
// steps): the fleet pass and the policy classes must both reproduce it bit
// for bit.

struct FrozenNode {
  PolicyKind kind;
  double b;
  double v0;
  double gamma;
  bool clamp;
  double state;  // queue, credit or delta
  std::vector<double> last_sent;
  std::uint64_t transmissions = 0;

  bool decide(std::size_t t, const std::vector<double>& x) {
    bool transmit = false;
    switch (kind) {
      case PolicyKind::kAdaptive: {
        if (last_sent.empty()) {
          transmit = true;
        } else {
          double sq = 0.0;
          for (std::size_t r = 0; r < x.size(); ++r) {
            const double dr = x[r] - last_sent[r];
            sq += dr * dr;
          }
          const double penalty = sq / static_cast<double>(x.size());
          const double v_t =
              v0 * std::pow(static_cast<double>(t) + 2.0, gamma);
          transmit = state < v_t * penalty;
        }
        state += (transmit ? 1.0 : 0.0) - b;
        if (clamp) state = std::max(state, 0.0);
        break;
      }
      case PolicyKind::kUniform:
        state += b;
        if (state >= 1.0) {
          state -= 1.0;
          transmit = true;
        }
        break;
      case PolicyKind::kAlways:
        transmit = true;
        break;
      case PolicyKind::kDeadband: {
        const DeadbandOptions o{.target_frequency = b};
        if (last_sent.empty()) {
          transmit = true;
        } else {
          double sq = 0.0;
          for (std::size_t r = 0; r < x.size(); ++r) {
            const double dr = x[r] - last_sent[r];
            sq += dr * dr;
          }
          transmit = std::sqrt(sq / static_cast<double>(x.size())) > state;
        }
        if (transmit) {
          state *= 1.0 + o.adaptation_rate * (1.0 - b);
        } else {
          state *= 1.0 - o.adaptation_rate * b;
        }
        state = std::clamp(state, o.min_delta, o.max_delta);
        break;
      }
    }
    if (transmit) {
      last_sent = x;
      ++transmissions;
    }
    return transmit;
  }
};

class FleetPassTest : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(FleetPassTest, MatchesFrozenPerNodeReferenceBitForBit) {
  const PolicyKind kind = GetParam();
  trace::SyntheticProfile p = trace::alibaba_profile();
  p.num_nodes = 37;
  p.num_steps = 400;
  const trace::InMemoryTrace t = trace::generate(p, 21);
  const std::size_t n = t.num_nodes();
  const std::size_t d = t.num_resources();
  const PolicySpec spec{.kind = kind,
                        .max_frequency = 0.3,
                        .v0 = 0.05,
                        .gamma = 0.6,
                        .clamp_queue = kind == PolicyKind::kAdaptive};
  obs::MetricsRegistry registry;
  FleetCollector fleet(t, spec, {}, nullptr, &registry);
  const double initial_state = kind == PolicyKind::kUniform    ? 1.0
                               : kind == PolicyKind::kDeadband ? DeadbandOptions{}.delta
                                                               : 0.0;
  std::vector<FrozenNode> ref(n, FrozenNode{.kind = kind,
                                            .b = spec.max_frequency,
                                            .v0 = spec.v0,
                                            .gamma = spec.gamma,
                                            .clamp = spec.clamp_queue,
                                            .state = initial_state});
  const auto factory =
      make_policy_factory(kind, spec.max_frequency, spec.v0, spec.gamma,
                          spec.clamp_queue);
  std::vector<std::unique_ptr<TransmitPolicy>> policies;
  for (std::size_t i = 0; i < n; ++i) policies.push_back(factory());
  transport::CentralStore ref_store(n, d);

  std::uint64_t ref_sends = 0;
  for (std::size_t step = 0; step < t.num_steps(); ++step) {
    std::vector<std::uint8_t> want(n);
    std::vector<double> want_state(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::vector<double> x = t.measurement(i, step);
      want[i] = ref[i].decide(step, x) ? 1 : 0;
      want_state[i] = kind == PolicyKind::kAlways ? 0.0 : ref[i].state;
      ASSERT_EQ(policies[i]->decide(step, x), want[i] != 0)
          << "policy class, node " << i << " step " << step;
      if (want[i] != 0) {
        ref_store.apply({.node = i, .step = step, .values = x});
        ++ref_sends;
      }
    }
    const std::span<const std::uint8_t> beta = fleet.step(step);
    ASSERT_EQ(beta.size(), n);
    ASSERT_EQ(std::memcmp(beta.data(), want.data(), n), 0) << "step " << step;
    ASSERT_EQ(std::memcmp(fleet.policy_state().data(), want_state.data(),
                          n * sizeof(double)),
              0)
        << "step " << step;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(fleet.transmissions(i), ref[i].transmissions);
      ASSERT_EQ(policies[i]->transmissions(), ref[i].transmissions);
      ASSERT_EQ(fleet.store().last_update_step(i),
                ref_store.last_update_step(i));
      ASSERT_EQ(std::memcmp(fleet.store().stored(i).data(),
                            ref_store.stored(i).data(), d * sizeof(double)),
                0)
          << "node " << i << " step " << step;
    }
  }
  EXPECT_EQ(fleet.link().messages_sent(), ref_sends);
  EXPECT_DOUBLE_EQ(fleet.average_actual_frequency(),
                   static_cast<double>(ref_sends) /
                       static_cast<double>(n * t.num_steps()));
  if (kind == PolicyKind::kAdaptive) {
    // One batch per slot still counts every node's queue exactly once.
    const obs::Histogram& h = queue_length_histogram(registry);
    EXPECT_EQ(h.count(), n * t.num_steps());
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, FleetPassTest,
                         ::testing::Values(PolicyKind::kAdaptive,
                                           PolicyKind::kUniform,
                                           PolicyKind::kAlways,
                                           PolicyKind::kDeadband));

TEST(FleetCollector, QueueHistogramBucketsMatchPerNodeObservation) {
  // The fleet's once-per-slot batch lands in the same buckets as N
  // per-node observe() calls of the same queues.
  trace::SyntheticProfile p = trace::alibaba_profile();
  p.num_nodes = 25;
  p.num_steps = 300;
  const trace::InMemoryTrace t = trace::generate(p, 4);
  obs::MetricsRegistry fleet_registry;
  obs::MetricsRegistry node_registry;
  FleetCollector fleet(t, {.kind = PolicyKind::kAdaptive, .max_frequency = 0.2},
                       {}, nullptr, &fleet_registry);
  obs::Histogram& per_node = queue_length_histogram(node_registry);
  for (std::size_t step = 0; step < t.num_steps(); ++step) {
    fleet.step(step);
    for (const double q : fleet.policy_state()) per_node.observe(q);
  }
  const obs::Histogram& batched = queue_length_histogram(fleet_registry);
  ASSERT_EQ(batched.bounds(), per_node.bounds());
  for (std::size_t b = 0; b <= batched.bounds().size(); ++b) {
    EXPECT_EQ(batched.bucket_count(b), per_node.bucket_count(b)) << b;
  }
  EXPECT_EQ(batched.count(), per_node.count());
  EXPECT_NEAR(batched.sum(), per_node.sum(), 1e-9 * std::abs(per_node.sum()));
}

TEST(MeasurementSource, TraceSourceViewsOneNode) {
  trace::SyntheticProfile p = trace::alibaba_profile();
  p.num_nodes = 3;
  p.num_steps = 8;
  const trace::InMemoryTrace t = trace::generate(p, 3);
  TraceSource source(t, 1);
  EXPECT_EQ(source.num_resources(), t.num_resources());
  EXPECT_EQ(source.num_steps(), t.num_steps());
  EXPECT_EQ(source.measurement(5), t.measurement(1, 5));
  EXPECT_THROW(TraceSource(t, 3), Error);
}

TEST(MeasurementSource, SourceFleetMatchesTraceFleetBitForBit) {
  // The source-based ctor is the host-collection seam; over TraceSources
  // it must reproduce the classic trace-mode collector exactly.
  trace::SyntheticProfile p = trace::alibaba_profile();
  p.num_nodes = 5;
  p.num_steps = 40;
  const trace::InMemoryTrace t = trace::generate(p, 9);
  std::vector<std::unique_ptr<MeasurementSource>> sources;
  for (std::size_t i = 0; i < t.num_nodes(); ++i) {
    sources.push_back(std::make_unique<TraceSource>(t, i));
  }
  const PolicySpec adaptive{.kind = PolicyKind::kAdaptive,
                            .max_frequency = 0.3};
  FleetCollector classic(t, adaptive);
  FleetCollector seam(std::move(sources), adaptive);
  EXPECT_EQ(seam.num_nodes(), t.num_nodes());
  for (std::size_t step = 0; step < t.num_steps(); ++step) {
    EXPECT_EQ(bytes_of(classic.step(step)), bytes_of(seam.step(step)))
        << "step " << step;
    for (std::size_t i = 0; i < t.num_nodes(); ++i) {
      ASSERT_EQ(classic.store().stored(i), seam.store().stored(i));
    }
  }
}

TEST(MeasurementSource, FleetRejectsDisagreeingDimensions) {
  trace::SyntheticProfile p = trace::alibaba_profile();
  p.num_nodes = 1;
  p.num_steps = 4;
  const trace::InMemoryTrace a = trace::generate(p, 1);
  p.num_resources = a.num_resources() + 1;
  const trace::InMemoryTrace b = trace::generate(p, 1);
  std::vector<std::unique_ptr<MeasurementSource>> sources;
  sources.push_back(std::make_unique<TraceSource>(a, 0));
  sources.push_back(std::make_unique<TraceSource>(b, 0));
  EXPECT_THROW(
      FleetCollector(std::move(sources),
                     {.kind = PolicyKind::kAlways, .max_frequency = 1.0}),
      Error);
}

TEST(MeasurementSource, FleetRejectsEmptySourceList) {
  std::vector<std::unique_ptr<MeasurementSource>> none;
  EXPECT_THROW(FleetCollector(std::move(none),
                              {.kind = PolicyKind::kAlways, .max_frequency = 1.0}),
               Error);
}

// Property sweep: fleet-average adaptive frequency tracks B on real-ish
// workloads (the Fig. 3 property).
class FleetFrequencyTest : public ::testing::TestWithParam<double> {};

TEST_P(FleetFrequencyTest, FleetFrequencyTracksBudget) {
  const double b = GetParam();
  trace::SyntheticProfile p = trace::alibaba_profile();
  p.num_nodes = 20;
  p.num_steps = 2000;
  const trace::InMemoryTrace t = trace::generate(p, 11);
  FleetCollector fleet(t, {.kind = PolicyKind::kAdaptive, .max_frequency = b});
  for (std::size_t step = 0; step < t.num_steps(); ++step) fleet.step(step);
  EXPECT_NEAR(fleet.average_actual_frequency(), b, 0.05) << "B = " << b;
}

INSTANTIATE_TEST_SUITE_P(Budgets, FleetFrequencyTest,
                         ::testing::Values(0.05, 0.1, 0.3, 0.5));

}  // namespace
}  // namespace resmon::collect
