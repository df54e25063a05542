// Determinism gates for the city-scale engine (DESIGN.md §14) plus the
// Scenario's streamed-stats / keep_records contract.

#include <gtest/gtest.h>

#include "sim/citysim.hpp"
#include "sim/scenario.hpp"
#include "util/bytes.hpp"

namespace bcwan::sim {
namespace {

CityConfig small_city() {
  CityConfig config;
  config.gateways = 100;
  config.sensors = 1200;
  config.recipients = 40;
  config.seed = 17;
  config.keep_trace = true;
  return config;
}

// Golden pins: the exact outcome of small_city() over 90 virtual seconds.
// Any change to event ordering, RNG substreams or the crypto data path
// moves at least one of these.
TEST(CityEngine, GoldenTracePinned) {
  CityEngine engine(small_city());
  engine.run_for(90 * util::kSecond);
  EXPECT_EQ(engine.exchanges_completed(), 1715u);
  EXPECT_EQ(engine.trace_digest(), 8022693014802464047ull);
  EXPECT_EQ(engine.verify_failures(), 0u);
  EXPECT_EQ(engine.latency_sum_us(), 43432422389ull);
  EXPECT_EQ(engine.latency_min_us(), 662366u);
  EXPECT_EQ(engine.latency_max_us(), 83659765u);
  EXPECT_EQ(engine.sorted_trace().size(), 1715u);
}

TEST(CityEngine, RealCryptoPipelineVerifies) {
  CityConfig config = small_city();
  config.sensors = 300;
  CityEngine engine(config);
  engine.run_for(60 * util::kSecond);
  EXPECT_GT(engine.exchanges_completed(), 0u);
  // Every AES decrypt matched its plaintext and every SHA-256 envelope tag
  // checked out.
  EXPECT_EQ(engine.verify_failures(), 0u);
  EXPECT_GE(engine.latency_min_us(), 1000u);  // > 1 ms of modeled pipeline
  EXPECT_LE(engine.latency_min_us(), engine.latency_max_us());
  EXPECT_DOUBLE_EQ(
      engine.latency_mean_s(),
      static_cast<double>(engine.latency_sum_us()) / 1e6 /
          static_cast<double>(engine.exchanges_completed()));
}

// Golden pin for the full-stack Scenario (real agents, RSA, chain): the
// chain it settles on is fixed by the seed.
TEST(Scenario, GoldenChainTipPinned) {
  ScenarioConfig config;
  config.actors = 2;
  config.sensors_per_actor = 3;
  config.seed = 5;
  Scenario scenario(config);
  scenario.bootstrap();
  scenario.run_exchanges(4, 20 * util::kMinute);
  const auto& chain = scenario.master_node().chain();
  EXPECT_EQ(util::to_hex(chain.tip_hash()),
            "000743b9e443bbb266eb4598d329e138a11ba42d65fc8e90985063ea06e84aa5");
  EXPECT_EQ(chain.height(), 18);
  EXPECT_EQ(scenario.exchanges_completed(), 4u);
}

// keep_records caps the retained per-exchange material while the streamed
// statistics keep covering every completion.
TEST(Scenario, KeepRecordsCapsRetainedSamples) {
  ScenarioConfig config;
  config.actors = 2;
  config.sensors_per_actor = 3;
  config.seed = 11;
  config.keep_records = 3;
  Scenario scenario(config);
  scenario.bootstrap();
  scenario.run_exchanges(8, 40 * util::kMinute);

  ASSERT_GE(scenario.exchanges_completed(), 8u);
  EXPECT_EQ(scenario.records().size(), 3u);
  EXPECT_EQ(scenario.latency_stats().count(), 3u);
  // Streamed stats saw everything.
  EXPECT_EQ(scenario.streamed_latency().count(),
            scenario.exchanges_completed());
  EXPECT_GT(scenario.streamed_latency().mean(), 0.0);
  EXPECT_GE(scenario.streamed_latency().max(),
            scenario.streamed_latency().mean());
}

}  // namespace
}  // namespace bcwan::sim
