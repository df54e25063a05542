// SCALE — city-scale simulation engine benchmark.
//
// Exercises the deterministic event core (DESIGN.md §14) end to end:
//
//   1. Determinism preamble (hard gates, run before any timing):
//      * two same-seed city runs must produce the same commutative trace
//        digest, exchange count and full sorted trace;
//      * two same-seed runs of the paper-scale Scenario — the real
//        agent/chain stack — must produce the same chain tip, height and
//        completed-exchange count.
//   2. Headline run: 10k gateways / 100k sensors / 1k recipients driven
//      until over one million fair exchanges complete, reporting
//      exchanges/s and events/s of wall time plus peak RSS. One warm-up
//      run, then the median wall time of kReps timed runs (IQR recorded);
//      every timed run must reproduce the warm-up's digest.
//
// Smoke mode (BCWAN_SCALE_SMOKE=1) shrinks the city so CI finishes in
// seconds. Results land in BENCH_scale.json (schema-checked and
// headline-gated by bench/check_bench_json.py).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench_common.hpp"
#include "sim/citysim.hpp"
#include "sim/scenario.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace {

using bcwan::util::SimTime;
namespace util = bcwan::util;
namespace sim = bcwan::sim;

constexpr int kReps = 5;

double wall_ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

sim::CityConfig city_config(bool smoke) {
  sim::CityConfig config;
  if (smoke) {
    config.gateways = 200;
    config.sensors = 2000;
    config.recipients = 50;
  } else {
    config.gateways = 10000;
    config.sensors = 100000;
    config.recipients = 1000;
  }
  config.seed = 42;
  return config;
}

struct CityResult {
  std::uint64_t exchanges = 0;
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t verify_failures = 0;
  double latency_mean_s = 0.0;
  double wall_ms = 0.0;
};

CityResult run_city(const sim::CityConfig& config, SimTime duration) {
  const auto t0 = std::chrono::steady_clock::now();
  sim::CityEngine engine(config);
  engine.run_for(duration);
  CityResult r;
  r.exchanges = engine.exchanges_completed();
  r.digest = engine.trace_digest();
  r.events = engine.loop().events_executed();
  r.verify_failures = engine.verify_failures();
  r.latency_mean_s = engine.latency_mean_s();
  r.wall_ms = wall_ms_since(t0);
  return r;
}

struct ScenarioFingerprint {
  bcwan::chain::Hash256 tip{};
  int height = 0;
  std::uint64_t exchanges = 0;
  double latency_mean_s = 0.0;
};

/// Run the full-stack Scenario (real agents, real chain) and fingerprint its
/// end state.
ScenarioFingerprint run_scenario() {
  sim::ScenarioConfig config;
  config.actors = 3;
  config.sensors_per_actor = 4;
  config.seed = 7;
  sim::Scenario scenario(config);
  scenario.bootstrap();
  scenario.run_exchanges(8, 30 * util::kMinute);
  ScenarioFingerprint fp;
  fp.tip = scenario.master_node().chain().tip_hash();
  fp.height = scenario.master_node().chain().height();
  fp.exchanges = scenario.exchanges_completed();
  fp.latency_mean_s = scenario.streamed_latency().mean();
  return fp;
}

}  // namespace

int main() {
  bcwan::bench::print_header("SCALE",
                             "city-scale deterministic event core");
  const bool smoke = []() {
    for (const char* name : {"BCWAN_SMOKE", "BCWAN_SCALE_SMOKE"}) {
      const char* env = std::getenv(name);
      if (env != nullptr && std::string(env) != "0") return true;
    }
    return false;
  }();
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  std::printf("mode: %s, cores: %u\n\n", smoke ? "smoke" : "full", cores);

  // ---- 1. determinism gates ------------------------------------------------
  std::printf("[1/2] same-seed repeat determinism gates\n");
  sim::CityConfig gate_config = city_config(true);
  gate_config.keep_trace = true;
  const SimTime gate_virtual = 2 * util::kMinute;
  sim::CityEngine gate_first(gate_config);
  gate_first.run_for(gate_virtual);
  sim::CityEngine gate_second(gate_config);
  gate_second.run_for(gate_virtual);
  const bool trace_equal =
      gate_first.trace_digest() == gate_second.trace_digest() &&
      gate_first.exchanges_completed() == gate_second.exchanges_completed() &&
      gate_first.sorted_trace() == gate_second.sorted_trace();
  std::printf("  city trace: digests %016llx / %016llx "
              "(%llu exchanges) -> %s\n",
              static_cast<unsigned long long>(gate_first.trace_digest()),
              static_cast<unsigned long long>(gate_second.trace_digest()),
              static_cast<unsigned long long>(
                  gate_first.exchanges_completed()),
              trace_equal ? "EQUAL" : "MISMATCH");

  const ScenarioFingerprint fp_first = run_scenario();
  const ScenarioFingerprint fp_second = run_scenario();
  const bool tips_equal = fp_first.tip == fp_second.tip &&
                          fp_first.height == fp_second.height &&
                          fp_first.exchanges == fp_second.exchanges;
  std::printf("  scenario chain: height %d/%d, exchanges %llu/%llu -> %s\n",
              fp_first.height, fp_second.height,
              static_cast<unsigned long long>(fp_first.exchanges),
              static_cast<unsigned long long>(fp_second.exchanges),
              tips_equal ? "EQUAL" : "MISMATCH");
  if (!trace_equal || !tips_equal) {
    std::fprintf(stderr, "determinism gate failed; aborting bench\n");
    return 1;
  }

  // ---- 2. headline city run ------------------------------------------------
  // A sensor's duty cycle is interval + pipeline latency (~55 s at the
  // defaults), so the city completes ~sensors/55 exchanges per virtual
  // second. Size the virtual horizon to clear the exchange target.
  const sim::CityConfig config = city_config(smoke);
  const std::uint64_t target_exchanges = smoke ? 20000 : 1000000;
  const SimTime duration =
      smoke ? 12 * util::kMinute : 11 * util::kMinute;
  std::printf("\n[2/2] headline: %u gateways, %u sensors, %u recipients, "
              "%.0f virtual minutes\n",
              config.gateways, config.sensors, config.recipients,
              util::to_seconds(duration) / 60.0);

  // One warm-up run (page faults, cold caches), then kReps timed runs; the
  // headline is the median wall time. Every timed run must reproduce the
  // warm-up's exchange set.
  const CityResult headline = run_city(config, duration);
  util::SampleStats wall_ms;
  for (int rep = 0; rep < kReps; ++rep) {
    const CityResult r = run_city(config, duration);
    std::printf("  rep %d: %8.1f ms wall\n", rep + 1, r.wall_ms);
    if (r.digest != headline.digest || r.exchanges != headline.exchanges) {
      std::fprintf(stderr, "rep %d diverged from the warm-up run\n", rep + 1);
      return 1;
    }
    wall_ms.add(r.wall_ms);
  }
  const double wall_median_s = wall_ms.median() / 1e3;
  const double wall_q1_s = wall_ms.percentile(25.0) / 1e3;
  const double wall_q3_s = wall_ms.percentile(75.0) / 1e3;
  const double exchanges_per_sec =
      static_cast<double>(headline.exchanges) / wall_median_s;
  const double events_per_sec =
      static_cast<double>(headline.events) / wall_median_s;
  const unsigned long long rss = bcwan::bench::peak_rss_bytes();
  const double rss_gib = static_cast<double>(rss) / (1024.0 * 1024.0 * 1024.0);
  std::printf("  exchanges : %llu (target %llu) in %.3f s wall "
              "(median of %d, IQR %.3f s)\n",
              static_cast<unsigned long long>(headline.exchanges),
              static_cast<unsigned long long>(target_exchanges),
              wall_median_s, kReps, wall_q3_s - wall_q1_s);
  std::printf("  throughput: %.0f exchanges/s, %.0f events/s (wall)\n",
              exchanges_per_sec, events_per_sec);
  std::printf("  latency   : %.3f s mean (virtual), verify failures %llu\n",
              headline.latency_mean_s,
              static_cast<unsigned long long>(headline.verify_failures));
  std::printf("  peak RSS  : %.3f GiB\n", rss_gib);
  const bool scale_target_met = headline.exchanges >= target_exchanges &&
                                wall_median_s <= 600.0 &&
                                (rss == 0 || rss_gib <= 4.0);
  std::printf("  scale target (>=%llu exchanges, <=10 min, <=4 GiB): %s\n",
              static_cast<unsigned long long>(target_exchanges),
              scale_target_met ? "MET" : "NOT MET");

  // ---- JSON ----------------------------------------------------------------
  std::FILE* f = std::fopen("BENCH_scale.json", "w");
  if (f != nullptr) {
    bcwan::bench::JsonWriter w(f);
    w.begin_object();
    w.str("experiment", "SCALE");
    w.boolean("smoke", smoke);
    w.uint("cores", cores);
    w.uint("gateways", config.gateways);
    w.uint("sensors", config.sensors);
    w.uint("recipients", config.recipients);
    w.num("virtual_seconds", util::to_seconds(duration), "%.1f");
    w.uint("exchanges_completed", headline.exchanges);
    w.uint("events_executed", headline.events);
    w.uint("warmup_runs", 1);
    w.uint("repetitions", kReps);
    w.num("wall_seconds", wall_median_s, "%.3f");
    w.num("wall_seconds_q1", wall_q1_s, "%.3f");
    w.num("wall_seconds_q3", wall_q3_s, "%.3f");
    w.num("wall_seconds_iqr", wall_q3_s - wall_q1_s, "%.3f");
    w.num("exchanges_per_sec_wall", exchanges_per_sec, "%.1f");
    w.num("events_per_sec_wall", events_per_sec, "%.1f");
    w.num("latency_mean_s", headline.latency_mean_s, "%.3f");
    w.uint("verify_failures", headline.verify_failures);
    w.boolean("verify_clean", headline.verify_failures == 0);
    w.boolean("trace_repeat_equal", trace_equal);
    w.boolean("chain_tips_repeat_equal", tips_equal);
    w.boolean("scale_target_met", scale_target_met);
    w.uint("peak_rss_bytes", rss);
    w.num("peak_rss_gib", rss_gib, "%.3f");
    w.end_object();
    w.finish();
    std::fclose(f);
    std::printf("\nresults written to BENCH_scale.json\n");
  }
  return 0;
}
