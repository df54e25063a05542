// City-scale BcWAN engine: compact state machines over coded events.
//
// The paper evaluates 5 gateways x 150 sensors. This engine asks what the
// same fair-exchange pipeline looks like at *city* scale — 10k gateways and
// 100k sensors — which the full Scenario cannot reach: its agents carry real
// RSA-512 blobs, std::function callbacks and per-exchange maps, so both the
// crypto and the allocator dominate long before a million exchanges.
//
// Design (DESIGN.md §14):
//   * Agents are rows in indexed arrays, not objects. An exchange's identity
//     is the (sensor, nonce) pair carried in the coded event's payload
//     words; per-sensor in-flight state is three flat arrays (start time,
//     ciphertext block, envelope tag). Nothing allocates per exchange.
//   * The protocol is a chain of coded events, one per phase:
//     ReportDue -> EpkReq -> EpkGot -> DataArrive -> Deliver -> OfferSeen
//     -> RevealSeen. Radio airtime, WAN latency, RSA keygen and on-chain
//     settlement are virtual-time delays; keygen and settlement are
//     *modeled* service times (exponential, matching the paper's measured
//     scales) while the data path runs real crypto — AES-256 block
//     encryption of the reading, a SHA-256 envelope tag checked at
//     delivery, and an AES decrypt + plaintext comparison at completion.
//   * Every random draw comes from util::Rng::substream(seed, stream,
//     nonce) — a stateless derivation from the exchange's identity, so
//     samples do not depend on global draw order.
//   * Results stream: latency is accumulated in integer microseconds
//     (exact), the trace digest is a commutative (wrapping-add) hash over
//     completed exchanges, and telemetry histograms/counters take the place
//     of unbounded record vectors.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/aes.hpp"
#include "crypto/sha256.hpp"
#include "p2p/event_loop.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace bcwan::sim {

struct CityConfig {
  std::uint32_t gateways = 10000;
  std::uint32_t sensors = 100000;
  std::uint32_t recipients = 1000;
  std::uint64_t seed = 1;

  /// Mean inter-report interval per sensor (exponential, clamped >= 1 s).
  util::SimTime report_interval_mean = 30 * util::kSecond;

  /// LoRa SF7 airtime for the paper's 132 B exchange frames.
  double uplink_airtime_ms = 102.7;
  double downlink_airtime_ms = 102.7;

  /// Modeled RSA-512 ephemeral keygen on gateway-class hardware
  /// (exponential mean).
  double keygen_mean_ms = 60.0;

  /// WAN one-way latency: lognormal(median, sigma) clamped to the floor.
  double wan_median_ms = 45.0;
  double wan_sigma = 0.35;
  double wan_floor_ms = 6.0;

  /// Mean time for a posted transaction to settle (exponential — the
  /// memoryless wait for the next Poisson block).
  util::SimTime block_interval = 15 * util::kSecond;

  /// Retain a full per-exchange trace (sensor, nonce, completion time,
  /// latency) for equivalence tests. Unbounded — small runs only.
  bool keep_trace = false;
};

/// One completed exchange, for keep_trace runs.
struct CityTraceRecord {
  std::uint32_t sensor = 0;
  std::uint64_t nonce = 0;
  util::SimTime completed_at = 0;
  util::SimTime latency = 0;

  friend bool operator==(const CityTraceRecord&,
                         const CityTraceRecord&) = default;
};

class CityEngine {
 public:
  explicit CityEngine(CityConfig config);

  /// Seed every sensor's first report (staggered across one mean interval)
  /// and run the federation for `duration` of virtual time.
  void run_for(util::SimTime duration);

  std::uint64_t exchanges_completed() const noexcept { return completed_; }
  /// Envelope-tag or decrypt mismatches (must be zero).
  std::uint64_t verify_failures() const noexcept { return verify_failures_; }
  /// Commutative digest over all completed exchanges: equal digests across
  /// two runs mean the same exchanges finished at the same virtual times
  /// with the same latencies.
  std::uint64_t trace_digest() const noexcept { return digest_; }

  // Exact integer latency aggregates (microseconds of virtual time).
  std::uint64_t latency_count() const noexcept { return completed_; }
  std::uint64_t latency_sum_us() const noexcept { return latency_sum_us_; }
  std::uint64_t latency_min_us() const noexcept { return latency_min_us_; }
  std::uint64_t latency_max_us() const noexcept { return latency_max_us_; }
  double latency_mean_s() const noexcept;

  /// Sorted copy of the retained trace (keep_trace runs only): deterministic
  /// ordering for run-to-run comparison.
  std::vector<CityTraceRecord> sorted_trace() const;

  p2p::EventLoop& loop() noexcept { return loop_; }
  const CityConfig& config() const noexcept { return config_; }

 private:
  // Substream kinds (the `stream` word of Rng::substream).
  enum Stream : std::uint64_t {
    kStreamInterval = 1,
    kStreamKeygen = 2,
    kStreamWanDeliver = 3,
    kStreamWanOffer = 4,
    kStreamWanReveal = 5,
    kStreamSettleOffer = 6,
    kStreamSettleReveal = 7,
    kStreamStagger = 8,
  };

  void register_handlers();
  std::uint32_t gateway_of(std::uint32_t sensor) const noexcept {
    return sensor % config_.gateways;
  }

  util::SimTime sample_exp(Stream stream, std::uint32_t entity,
                           std::uint64_t nonce, double mean_ms) const;
  util::SimTime sample_wan(Stream stream, std::uint32_t sensor,
                           std::uint64_t nonce) const;
  crypto::AesKey256 sensor_key(std::uint32_t sensor) const noexcept;
  crypto::AesBlock reading_for(std::uint32_t sensor,
                               std::uint64_t nonce) const noexcept;
  crypto::Digest256 envelope_tag(std::uint32_t sensor, std::uint64_t nonce,
                                 const crypto::AesBlock& cipher) const;

  // Protocol phase handlers (coded events; a = sensor, b = nonce).
  void on_report_due(std::uint64_t sensor, std::uint64_t nonce);
  void on_epk_req(std::uint64_t sensor, std::uint64_t nonce);
  void on_epk_got(std::uint64_t sensor, std::uint64_t nonce);
  void on_data_arrive(std::uint64_t sensor, std::uint64_t nonce);
  void on_deliver(std::uint64_t sensor, std::uint64_t nonce);
  void on_offer_seen(std::uint64_t sensor, std::uint64_t nonce);
  void on_reveal_seen(std::uint64_t sensor, std::uint64_t nonce);

  CityConfig config_;
  p2p::EventLoop loop_;

  std::uint32_t code_report_due_ = 0;
  std::uint32_t code_epk_req_ = 0;
  std::uint32_t code_epk_got_ = 0;
  std::uint32_t code_data_arrive_ = 0;
  std::uint32_t code_deliver_ = 0;
  std::uint32_t code_offer_seen_ = 0;
  std::uint32_t code_reveal_seen_ = 0;

  // Per-sensor in-flight exchange state (a sensor runs one exchange at a
  // time).
  std::vector<util::SimTime> start_us_;
  std::vector<crypto::AesBlock> cipher_;
  std::vector<crypto::Digest256> tag_;

  // Streamed results.
  std::uint64_t completed_ = 0;
  std::uint64_t verify_failures_ = 0;
  std::uint64_t digest_ = 0;
  std::uint64_t latency_sum_us_ = 0;
  std::uint64_t latency_min_us_ = ~std::uint64_t{0};
  std::uint64_t latency_max_us_ = 0;

  std::vector<CityTraceRecord> trace_;
};

}  // namespace bcwan::sim
