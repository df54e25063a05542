#include "sim/citysim.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "telemetry/metrics.hpp"

namespace bcwan::sim {

namespace {

/// Pack a (kind, entity) pair into one substream word.
std::uint64_t stream_word(std::uint64_t kind, std::uint64_t entity) noexcept {
  return kind << 40 | entity;
}

/// Earliest virtual time of a sensor's opening report.
constexpr util::SimTime kFirstReportFloor = 5 * util::kMillisecond;

}  // namespace

CityEngine::CityEngine(CityConfig config) : config_(config) {
  register_handlers();
}

void CityEngine::register_handlers() {
  if (config_.gateways == 0 || config_.sensors == 0 ||
      config_.recipients == 0) {
    throw std::invalid_argument("CityEngine: empty population");
  }

  start_us_.assign(config_.sensors, 0);
  cipher_.assign(config_.sensors, crypto::AesBlock{});
  tag_.assign(config_.sensors, crypto::Digest256{});

  code_report_due_ = loop_.register_code(
      [this](std::uint64_t a, std::uint64_t b) { on_report_due(a, b); });
  code_epk_req_ = loop_.register_code(
      [this](std::uint64_t a, std::uint64_t b) { on_epk_req(a, b); });
  code_epk_got_ = loop_.register_code(
      [this](std::uint64_t a, std::uint64_t b) { on_epk_got(a, b); });
  code_data_arrive_ = loop_.register_code(
      [this](std::uint64_t a, std::uint64_t b) { on_data_arrive(a, b); });
  code_deliver_ = loop_.register_code(
      [this](std::uint64_t a, std::uint64_t b) { on_deliver(a, b); });
  code_offer_seen_ = loop_.register_code(
      [this](std::uint64_t a, std::uint64_t b) { on_offer_seen(a, b); });
  code_reveal_seen_ = loop_.register_code(
      [this](std::uint64_t a, std::uint64_t b) { on_reveal_seen(a, b); });
}

util::SimTime CityEngine::sample_exp(Stream stream, std::uint32_t entity,
                                     std::uint64_t nonce,
                                     double mean_ms) const {
  util::Rng rng = util::Rng::substream(config_.seed,
                                       stream_word(stream, entity), nonce);
  return util::from_millis(rng.exponential(mean_ms));
}

util::SimTime CityEngine::sample_wan(Stream stream, std::uint32_t sensor,
                                     std::uint64_t nonce) const {
  util::Rng rng = util::Rng::substream(config_.seed,
                                       stream_word(stream, sensor), nonce);
  const double mu = std::log(config_.wan_median_ms);
  const double ms =
      std::max(config_.wan_floor_ms, rng.lognormal(mu, config_.wan_sigma));
  return util::from_millis(ms);
}

crypto::AesKey256 CityEngine::sensor_key(std::uint32_t sensor) const noexcept {
  // Provisioned shared key K, derived statelessly from (seed, sensor).
  crypto::AesKey256 key;
  std::uint64_t x = util::mix64(config_.seed ^ util::mix64(sensor | 1ull << 32));
  for (std::size_t w = 0; w < 4; ++w) {
    x = util::mix64(x + w);
    std::memcpy(key.data() + 8 * w, &x, 8);
  }
  return key;
}

crypto::AesBlock CityEngine::reading_for(std::uint32_t sensor,
                                         std::uint64_t nonce) const noexcept {
  crypto::AesBlock block;
  const std::uint64_t w0 =
      util::mix64(config_.seed ^ util::mix64(sensor) ^ nonce);
  const std::uint64_t w1 = util::mix64(w0);
  std::memcpy(block.data(), &w0, 8);
  std::memcpy(block.data() + 8, &w1, 8);
  return block;
}

crypto::Digest256 CityEngine::envelope_tag(
    std::uint32_t sensor, std::uint64_t nonce,
    const crypto::AesBlock& cipher) const {
  crypto::Sha256 h;
  h.update(cipher);
  std::uint8_t trailer[12];
  std::memcpy(trailer, &sensor, 4);
  std::memcpy(trailer + 4, &nonce, 8);
  h.update(trailer);
  return h.finalize();
}

// ---- protocol phases --------------------------------------------------------
// Each handler runs at the party noted; (a, b) = (sensor, nonce).

void CityEngine::on_report_due(std::uint64_t sensor, std::uint64_t nonce) {
  // Sensor. The device wakes, requests an ephemeral key (ePk) over
  // LoRa; the request reaches the gateway after the uplink airtime.
  const auto s = static_cast<std::uint32_t>(sensor);
  start_us_[s] = loop_.now();
  loop_.post(loop_.now() + util::from_millis(config_.uplink_airtime_ms),
             code_epk_req_, sensor, nonce);
}

void CityEngine::on_epk_req(std::uint64_t sensor, std::uint64_t nonce) {
  // Gateway. The gateway generates the RSA-512 ephemeral pair — a modeled
  // service time — and downlinks ePk.
  const auto s = static_cast<std::uint32_t>(sensor);
  const util::SimTime keygen =
      sample_exp(kStreamKeygen, gateway_of(s), nonce, config_.keygen_mean_ms);
  loop_.post(loop_.now() + keygen +
                 util::from_millis(config_.downlink_airtime_ms),
             code_epk_got_, sensor, nonce);
}

void CityEngine::on_epk_got(std::uint64_t sensor, std::uint64_t nonce) {
  // Sensor. Real crypto: the reading is AES-256 encrypted under the
  // provisioned key (the ePk wrap of K is part of the modeled keygen cost).
  const auto s = static_cast<std::uint32_t>(sensor);
  const crypto::Aes256 aes(sensor_key(s));
  cipher_[s] = aes.encrypt_block(reading_for(s, nonce));
  loop_.post(loop_.now() + util::from_millis(config_.uplink_airtime_ms),
             code_data_arrive_, sensor, nonce);
}

void CityEngine::on_data_arrive(std::uint64_t sensor, std::uint64_t nonce) {
  // Gateway. The gateway seals the envelope — a real SHA-256 tag over
  // (ciphertext, sensor, nonce) — and forwards DELIVER across the WAN to
  // the recipient's host.
  const auto s = static_cast<std::uint32_t>(sensor);
  tag_[s] = envelope_tag(s, nonce, cipher_[s]);
  loop_.post(loop_.now() + sample_wan(kStreamWanDeliver, s, nonce),
             code_deliver_, sensor, nonce);
}

void CityEngine::on_deliver(std::uint64_t sensor, std::uint64_t nonce) {
  // Recipient. Verify the envelope tag (recompute and compare),
  // then post the payment offer on-chain: WAN to the chain plus the
  // memoryless wait for the next block.
  const auto s = static_cast<std::uint32_t>(sensor);
  if (envelope_tag(s, nonce, cipher_[s]) != tag_[s]) {
    ++verify_failures_;
    return;
  }
  const util::SimTime settle = sample_exp(
      kStreamSettleOffer, s, nonce,
      util::to_millis(config_.block_interval));
  loop_.post(loop_.now() + sample_wan(kStreamWanOffer, s, nonce) + settle,
             code_offer_seen_, sensor, nonce);
}

void CityEngine::on_offer_seen(std::uint64_t sensor, std::uint64_t nonce) {
  // Gateway. The gateway sees the confirmed offer and reveals eSk
  // (redeems the offer); the recipient sees the reveal one settlement
  // later.
  const auto s = static_cast<std::uint32_t>(sensor);
  const util::SimTime settle = sample_exp(
      kStreamSettleReveal, s, nonce,
      util::to_millis(config_.block_interval));
  loop_.post(loop_.now() + sample_wan(kStreamWanReveal, s, nonce) + settle,
             code_reveal_seen_, sensor, nonce);
}

void CityEngine::on_reveal_seen(std::uint64_t sensor, std::uint64_t nonce) {
  // Recipient. Real crypto closes the loop: decrypt the ciphertext
  // with the provisioned key and compare against the expected reading.
  const auto s = static_cast<std::uint32_t>(sensor);
  const crypto::Aes256 aes(sensor_key(s));
  const crypto::AesBlock plain = aes.decrypt_block(cipher_[s]);
  if (plain != reading_for(s, nonce)) {
    ++verify_failures_;
    return;
  }

  const util::SimTime now = loop_.now();
  const auto latency = static_cast<std::uint64_t>(now - start_us_[s]);
  ++completed_;
  latency_sum_us_ += latency;
  latency_min_us_ = std::min(latency_min_us_, latency);
  latency_max_us_ = std::max(latency_max_us_, latency);
  // Commutative trace digest: wrapping add of a full-avalanche mix over
  // the exchange identity and outcome. Identical sets of completions give
  // identical digests regardless of completion order.
  const std::uint64_t h = util::mix64(
      util::mix64(sensor ^ nonce * 0x9e3779b97f4a7c15ULL) ^
      util::mix64(static_cast<std::uint64_t>(now)) ^ latency);
  digest_ += h;

  if (telemetry::enabled()) {
    auto& reg = telemetry::registry();
    reg.counter("bcwan_city_exchanges_total",
                "Completed city-scale fair exchanges")
        .add();
    reg.histogram("bcwan_city_exchange_latency_seconds",
                  "City-scale end-to-end exchange latency")
        .observe(static_cast<double>(latency) / 1e6);
  }
  if (config_.keep_trace) {
    trace_.push_back(CityTraceRecord{s, nonce, now,
                                     static_cast<util::SimTime>(latency)});
  }

  // Next report: exponential think time, clamped to at least a second.
  const util::SimTime interval = std::max<util::SimTime>(
      sample_exp(kStreamInterval, s, nonce,
                 util::to_millis(config_.report_interval_mean)),
      util::kSecond);
  loop_.post(now + interval, code_report_due_, sensor, nonce + 1);
}

void CityEngine::run_for(util::SimTime duration) {
  const util::SimTime deadline = loop_.now() + duration;
  if (loop_.pending() == 0) {
    // First run: stagger every sensor's opening report across one mean
    // interval so the city does not transmit in phase.
    for (std::uint32_t s = 0; s < config_.sensors; ++s) {
      util::Rng rng = util::Rng::substream(config_.seed,
                                           stream_word(kStreamStagger, s));
      const auto offset = static_cast<util::SimTime>(rng.below(
          static_cast<std::uint64_t>(
              std::max<util::SimTime>(config_.report_interval_mean, 1))));
      loop_.post(loop_.now() + std::max(offset, kFirstReportFloor),
                 code_report_due_, s, 0);
    }
  }
  loop_.run_until(deadline);
}

double CityEngine::latency_mean_s() const noexcept {
  const std::uint64_t n = latency_count();
  if (n == 0) return 0.0;
  return static_cast<double>(latency_sum_us_) / (1e6 * static_cast<double>(n));
}

std::vector<CityTraceRecord> CityEngine::sorted_trace() const {
  std::vector<CityTraceRecord> out = trace_;
  std::sort(out.begin(), out.end(),
            [](const CityTraceRecord& a, const CityTraceRecord& b) {
              if (a.completed_at != b.completed_at)
                return a.completed_at < b.completed_at;
              if (a.sensor != b.sensor) return a.sensor < b.sensor;
              return a.nonce < b.nonce;
            });
  return out;
}

}  // namespace bcwan::sim
