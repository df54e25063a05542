#include "p2p/network.hpp"

#include <cmath>
#include <algorithm>
#include <stdexcept>

#include "telemetry/metrics.hpp"

namespace bcwan::p2p {

namespace {

std::uint64_t pair_key(HostId a, HostId b) noexcept {
  const auto lo = static_cast<std::uint64_t>(std::min(a, b));
  const auto hi = static_cast<std::uint64_t>(std::max(a, b));
  return lo << 32 | hi;
}

}  // namespace

util::SimTime LatencyModel::sample(util::Rng& rng) const {
  const double mu = std::log(median_ms);
  const double ms = std::max(floor_ms, rng.lognormal(mu, sigma));
  return util::from_millis(ms);
}

SimNet::SimNet(EventLoop& loop, std::uint64_t seed)
    : loop_(loop), seed_(seed) {
  arrive_code_ = loop_.register_code(
      [this](std::uint64_t slot, std::uint64_t b) { on_arrive(slot, b); });
  process_code_ = loop_.register_code(
      [this](std::uint64_t slot, std::uint64_t b) { on_process(slot, b); });
}

HostId SimNet::add_host(std::string name) {
  hosts_.push_back(Host{std::move(name), nullptr, 0,
                        1 * util::kMillisecond, false});
  return static_cast<HostId>(hosts_.size() - 1);
}

void SimNet::set_latency(HostId a, HostId b, const LatencyModel& model) {
  pair_latency_[pair_key(a, b)] = model;
}

void SimNet::set_processing_time(HostId id, util::SimTime t) {
  hosts_.at(static_cast<std::size_t>(id)).processing_time = t;
}

void SimNet::set_handler(HostId id,
                         std::function<void(const Message&)> handler) {
  hosts_.at(static_cast<std::size_t>(id)).handler = std::move(handler);
}

util::SimTime SimNet::latency_between(HostId a, HostId b) {
  if (a == b) return 0;
  const std::uint64_t key = pair_key(a, b);
  const auto it = pair_latency_.find(key);
  const LatencyModel& model =
      it != pair_latency_.end() ? it->second : default_latency_;
  auto [rng_it, inserted] =
      pair_rng_.try_emplace(key, util::Rng::substream(seed_, key));
  (void)inserted;
  return model.sample(rng_it->second);
}

void SimNet::send(HostId from, HostId to, Message msg) {
  auto& src = hosts_.at(static_cast<std::size_t>(from));
  auto& dst = hosts_.at(static_cast<std::size_t>(to));
  if (telemetry::enabled()) {
    auto& reg = telemetry::registry();
    reg.counter("bcwan_p2p_messages_out_total", "type", msg.type,
                "Messages submitted to the federation backbone by type")
        .add();
    reg.counter("bcwan_p2p_bytes_out_total",
                "Payload bytes submitted to the federation backbone")
        .add(msg.payload.size());
    if (src.partitioned || dst.partitioned) {
      reg.counter("bcwan_p2p_messages_dropped_total",
                  "Messages dropped at a partitioned endpoint")
          .add();
    }
  }
  if (src.partitioned || dst.partitioned) return;  // dropped on the floor

  msg.from = from;
  const util::SimTime arrival = loop_.now() + latency_between(from, to);
  const auto slot = inflight_.acquire(Inflight{std::move(msg), to});
  loop_.post(arrival, arrive_code_, slot);
}

void SimNet::on_arrive(std::uint64_t slot, std::uint64_t) {
  // The daemon processes messages serially: a stalled or busy daemon makes
  // this message wait.
  const auto idx = static_cast<std::uint32_t>(slot);
  Host& host = hosts_.at(static_cast<std::size_t>(inflight_.get(idx).to));
  const util::SimTime start = std::max(loop_.now(), host.busy_until);
  host.busy_until = start + host.processing_time;
  loop_.post(start, process_code_, slot);
}

void SimNet::on_process(std::uint64_t slot, std::uint64_t) {
  const auto idx = static_cast<std::uint32_t>(slot);
  Inflight& inflight = inflight_.get(idx);
  Host& h = hosts_.at(static_cast<std::size_t>(inflight.to));
  if (!h.partitioned) {
    ++delivered_;
    if (h.handler) h.handler(inflight.msg);
  }
  inflight_.release(idx);
}

void SimNet::broadcast(HostId from, const Message& msg) {
  for (HostId to = 0; to < static_cast<HostId>(hosts_.size()); ++to) {
    if (to == from) continue;
    send(from, to, msg);  // Message copy shares the payload buffer
  }
}

void SimNet::stall(HostId id, util::SimTime duration) {
  Host& host = hosts_.at(static_cast<std::size_t>(id));
  host.busy_until = std::max(host.busy_until, loop_.now()) + duration;
}

void SimNet::set_partitioned(HostId id, bool partitioned) {
  hosts_.at(static_cast<std::size_t>(id)).partitioned = partitioned;
}

}  // namespace bcwan::p2p
