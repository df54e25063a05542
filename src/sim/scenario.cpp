#include "sim/scenario.hpp"

#include "bcwan/election.hpp"
#include "telemetry/metrics.hpp"

#include <cstdio>
#include <stdexcept>

namespace bcwan::sim {

namespace {

// The paper's headline figure, split into its protocol phases. Virtual-time
// durations, exported in seconds.
constexpr const char* kPhaseFamily = "bcwan_exchange_phase_seconds";
constexpr const char* kPhaseHelp =
    "Virtual time spent per fair-exchange phase "
    "(uplink, offer, reveal, decrypt)";

void telemetry_note_exchange(const char* outcome) {
  if (!telemetry::enabled()) return;
  telemetry::registry()
      .counter("bcwan_exchange_outcomes_total", "outcome", outcome,
               "Fair exchanges by final outcome")
      .add();
}

}  // namespace

core::IpAddress host_ip(p2p::HostId host) {
  return 0x0a000000u | static_cast<core::IpAddress>(host & 0xff);
}

Scenario::Scenario(ScenarioConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  build();
}

Scenario::~Scenario() {
  // The collector captures `this`; it must not outlive the scenario.
  if (telemetry_collector_id_ != 0)
    telemetry::registry().remove_collector(telemetry_collector_id_);
}

std::ptrdiff_t Scenario::sensor_index_for(
    std::uint16_t device_id) const noexcept {
  const int actor = device_id / 256;
  const int index = device_id % 256;
  if (actor >= config_.actors || index >= config_.sensors_per_actor) return -1;
  return static_cast<std::ptrdiff_t>(actor) * config_.sensors_per_actor +
         index;
}

void Scenario::clear_exchange_start(std::size_t sensor_index) noexcept {
  if (exchange_start_[sensor_index] != kNoMark) {
    exchange_start_[sensor_index] = kNoMark;
    --in_flight_;
  }
}

void Scenario::observe_phase(std::uint16_t device_id, const char* phase) {
  if (!telemetry::enabled()) return;
  const std::ptrdiff_t idx = sensor_index_for(device_id);
  if (idx < 0 || phase_mark_[static_cast<std::size_t>(idx)] == kNoMark) return;
  const util::SimTime now = loop_.now();
  telemetry::registry()
      .histogram(kPhaseFamily, "phase", phase, kPhaseHelp)
      .observe(util::to_seconds(now - phase_mark_[static_cast<std::size_t>(idx)]));
  phase_mark_[static_cast<std::size_t>(idx)] = now;
}

void Scenario::end_exchange_telemetry(std::uint16_t device_id,
                                      const char* outcome) {
  const std::ptrdiff_t idx = sensor_index_for(device_id);
  if (idx >= 0) phase_mark_[static_cast<std::size_t>(idx)] = kNoMark;
  telemetry_note_exchange(outcome);
}

void Scenario::build() {
  // Proof-of-stake mode (§6 extension): if no validator set was supplied,
  // the master host is the sole slot leader — the federation analogue of
  // the paper's single mining EC2 instance. Must happen before any
  // Blockchain is constructed so every node validates the same schedule.
  const crypto::EcKeyPair master_key =
      crypto::ec_from_seed(util::str_bytes("scenario-master"));
  if (config_.chain_params.consensus == chain::ConsensusMode::kProofOfStake &&
      config_.chain_params.validators.empty()) {
    config_.chain_params.validators.push_back(
        chain::Validator{crypto::ec_pubkey_encode(master_key.pub), 1});
  }

  net_ = std::make_unique<p2p::SimNet>(loop_, rng_.next());
  net_->set_default_latency(config_.wan_latency);
  radio_ = std::make_unique<lora::LoraRadio>(loop_, rng_.next(),
                                             config_.radio_config);

  p2p::ChainNodeConfig node_config;
  node_config.block_verification_stall = config_.block_verification_stall;
  node_config.stall_median_s = config_.stall_median_s;
  node_config.stall_sigma = config_.stall_sigma;
  node_config.store_fsync = config_.persist_fsync;
  node_config.snapshot_interval = config_.snapshot_interval;

  // Actor hosts (the "PlanetLab nodes").
  for (int a = 0; a < config_.actors; ++a) {
    const p2p::HostId host = net_->add_host("actor" + std::to_string(a));
    if (!config_.persist_dir.empty()) {
      node_config.store_dir =
          config_.persist_dir + "/actor-" + std::to_string(a);
    }
    actor_nodes_.push_back(std::make_unique<p2p::ChainNode>(
        *net_, host, config_.chain_params, node_config, rng_.next()));
  }
  // Master host (the "AWS EC2 instance"): mines, never stalls the others.
  {
    p2p::ChainNodeConfig master_config = node_config;
    if (!config_.persist_dir.empty())
      master_config.store_dir = config_.persist_dir + "/master";
    const p2p::HostId host = net_->add_host("master");
    master_node_ = std::make_unique<p2p::ChainNode>(
        *net_, host, config_.chain_params, master_config, rng_.next());
  }
  master_wallet_ = std::make_unique<chain::Wallet>(
      chain::Wallet::from_seed("scenario-master"));
  miner_ = std::make_unique<chain::Miner>(config_.chain_params,
                                          master_wallet_->pkh());
  miner_->set_pos_key(master_key);

  // Per-actor agents. Each actor runs `gateways_per_actor` gateway agents
  // on its host and elects one master (§4.2 footnote 3); its devices — and
  // the latency hooks — use the master.
  for (int a = 0; a < config_.actors; ++a) {
    auto& node = *actor_nodes_[a];
    core::DirectoryOptions dir_options;
    if (!config_.persist_dir.empty()) {
      // A restarted persistent actor recovers its directory from the index
      // file instead of rescanning the chain.
      dir_options.persist_path = config_.persist_dir + "/actor-" +
                                 std::to_string(a) + "/directory.idx";
    }
    directories_.push_back(
        std::make_unique<core::Directory>(node, std::move(dir_options)));

    std::vector<script::PubKeyHash> candidates;
    std::vector<core::GatewayAgent*> actor_gateways;
    for (int g = 0; g < config_.gateways_per_actor; ++g) {
      gateways_.push_back(std::make_unique<core::GatewayAgent>(
          loop_, *net_, *radio_, node, *directories_.back(),
          chain::Wallet::from_seed("gateway-" + std::to_string(a) + "-" +
                                   std::to_string(g)),
          config_.timing, config_.gateway_config, rng_.next()));
      core::GatewayAgent* gw = gateways_.back().get();
      const lora::RadioGatewayId radio_gw = radio_->add_gateway(
          [gw](lora::RadioDeviceId from, const util::Bytes& frame) {
            gw->on_uplink(from, frame);
          });
      gw->attach_radio(radio_gw);
      candidates.push_back(gw->pkh());
      actor_gateways.push_back(gw);
    }
    masters_.push_back(core::elect_master_gateway(candidates));

    recipients_.push_back(std::make_unique<core::RecipientAgent>(
        loop_, *net_, node,
        chain::Wallet::from_seed("recipient-" + std::to_string(a)),
        config_.timing, config_.recipient_config, rng_.next()));

    // The host carries both the recipient (DELIVER) and its gateways
    // (DELIVER_ACK); each agent filters on message type.
    core::RecipientAgent* recipient = recipients_.back().get();
    node.set_app_handler([recipient, actor_gateways](const p2p::Message& msg) {
      recipient->handle_message(msg);
      for (core::GatewayAgent* gw : actor_gateways) gw->handle_message(msg);
    });

    // Latency hooks go on the elected master (the one devices talk to).
    core::GatewayAgent* gw = &gateway(a);
    gw->on_ephemeral_sent = [this](std::uint16_t device_id) {
      // Only count exchanges the device is actually running (a duty-delayed
      // resend after a write-off must not plant a phantom entry), and keep
      // the earliest timestamp (retries must not skew the latency clock).
      const core::SensorNode* sensor = sensor_for(device_id);
      if (sensor == nullptr || !sensor->busy()) return;
      const std::ptrdiff_t idx = sensor_index_for(device_id);
      if (idx < 0) return;
      const auto i = static_cast<std::size_t>(idx);
      if (exchange_start_[i] == kNoMark) {
        exchange_start_[i] = loop_.now();
        ++in_flight_;
      }
      if (telemetry::enabled()) phase_mark_[i] = loop_.now();
    };
    // Per-phase latency marks: the same clock the headline latency uses,
    // split at each protocol transition.
    gw->on_forwarded = [this](std::uint16_t device_id) {
      observe_phase(device_id, "uplink");
    };
    recipient->on_offer_posted = [this](std::uint16_t device_id) {
      observe_phase(device_id, "offer");
    };
    gw->on_redeemed = [this](std::uint16_t device_id) {
      observe_phase(device_id, "reveal");
    };
    // A reclaimed exchange is over (no data); free the device for new work.
    recipient->on_reclaimed = [this](std::uint16_t device_id) {
      const std::ptrdiff_t idx = sensor_index_for(device_id);
      if (idx >= 0) clear_exchange_start(static_cast<std::size_t>(idx));
      end_exchange_telemetry(device_id, "reclaimed");
      reschedule_report(device_id);
    };
    recipient->on_reading = [this](std::uint16_t device_id,
                                   const util::Bytes&) {
      const std::ptrdiff_t idx = sensor_index_for(device_id);
      if (idx < 0) return;
      const auto sensor_index = static_cast<std::size_t>(idx);
      if (exchange_start_[sensor_index] == kNoMark) return;
      ExchangeRecord record;
      record.device_id = device_id;
      record.ephemeral_sent_at = exchange_start_[sensor_index];
      record.decrypted_at = loop_.now();
      clear_exchange_start(sensor_index);
      observe_phase(device_id, "decrypt");
      end_exchange_telemetry(device_id, "success");
      if (telemetry::enabled()) {
        telemetry::registry()
            .histogram("bcwan_exchange_latency_seconds",
                       "End-to-end exchange latency (ePk sent to decrypt)")
            .observe(record.latency_s());
      }
      latency_streamed_.add(record.latency_s());
      if (records_.size() < config_.keep_records) {
        latency_.add(record.latency_s());
        records_.push_back(record);
      }
      ++completed_;
      // Schedule the device's next report (duty-aware pacing; the run loop
      // starts it once the time comes).
      reschedule_report(device_id);
    };
  }

  // Sensors: actor a's devices attach to the *next* actor's elected master
  // gateway — every message crosses a foreign gateway, the situation BcWAN
  // exists for.
  lora::LoraConfig phy;
  phy.sf = config_.sf;
  for (int a = 0; a < config_.actors; ++a) {
    const int foreign_actor = (a + 1) % config_.actors;
    const int foreign = foreign_actor * config_.gateways_per_actor +
                        static_cast<int>(masters_[foreign_actor]);
    for (int s = 0; s < config_.sensors_per_actor; ++s) {
      const auto device_id = static_cast<std::uint16_t>(a * 256 + s);
      core::NodeProvisioning provisioning =
          core::provision_node(device_id, recipients_[a]->pkh(), rng_);
      recipients_[a]->register_device(provisioning);

      sensors_.push_back(std::make_unique<core::SensorNode>(
          loop_, *radio_, std::move(provisioning), config_.timing,
          core::SensorNodeConfig{}, rng_.next()));
      core::SensorNode* sensor = sensors_.back().get();
      // A failed exchange must not leave a stale start timestamp pinning
      // the device as "in flight".
      sensor->on_exchange_failed = [this](std::uint16_t id) {
        const std::ptrdiff_t idx = sensor_index_for(id);
        if (idx >= 0) clear_exchange_start(static_cast<std::size_t>(idx));
        end_exchange_telemetry(id, "failed");
        reschedule_report(id);
      };
      const lora::RadioDeviceId radio_device = radio_->add_device(
          static_cast<lora::RadioGatewayId>(foreign), phy,
          config_.duty_cycle,
          [sensor](const util::Bytes& frame) { sensor->on_downlink(frame); });
      sensor->attach_radio(radio_device);
      next_report_.push_back(0);
      exchange_start_.push_back(kNoMark);
      phase_mark_.push_back(kNoMark);
    }
  }

  if (telemetry::compiled_in()) {
    // Export-time snapshot of scenario aggregates (no hot-path cost).
    telemetry_collector_id_ = telemetry::registry().add_collector([this] {
      auto& reg = telemetry::registry();
      reg.gauge("bcwan_exchange_in_flight",
                "Exchanges started but not yet completed or written off")
          .set(static_cast<double>(in_flight_));
      reg.gauge("bcwan_sim_virtual_seconds",
                "Scenario event-loop virtual time")
          .set(util::to_seconds(loop_.now()));
      reg.gauge("bcwan_sim_blocks_mined", "Blocks mined by the master")
          .set(static_cast<double>(blocks_mined_));
      std::uint64_t request_retries = 0, data_retx = 0, restarts = 0;
      for (const auto& sensor : sensors_) {
        request_retries += sensor->request_retries();
        data_retx += sensor->data_retransmissions();
        restarts += sensor->exchange_restarts();
      }
      reg.gauge("bcwan_exchange_request_retries",
                "ePk request retries summed over all sensors")
          .set(static_cast<double>(request_retries));
      reg.gauge("bcwan_exchange_data_retransmissions",
                "Data-frame retransmissions summed over all sensors")
          .set(static_cast<double>(data_retx));
      reg.gauge("bcwan_exchange_restarts",
                "Full exchange restarts summed over all sensors")
          .set(static_cast<double>(restarts));
    });
  }
}

void Scenario::bootstrap() {
  // Phase 1: mine the funding chain quickly (the paper's EC2 master
  // "bootstraps the nodes"). Blocks are spaced 1 virtual second so gossip
  // settles between them.
  // Enough mature coinbases to cover every recipient's working budget.
  const auto rewards_needed = static_cast<int>(
      (static_cast<chain::Amount>(config_.actors) * config_.recipient_funding +
       config_.chain_params.block_reward - 1) /
      config_.chain_params.block_reward);
  const int funding_blocks =
      config_.chain_params.coinbase_maturity + rewards_needed + 2;
  for (int i = 0; i < funding_blocks; ++i) {
    loop_.run_until(loop_.now() + util::kSecond);
    const chain::Block block = miner_->mine(
        master_node_->chain(), master_node_->mempool(),
        static_cast<std::uint64_t>(loop_.now() / util::kSecond));
    master_node_->submit_block(block);
    ++blocks_mined_;
  }
  loop_.run_until(loop_.now() + util::kSecond);

  // Phase 2: pay every recipient its working budget.
  for (int a = 0; a < config_.actors; ++a) {
    const auto tx = master_wallet_->create_payment(
        master_node_->chain(), &master_node_->mempool(),
        recipients_[static_cast<std::size_t>(a)]->pkh(),
        config_.recipient_funding, 1000);
    if (!tx) throw std::runtime_error("Scenario: master underfunded");
    if (!master_node_->submit_tx(*tx).ok())
      throw std::runtime_error("Scenario: funding tx rejected");
  }
  loop_.run_until(loop_.now() + util::kSecond);
  {
    const chain::Block block = miner_->mine(
        master_node_->chain(), master_node_->mempool(),
        static_cast<std::uint64_t>(loop_.now() / util::kSecond));
    master_node_->submit_block(block);
    ++blocks_mined_;
  }
  loop_.run_until(loop_.now() + util::kSecond);

  // Phase 3: recipients publish their IPs (§4.3) — these reach every
  // directory through gossip, then get sealed into a block. With block
  // verification stalls enabled the funding block may still be queued at an
  // actor's daemon, so retry until its wallet sees the money.
  for (int a = 0; a < config_.actors; ++a) {
    auto& node = *actor_nodes_[static_cast<std::size_t>(a)];
    bool announced = false;
    for (int attempt = 0; attempt < 900 && !announced; ++attempt) {
      announced = recipients_[static_cast<std::size_t>(a)]->announce_ip(
          host_ip(node.host()), 0);
      if (!announced) loop_.run_until(loop_.now() + util::kSecond);
    }
    if (!announced) throw std::runtime_error("Scenario: announcement failed");
  }
  loop_.run_until(loop_.now() + util::kSecond);
  {
    const chain::Block block = miner_->mine(
        master_node_->chain(), master_node_->mempool(),
        static_cast<std::uint64_t>(loop_.now() / util::kSecond));
    master_node_->submit_block(block);
    ++blocks_mined_;
  }
  loop_.run_until(loop_.now() + util::kSecond);

  // Phase 4: steady-state Poisson mining.
  mining_active_ = true;
  schedule_mining();
}

void Scenario::schedule_mining() {
  const double mean_s = util::to_seconds(config_.chain_params.block_interval);
  const util::SimTime delay = util::from_seconds(rng_.exponential(mean_s));
  mining_timer_armed_ = true;
  loop_.after(delay, [this] {
    if (!mining_active_ || mining_paused_) {
      // The chain of timers stops here; set_mining_paused(false) restarts it.
      mining_timer_armed_ = false;
      return;
    }
    const chain::Block block = miner_->mine(
        master_node_->chain(), master_node_->mempool(),
        static_cast<std::uint64_t>(loop_.now() / util::kSecond));
    master_node_->submit_block(block);
    ++blocks_mined_;
    schedule_mining();
  });
}

void Scenario::set_mining_paused(bool paused) {
  mining_paused_ = paused;
  // Re-arm only if the timer chain actually died while paused — a resume
  // racing a still-armed timer must not fork a second chain (doubled rate).
  if (!paused && mining_active_ && !mining_timer_armed_) schedule_mining();
}

core::SensorNode* Scenario::sensor_for(std::uint16_t device_id) {
  const std::ptrdiff_t idx = sensor_index_for(device_id);
  if (idx < 0 || static_cast<std::size_t>(idx) >= sensors_.size())
    return nullptr;
  return sensors_[static_cast<std::size_t>(idx)].get();
}

void Scenario::reschedule_report(std::uint16_t device_id) {
  const std::ptrdiff_t idx = sensor_index_for(device_id);
  if (idx >= 0 && static_cast<std::size_t>(idx) < next_report_.size()) {
    next_report_[static_cast<std::size_t>(idx)] =
        loop_.now() + util::from_seconds(rng_.exponential(
                          util::to_seconds(config_.report_interval_mean)));
  }
}

void Scenario::start_sensor(std::size_t sensor_index) {
  core::SensorNode& sensor = *sensors_[sensor_index];
  if (sensor.busy()) return;
  // A small reading, like the paper's examples ("temperature, humidity
  // level, ...") — must stay under one AES block.
  char reading[16];
  std::snprintf(reading, sizeof reading, "t=%02d.%drh=%02d%%",
                static_cast<int>(rng_.range(15, 30)),
                static_cast<int>(rng_.below(10)),
                static_cast<int>(rng_.range(20, 70)));
  sensor.start_exchange(util::str_bytes(reading));
}

void Scenario::run_exchanges(std::size_t total_exchanges,
                             util::SimTime deadline) {
  target_exchanges_ = completed_ + total_exchanges;
  // Stagger initial reports across one mean interval so 150 sensors don't
  // all transmit in the same instant.
  for (std::size_t i = 0; i < sensors_.size(); ++i) {
    next_report_[i] =
        loop_.now() +
        static_cast<util::SimTime>(rng_.below(static_cast<std::uint64_t>(
            std::max<util::SimTime>(config_.report_interval_mean, 1))));
  }
  const util::SimTime hard_deadline = loop_.now() + deadline;
  while (completed_ < target_exchanges_ && loop_.now() < hard_deadline) {
    loop_.run_until(loop_.now() + util::kSecond);
    // Write off exchanges whose data frame died on the air (unconfirmed
    // LoRa uplinks are fire-and-forget): their devices become idle again.
    // Linear sweep over the dense per-sensor array.
    for (std::size_t i = 0; i < exchange_start_.size(); ++i) {
      if (exchange_start_[i] == kNoMark ||
          loop_.now() - exchange_start_[i] <= config_.exchange_stale_after) {
        continue;
      }
      const std::uint16_t device_id = sensors_[i]->device_id();
      end_exchange_telemetry(device_id, "timeout");
      reschedule_report(device_id);
      clear_exchange_start(i);
    }
    // Keep idle devices working (e.g. a failed exchange freed a device).
    // A device is idle only if its node is not mid-protocol AND no exchange
    // of its is still settling on-chain.
    if (completed_ + in_flight_ < target_exchanges_) {
      for (std::size_t i = 0; i < sensors_.size(); ++i) {
        if (completed_ + in_flight_ >= target_exchanges_) break;
        core::SensorNode& sensor = *sensors_[i];
        if (loop_.now() >= next_report_[i] && !sensor.busy() &&
            exchange_start_[i] == kNoMark) {
          start_sensor(i);
          // Until this exchange completes (or is written off) the device
          // is covered by busy()/exchange_start_; push next_report_ out so
          // the loop does not double-start while the request is in flight.
          next_report_[i] = loop_.now() + util::kHour;
        }
      }
    }
  }
}

}  // namespace bcwan::sim
