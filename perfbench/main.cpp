// bcwan_perfbench — measurement driver of the BcWAN benchmark.
//
//   bcwan_perfbench --workload W --seed N --seconds S --trace 0|1 --dir DIR
//
// Workloads (README.md says why each exists):
//   exchange_flood  closed-loop exchanges, enough in flight to saturate
//   catchup         fresh persistent daemon syncs a seeded chain, is
//                   SIGKILLed and its store recovered
//   city            CityEngine at its default size over a fixed horizon
//
// Every daemon is a forked child of this process with its own TcpTransport
// and fsync'd ChainStore; this process plays the sensors from one thread.
// Layers are timed from outside: spans wrap the calls this file makes into
// each module. Each process writes DIR/<name>.report (tab-separated lines:
// `c name value` counter, `v name value` sample, `s name xid t0 t1 cpu` span,
// `f key value` fact, `g gate ok detail` gate); run.py reduces them.
//
// Exit status: 0 all gates held, 1 a gate failed, 2 usage/infrastructure.
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bcwan/directory.hpp"
#include "bcwan/envelope.hpp"
#include "bcwan/fair_exchange.hpp"
#include "chain/miner.hpp"
#include "chain/wallet.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"
#include "lora/frame.hpp"
#include "p2p/chain_node.hpp"
#include "p2p/event_loop.hpp"
#include "p2p/tcp_transport.hpp"
#include "sim/citysim.hpp"
#include "sim/invariants.hpp"
#include "store/store.hpp"
#include "util/serial.hpp"

using namespace bcwan;
namespace fs = std::filesystem;
using p2p::HostId;

namespace {

// ---------------------------------------------------------------------------
// Clocks, spans, reports.

std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t rusage_cpu_ns(const rusage& ru) {
  return (std::int64_t{ru.ru_utime.tv_sec} + ru.ru_stime.tv_sec) *
             1'000'000'000 +
         (std::int64_t{ru.ru_utime.tv_usec} + ru.ru_stime.tv_usec) * 1000;
}

std::int64_t process_cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return rusage_cpu_ns(ru);
}

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

struct Span {
  const char* name;
  std::uint64_t xid;
  std::int64_t t0, t1, cpu;
};

/// Per-process span buffer and report; every process is single-threaded
/// where it records, so one global is the whole instrument.
struct Recorder {
  bool tracing = false;
  std::vector<Span> spans;
  std::vector<std::string> lines;  // counters, samples, facts, gates

  void mark(const char* name, std::uint64_t xid) {
    if (!tracing) return;
    const std::int64_t t = now_ns();
    spans.push_back({name, xid, t, t, 0});
  }
  void counter(const std::string& name, double value) {
    lines.push_back("c\t" + name + "\t" + std::to_string(value));
  }
  void sample(const std::string& name, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", value);
    lines.push_back("v\t" + name + "\t" + buf);
  }
  void fact(const std::string& key, const std::string& value) {
    lines.push_back("f\t" + key + "\t" + value);
  }
  bool gate(const std::string& name, bool ok, const std::string& detail) {
    lines.push_back("g\t" + name + "\t" + (ok ? "1" : "0") + "\t" + detail);
    if (!ok) std::fprintf(stderr, "gate %s FAILED: %s\n", name.c_str(),
                          detail.c_str());
    return ok;
  }
  void write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    for (const std::string& line : lines) std::fprintf(f, "%s\n", line.c_str());
    for (const Span& s : spans) {
      std::fprintf(f, "s\t%s\t%llu\t%lld\t%lld\t%lld\n", s.name,
                   static_cast<unsigned long long>(s.xid),
                   static_cast<long long>(s.t0), static_cast<long long>(s.t1),
                   static_cast<long long>(s.cpu));
    }
    std::fclose(f);
  }
};

Recorder g_rec;

/// Times one call into a module while tracing is on.
class Timed {
 public:
  explicit Timed(const char* name, std::uint64_t xid = 0)
      : name_(name), xid_(xid) {
    if (g_rec.tracing) {
      t0_ = now_ns();
      c0_ = thread_cpu_ns();
    }
  }
  ~Timed() {
    if (g_rec.tracing && t0_ != 0) {
      g_rec.spans.push_back(
          {name_, xid_, t0_, now_ns(), thread_cpu_ns() - c0_});
    }
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;
  void tag(std::uint64_t xid) { xid_ = xid; }
  void rename(const char* name) { name_ = name; }

 private:
  const char* name_;
  std::uint64_t xid_;
  std::int64_t t0_ = 0;
  std::int64_t c0_ = 0;
};

// ---------------------------------------------------------------------------
// Shared protocol constants and helpers.

constexpr chain::Amount kPrice = 10'000;
constexpr chain::Amount kFee = 1000;
constexpr int kOfferTimeoutBlocks = 10'000;  // no reclaim inside a run
constexpr std::uint32_t kLoopback = 0x7f000001;

chain::ChainParams bench_params() {
  chain::ChainParams params;
  params.pow_zero_bits = 8;  // block cadence comes from the miner's timer
  params.coinbase_maturity = 2;
  return params;
}

p2p::ChainNodeConfig node_config(const std::string& store_dir) {
  p2p::ChainNodeConfig config;  // bcwand's persistent configuration
  config.store_dir = store_dir;
  config.store_fsync = true;
  config.snapshot_interval = 32;
  return config;
}

util::Bytes wrap(std::uint64_t xid, util::ByteView body) {
  util::Writer w;
  w.u64(xid);
  w.var_bytes(body);
  return w.take();
}

bool unwrap(util::ByteView payload, std::uint64_t& xid, util::Bytes& body) {
  try {
    util::Reader r(payload);
    xid = r.u64();
    body = r.var_bytes();
    r.expect_done();
    return true;
  } catch (const util::DeserializeError&) {
    return false;
  }
}

p2p::Message ctl_msg(HostId from, const std::string& text) {
  return p2p::Message{"ctl", util::Bytes(text.begin(), text.end()), from};
}

std::string payload_text(const p2p::Message& msg) {
  const util::Bytes& b = msg.payload;
  return std::string(b.begin(), b.end());
}

std::vector<std::string> words(const std::string& text) {
  std::istringstream in(text);
  std::vector<std::string> out;
  for (std::string w; in >> w;) out.push_back(w);
  return out;
}

std::string hex(const chain::Hash256& h) {
  return util::to_hex(util::ByteView(h.data(), h.size()));
}

void write_tcp_stats(const p2p::TcpTransport& net) {
  const p2p::TcpStats& s = net.stats();
  g_rec.counter("p2p.frames_out", static_cast<double>(s.frames_out));
  g_rec.counter("p2p.frames_in", static_cast<double>(s.frames_in));
  g_rec.counter("p2p.bytes_out", static_cast<double>(s.bytes_out));
  g_rec.counter("p2p.bytes_in", static_cast<double>(s.bytes_in));
  g_rec.counter("p2p.frames_dropped", static_cast<double>(s.queue_drops));
  g_rec.counter("p2p.frames_rejected", static_cast<double>(s.frames_rejected));
  g_rec.counter("p2p.reconnects", static_cast<double>(s.reconnect_attempts));
}

/// Generate RSA pairs on one thread, pair i from its own substream. On a
/// shared VM several keygen threads get several vCPUs only some of the time,
/// which made set-up time bimodal.
std::vector<crypto::RsaKeyPair> rsa_keys(std::uint64_t seed,
                                         std::uint64_t stream,
                                         std::size_t count) {
  std::vector<crypto::RsaKeyPair> keys;
  for (std::size_t i = 0; i < count; ++i) {
    util::Rng rng = util::Rng::substream(seed, stream, i);
    keys.push_back(crypto::rsa_generate(rng, 512));
  }
  return keys;
}

// ---------------------------------------------------------------------------
// Child processes: fork, port handshake over pipes, reaping.

struct Child {
  pid_t pid = -1;
  int up = -1;    // child -> parent
  int down = -1;  // parent -> child
  rusage ru{};
  bool reaped = false;
};

bool read_line(int fd, std::string& line, int timeout_ms) {
  line.clear();
  const std::int64_t deadline = now_ns() + std::int64_t{timeout_ms} * 1'000'000;
  for (;;) {
    const std::int64_t left_ms = (deadline - now_ns()) / 1'000'000;
    if (left_ms <= 0) return false;
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left_ms)) <= 0) continue;
    char c = 0;
    const ssize_t n = ::read(fd, &c, 1);
    if (n <= 0) return false;
    if (c == '\n') return true;
    line.push_back(c);
  }
}

void write_line(int fd, const std::string& line) {
  const std::string out = line + "\n";
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t n = ::write(fd, out.data() + off, out.size() - off);
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

/// Fork `body(up_fd, down_fd)` into a child that exits with its return code
/// (2 if it throws) without running this process's destructors.
Child spawn(const std::function<int(int, int)>& body) {
  int up[2], down[2];
  if (pipe(up) != 0 || pipe(down) != 0) throw std::runtime_error("pipe");
  std::fflush(nullptr);
  Child c;
  c.pid = fork();
  if (c.pid < 0) throw std::runtime_error("fork");
  if (c.pid == 0) {
    ::close(up[0]);
    ::close(down[1]);
    g_rec.lines.clear();  // the child reports only its own work
    g_rec.spans.clear();
    int code = 2;
    try {
      code = body(up[1], down[0]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench child %d: %s\n", getpid(), e.what());
    }
    std::fflush(nullptr);
    _exit(code);
  }
  ::close(up[1]);
  ::close(down[0]);
  c.up = up[0];
  c.down = down[1];
  return c;
}

/// Wait up to `timeout_ms` for a clean exit, then SIGKILL. Records rusage.
void reap(Child& c, int timeout_ms) {
  if (c.reaped || c.pid <= 0) return;
  const std::int64_t deadline = now_ns() + std::int64_t{timeout_ms} * 1'000'000;
  int status = 0;
  while (now_ns() < deadline) {
    if (wait4(c.pid, &status, WNOHANG, &c.ru) == c.pid) {
      c.reaped = true;
      break;
    }
    usleep(1000);
  }
  if (!c.reaped) {
    kill(c.pid, SIGKILL);
    wait4(c.pid, &status, 0, &c.ru);
    c.reaped = true;
  }
  ::close(c.up);
  ::close(c.down);
}

void kill_and_reap(Child& c) {
  if (!c.reaped && c.pid > 0) kill(c.pid, SIGKILL);
  reap(c, 5000);
}

/// Owns every forked child; the destructor kills and reaps leftovers so no
/// path out of the driver leaves a process behind.
struct Children {
  std::vector<Child> list;
  ~Children() {
    for (Child& c : list) kill_and_reap(c);
  }
};

/// Child side of the handshake: announce our port, learn the table.
std::vector<std::string> child_handshake(p2p::TcpTransport& net, int up,
                                         int down) {
  write_line(up, std::to_string(net.listen_port()));
  std::string table;
  if (!read_line(down, table, 30'000)) throw std::runtime_error("no table");
  std::vector<std::string> addrs;
  std::stringstream in(table);
  for (std::string a; std::getline(in, a, ',');) addrs.push_back(a);
  return addrs;
}

void install_peers(p2p::TcpTransport& net,
                   const std::vector<std::string>& addrs) {
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    if (static_cast<HostId>(i) != net.self() && !addrs[i].empty())
      net.set_peer_address(static_cast<HostId>(i), addrs[i]);
  }
}

std::string addr_of(std::uint16_t port) {
  return "127.0.0.1:" + std::to_string(port);
}

// ---------------------------------------------------------------------------
// Exchange cluster: miner (0), gateway (1), recipient (2), driver (3).

constexpr HostId kMiner = 0;
constexpr HostId kGateway = 1;
constexpr HostId kRecipient = 2;
constexpr HostId kDriver = 3;
const char* const kRoleName[] = {"miner", "gateway", "recipient"};

struct ExchangeInputs {
  std::uint64_t seed = 1;
  std::uint64_t key_stream = 0;  // set-up repetition: fresh sensor keys
  std::string dir;
  std::vector<core::NodeProvisioning> sensors;
};

class ExchangeDaemon {
 public:
  ExchangeDaemon(p2p::TcpTransport& net, const ExchangeInputs& in,
                 std::vector<std::string> table)
      : net_(net),
        self_(net.self()),
        in_(in),
        table_(std::move(table)),
        wallet_(chain::Wallet::from_seed(std::string("perfbench-") +
                                         kRoleName[self_])),
        recipient_pkh_(chain::Wallet::from_seed("perfbench-recipient").pkh()),
        node_(net, self_, params_,
              node_config(in.dir + "/store-" + kRoleName[self_]),
              in.seed * 7919 + static_cast<std::uint64_t>(self_)),
        rng_(util::Rng::substream(in.seed, 100 + self_)) {
    net_.set_handler(self_, [this](const p2p::Message& m) { on_message(m); });
    node_.add_tx_watcher([this](const chain::Transaction& tx) { on_tx(tx); });
    node_.add_block_watcher(
        [this](const chain::Block& b) { on_block(b); });
    if (self_ == kGateway) directory_ = std::make_unique<core::Directory>(node_);
    if (self_ == kMiner)
      miner_ = std::make_unique<chain::Miner>(params_, recipient_pkh_);
  }

  void start() { reply("ready"); }

 private:
  void reply(const std::string& text) {
    net_.send(self_, kDriver, ctl_msg(self_, text));
  }

  // Transport handler: the one place every inbound frame passes, so the
  // top-level spans here cover all attributed daemon work.
  void on_message(const p2p::Message& msg) {
    // Gossip that the node already has is dropped after a hash lookup;
    // those spans get their own name so they do not dilute admission cost.
    if (msg.type == "tx") {
      Timed span("chain.handle_tx");
      ++tx_msgs_;
      cur_xid_ = 0;
      const std::uint64_t before = node_.txs_seen();
      node_.handle_message(msg);
      span.tag(cur_xid_);
      if (node_.txs_seen() == before) span.rename("chain.handle_tx_dup");
    } else if (msg.type == "block") {
      Timed span("chain.handle_block");
      const std::uint64_t before = node_.blocks_seen();
      node_.handle_message(msg);
      if (node_.blocks_seen() == before) span.rename("chain.handle_block_dup");
    } else if (msg.type == "lora") {
      Timed span("app.lora");
      on_lora(msg);
    } else if (msg.type == "deliver") {
      Timed span("app.deliver");
      on_deliver(msg);
    } else if (msg.type == "ctl") {
      Timed span("app.ctl");
      on_ctl(payload_text(msg));
    } else {
      Timed span("app.other");
      node_.handle_message(msg);
    }
  }

  // -- Gateway: LoRa uplinks from the sensors. --

  void on_lora(const p2p::Message& msg) {
    std::uint64_t xid = 0;
    util::Bytes frame;
    if (self_ != kGateway || !unwrap(msg.payload, xid, frame)) {
      ++bad_msgs_;
      return;
    }
    const auto type = lora::peek_frame_type(frame);
    if (type == lora::FrameType::kUplinkRequest) {
      std::optional<lora::UplinkRequestFrame> req;
      {
        Timed span("lora.frame", xid);
        req = lora::UplinkRequestFrame::decode(frame);
      }
      if (!req) {
        ++bad_msgs_;
        return;
      }
      crypto::RsaKeyPair pair;
      {
        Timed span("crypto.keygen", xid);
        pair = crypto::rsa_generate(rng_, 512);
      }
      util::Bytes out;
      {
        Timed span("lora.frame", xid);
        out = lora::EphemeralKeyFrame{req->device_id, pair.pub}.encode();
      }
      sales_.emplace(xid, std::make_unique<core::FairExchangeSeller>(
                              wallet_, std::move(pair)));
      net_.send(self_, kDriver, p2p::Message{"lora", wrap(xid, out), self_});
    } else if (type == lora::FrameType::kUplinkData) {
      std::optional<lora::UplinkDataFrame> data;
      {
        Timed span("lora.frame", xid);
        data = lora::UplinkDataFrame::decode(frame);
      }
      const auto sale = sales_.find(xid);
      if (!data || sale == sales_.end()) {
        ++bad_msgs_;
        return;
      }
      std::optional<core::DirectoryEntry> entry;
      {
        Timed span("bcwan.directory_lookup", xid);
        entry = directory_->lookup(data->recipient);
      }
      const HostId dest = entry ? host_for_port(entry->port) : -1;
      if (dest < 0) {
        ++lookup_misses_;
        return;
      }
      core::DeliverPayload deliver;
      deliver.device_id = data->device_id;
      deliver.em = data->em;
      deliver.sig = data->sig;
      deliver.ephemeral_pub = sale->second->ephemeral_pub();
      deliver.gateway = wallet_.pkh();
      deliver.price_quote = kPrice;
      net_.send(self_, dest,
                p2p::Message{"deliver", wrap(xid, deliver.serialize()), self_});
    } else {
      ++bad_msgs_;
    }
  }

  HostId host_for_port(std::uint16_t port) const {
    for (std::size_t i = 0; i < table_.size(); ++i) {
      if (table_[i] == addr_of(port)) return static_cast<HostId>(i);
    }
    return -1;
  }

  // -- Recipient: DELIVER -> verify -> offer. --

  void on_deliver(const p2p::Message& msg) {
    std::uint64_t xid = 0;
    util::Bytes body;
    if (self_ != kRecipient || !unwrap(msg.payload, xid, body)) {
      ++bad_msgs_;
      return;
    }
    g_rec.mark("x.deliver", xid);
    auto payload = core::DeliverPayload::deserialize(body);
    if (!payload || payload->device_id >= in_.sensors.size()) {
      ++bad_msgs_;
      return;
    }
    const core::NodeProvisioning& prov = in_.sensors[payload->device_id];
    bool authentic = false;
    {
      Timed span("bcwan.verify_envelope", xid);
      authentic = core::verify_envelope(
          prov.node_verify_key, core::Envelope{payload->em, payload->sig},
          payload->ephemeral_pub);
    }
    if (!authentic) {
      ++verify_failures_;
      return;
    }
    auto buyer = std::make_unique<core::FairExchangeBuyer>(
        wallet_, payload->ephemeral_pub, payload->gateway,
        payload->price_quote, kFee, kOfferTimeoutBlocks);
    std::optional<chain::Transaction> offer;
    {
      Timed span("bcwan.make_offer", xid);
      offer = buyer->make_offer(node_.chain(), &node_.mempool());
    }
    if (!offer) {
      ++offer_failures_;
      return;
    }
    buys_.emplace(xid, Buy{std::move(buyer), payload->device_id,
                           std::move(payload->em)});
    submit(*offer, xid);
  }

  void submit(const chain::Transaction& tx, std::uint64_t xid) {
    Timed span("chain.submit_tx", xid);
    ++submits_;
    if (!node_.submit_tx(tx).ok()) ++tx_rejects_;
  }

  // -- Mempool watcher: gateway redeems, recipient observes the reveal. --

  void on_tx(const chain::Transaction& tx) {
    if (self_ == kGateway) {
      std::vector<std::pair<std::uint64_t, chain::Transaction>> redeems;
      for (auto& [xid, seller] : sales_) {
        ++redeem_calls_;
        std::optional<chain::Transaction> redeem;
        {
          // Tagged only when useful: a miss is scan waste, not work for
          // the exchange whose sale was scanned.
          Timed span("bcwan.try_redeem");
          redeem = seller->try_redeem(tx, kFee);
          if (redeem) span.tag(xid);
        }
        if (redeem) redeems.emplace_back(xid, std::move(*redeem));
      }
      for (auto& [xid, redeem] : redeems) {
        ++redeem_hits_;
        sales_.erase(xid);
        cur_xid_ = xid;
        g_rec.mark("x.redeem", xid);
        submit(redeem, xid);
      }
    } else if (self_ == kRecipient) {
      std::vector<std::pair<std::uint64_t, crypto::RsaPrivateKey>> reveals;
      for (auto& [xid, buy] : buys_) {
        ++observe_calls_;
        std::optional<crypto::RsaPrivateKey> esk;
        {
          Timed span("bcwan.observe");
          esk = buy.buyer->observe(tx);
          if (esk) span.tag(xid);
        }
        if (esk) reveals.emplace_back(xid, std::move(*esk));
      }
      for (auto& [xid, esk] : reveals) {
        ++observe_hits_;
        cur_xid_ = xid;
        g_rec.mark("x.esk", xid);
        const auto it = buys_.find(xid);
        std::optional<util::Bytes> plain;
        {
          Timed span("bcwan.open_envelope", xid);
          plain = core::open_envelope(in_.sensors[it->second.device].k, esk,
                                      it->second.em);
        }
        buys_.erase(it);
        if (!plain) {
          ++decrypt_failures_;
          continue;
        }
        net_.send(self_, kDriver, p2p::Message{"done", wrap(xid, *plain), self_});
      }
    }
  }

  void on_block(const chain::Block& block) {
    ++blocks_;
    block_txs_ += block.txs.size();
    if (wait_height_ >= 0 && node_.chain().height() >= wait_height_) {
      reply("at " + std::to_string(node_.chain().height()));
      wait_height_ = -1;
    }
  }

  // -- Miner. --

  void mine_one() {
    Timed top("miner.tick");
    chain::Block block;
    {
      Timed span("chain.mine");
      block = miner_->mine(node_.chain(), node_.mempool(),
                           static_cast<std::uint64_t>(node_.chain().height() + 1));
    }
    Timed span("chain.submit_block");
    node_.submit_block(block);
  }

  void arm_mining(int interval_ms) {
    net_.add_timer(interval_ms * util::kMillisecond, [this, interval_ms] {
      if (!mining_) return;
      mine_one();
      arm_mining(interval_ms);
    });
  }

  // -- Control channel from the driver. --

  void on_ctl(const std::string& text) {
    const auto w = words(text);
    if (w.empty()) return;
    const std::string& cmd = w[0];
    const int arg = w.size() > 1 ? std::atoi(w[1].c_str()) : 0;
    if (cmd == "mine") {
      mine_one();
      reply("mined " + std::to_string(node_.chain().height()));
    } else if (cmd == "run") {
      mining_ = true;
      arm_mining(arg);
      reply("running");
    } else if (cmd == "halt") {
      mining_ = false;
      reply("halted");
    } else if (cmd == "height") {
      if (node_.chain().height() >= arg) {
        reply("at " + std::to_string(node_.chain().height()));
      } else {
        wait_height_ = arg;
      }
    } else if (cmd == "split") {
      int made = 0;
      for (int i = 0; i < arg; ++i) {
        const auto coins = wallet_.spendable(node_.chain(), &node_.mempool());
        if (coins.empty()) break;
        const auto pay = wallet_.create_payment(
            node_.chain(), &node_.mempool(), wallet_.pkh(),
            coins.front().second.out.value / 2, kFee);
        if (!pay || !node_.submit_tx(*pay).ok()) break;
        ++made;
      }
      reply("split " + std::to_string(made));
    } else if (cmd == "announce") {
      const auto tx = wallet_.create_announcement(
          node_.chain(), &node_.mempool(),
          core::encode_directory_entry(wallet_.pkh(), kLoopback,
                                       static_cast<std::uint16_t>(arg)),
          kFee);
      reply(std::string("announced ") +
            (tx && node_.submit_tx(*tx).ok() ? "1" : "0"));
    } else if (cmd == "lookup") {
      reply(std::string("lookup ") +
            (directory_ && directory_->lookup(recipient_pkh_) ? "1" : "0"));
    } else if (cmd == "cpu") {
      reply("cpu " + std::to_string(process_cpu_ns()));
    } else if (cmd == "trace") {
      g_rec.tracing = arg != 0;
    } else if (cmd == "state") {
      sim::InvariantReport settle;
      const sim::SettlementTally tally =
          sim::check_settlement_invariants(node_.chain(), settle);
      const bool chain_ok = sim::check_chain_invariants(node_.chain()).ok();
      reply("state " + std::to_string(node_.chain().height()) + " " +
            hex(node_.chain().tip_hash()) + " " +
            hex(node_.chain().state_hash()) + " " + (chain_ok ? "1" : "0") +
            " " + (settle.ok() ? "1" : "0") + " " +
            std::to_string(tally.redeemed) + " " +
            std::to_string(tally.reclaimed) + " " +
            std::to_string(tally.open));
    } else if (cmd == "stop") {
      write_report();
      net_.stop();
    }
  }

  void write_report() {
    g_rec.counter("chain.tx_msgs", static_cast<double>(tx_msgs_));
    g_rec.counter("chain.tx_accepts", static_cast<double>(node_.txs_seen()));
    g_rec.counter("chain.blocks", static_cast<double>(blocks_));
    g_rec.counter("chain.block_txs", static_cast<double>(block_txs_));
    g_rec.counter("chain.submits", static_cast<double>(submits_));
    g_rec.counter("chain.tx_rejects", static_cast<double>(tx_rejects_));
    g_rec.counter("bcwan.redeem_calls", static_cast<double>(redeem_calls_));
    g_rec.counter("bcwan.redeem_hits", static_cast<double>(redeem_hits_));
    g_rec.counter("bcwan.observe_calls", static_cast<double>(observe_calls_));
    g_rec.counter("bcwan.observe_hits", static_cast<double>(observe_hits_));
    g_rec.counter("bcwan.verify_failures",
                  static_cast<double>(verify_failures_));
    g_rec.counter("bcwan.decrypt_failures",
                  static_cast<double>(decrypt_failures_));
    g_rec.counter("bcwan.offer_failures", static_cast<double>(offer_failures_));
    g_rec.counter("bcwan.lookup_misses", static_cast<double>(lookup_misses_));
    g_rec.counter("app.bad_msgs", static_cast<double>(bad_msgs_));
    g_rec.counter("p2p.sync_requests",
                  static_cast<double>(node_.sync_requests()));
    g_rec.counter("p2p.sync_blocks_served",
                  static_cast<double>(node_.sync_blocks_served()));
    if (node_.store() != nullptr) {
      g_rec.counter("store.log_bytes",
                    static_cast<double>(node_.store()->log_bytes()));
    }
    write_tcp_stats(net_);
    g_rec.write(in_.dir + "/" + kRoleName[self_] + ".report");
  }

  struct Buy {
    std::unique_ptr<core::FairExchangeBuyer> buyer;
    std::uint16_t device = 0;
    util::Bytes em;
  };

  p2p::TcpTransport& net_;
  HostId self_;
  const ExchangeInputs& in_;
  std::vector<std::string> table_;
  chain::ChainParams params_ = bench_params();
  chain::Wallet wallet_;
  script::PubKeyHash recipient_pkh_;
  p2p::ChainNode node_;
  util::Rng rng_;
  std::unique_ptr<core::Directory> directory_;
  std::unique_ptr<chain::Miner> miner_;
  bool mining_ = false;
  int wait_height_ = -1;
  std::uint64_t cur_xid_ = 0;
  std::map<std::uint64_t, std::unique_ptr<core::FairExchangeSeller>> sales_;
  std::map<std::uint64_t, Buy> buys_;
  std::uint64_t tx_msgs_ = 0, blocks_ = 0, block_txs_ = 0, submits_ = 0,
                tx_rejects_ = 0, redeem_calls_ = 0, redeem_hits_ = 0,
                observe_calls_ = 0, observe_hits_ = 0, verify_failures_ = 0,
                decrypt_failures_ = 0, offer_failures_ = 0,
                lookup_misses_ = 0, bad_msgs_ = 0;
};

int run_exchange_daemon(HostId self, const ExchangeInputs& in, int up,
                        int down) {
  p2p::TcpTransportConfig cfg;
  cfg.self = self;
  cfg.seed = in.seed + static_cast<std::uint64_t>(self);
  p2p::TcpTransport net(cfg);
  const auto table = child_handshake(net, up, down);
  install_peers(net, table);
  ExchangeDaemon daemon(net, in, table);
  daemon.start();
  net.run();
  // Flush the last replies before exiting.
  const util::SimTime until = net.now() + 100 * util::kMillisecond;
  while (net.now() < until) net.poll(5);
  return 0;
}

// ---------------------------------------------------------------------------
// Driver-side plumbing shared by the cluster workloads.

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string dir;
};

/// The driver's transport plus a control-reply inbox.
class DriverNet {
 public:
  DriverNet(HostId self, const std::vector<std::string>& table)
      : net_([&] {
          p2p::TcpTransportConfig cfg;
          cfg.self = self;
          cfg.listen = table[static_cast<std::size_t>(self)];
          return cfg;
        }()) {
    install_peers(net_, table);
    net_.set_handler(self, [this](const p2p::Message& m) {
      if (m.type == "ctl") {
        inbox_.emplace_back(m.from, payload_text(m));
      } else if (on_app_) {
        on_app_(m);
      }
    });
  }

  p2p::TcpTransport& net() { return net_; }
  void on_app(std::function<void(const p2p::Message&)> fn) {
    on_app_ = std::move(fn);
  }

  void send(HostId to, const std::string& text) {
    net_.send(net_.self(), to, ctl_msg(net_.self(), text));
  }

  /// Pump until `from` replies with a message whose first word is `word`.
  std::string await(HostId from, const std::string& word, int timeout_ms) {
    const std::int64_t deadline =
        now_ns() + std::int64_t{timeout_ms} * 1'000'000;
    for (;;) {
      for (auto it = inbox_.begin(); it != inbox_.end(); ++it) {
        if (it->first == from && it->second.rfind(word, 0) == 0) {
          std::string text = it->second;
          inbox_.erase(it);
          return text;
        }
      }
      if (now_ns() > deadline) {
        throw std::runtime_error("timed out waiting for '" + word +
                                 "' from host " + std::to_string(from));
      }
      net_.poll(1);
    }
  }

  std::string call(HostId to, const std::string& text, const std::string& word,
                   int timeout_ms = 30'000) {
    send(to, text);
    return await(to, word, timeout_ms);
  }

  void pump_for(int ms_total) {
    const std::int64_t until = now_ns() + std::int64_t{ms_total} * 1'000'000;
    while (now_ns() < until) net_.poll(1);
  }

 private:
  p2p::TcpTransport net_;
  std::vector<std::pair<HostId, std::string>> inbox_;
  std::function<void(const p2p::Message&)> on_app_;
};

/// Parent side of the handshake: collect every child's port into the
/// address table. The driver's own slot is filled in once it has bound.
std::vector<std::string> parent_handshake(std::vector<Child>& kids,
                                          std::size_t driver_slot,
                                          std::size_t table_size) {
  std::vector<std::string> table(table_size);
  for (std::size_t i = 0; i < kids.size(); ++i) {
    std::string port;
    if (!read_line(kids[i].up, port, 30'000))
      throw std::runtime_error("child did not report its port");
    table[i] = addr_of(static_cast<std::uint16_t>(std::atoi(port.c_str())));
  }
  table[driver_slot] = "127.0.0.1:0";
  return table;
}

std::string join(const std::vector<std::string>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) out += (i ? "," : "") + v[i];
  return out;
}

double vmhwm_mib(const rusage& ru) {
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}


// ---------------------------------------------------------------------------
// exchange_flood: closed loop, one exchange in flight per sensor.

constexpr int kInFlight = 16;  // sensors, each with one exchange in flight
constexpr std::int64_t kDeadlineNs = 10'000'000'000;  // undecrypted = failed
constexpr int kBlockIntervalMs = 500;
// Set-up repeats per run (setup_s is their median). Each repetition draws
// fresh keys from the seed, so the heavy tail of RSA keygen time is
// sampled several times instead of once; the last repetition is measured.
constexpr int kSetupReps = 9;
constexpr int kSplitOutputs = 32;
constexpr int kWarmupMs = 1000;

struct Cluster {
  Children kids;
  std::vector<std::string> table;
  std::unique_ptr<DriverNet> net;
};

/// Mine one block and wait until every daemon has connected it.
void mine_and_sync(DriverNet& net) {
  const auto w = words(net.call(kMiner, "mine", "mined"));
  const std::string height = w.at(1);
  for (HostId h : {kGateway, kRecipient}) net.call(h, "height " + height, "at");
}

/// Set-up: provision the sensors, fork the daemons, fund the recipient and
/// split its coins, publish its directory entry on-chain.
void setup_cluster(Cluster& cl, ExchangeInputs& in, int sensors) {
  const auto keys = rsa_keys(in.seed, 1000 + in.key_stream,
                            static_cast<std::size_t>(sensors));
  util::Rng rng = util::Rng::substream(in.seed, 2);
  const script::PubKeyHash recipient =
      chain::Wallet::from_seed("perfbench-recipient").pkh();
  in.sensors.clear();
  for (int d = 0; d < sensors; ++d) {
    core::NodeProvisioning prov;
    prov.device_id = static_cast<std::uint16_t>(d);
    const util::Bytes k = rng.bytes(prov.k.size());
    std::copy(k.begin(), k.end(), prov.k.begin());
    prov.node_signing_key = keys[static_cast<std::size_t>(d)].priv;
    prov.node_verify_key = keys[static_cast<std::size_t>(d)].pub;
    prov.recipient = recipient;
    in.sensors.push_back(std::move(prov));
  }

  for (HostId h : {kMiner, kGateway, kRecipient}) {
    cl.kids.list.push_back(spawn([h, &in](int up, int down) {
      return run_exchange_daemon(h, in, up, down);
    }));
  }
  cl.table = parent_handshake(cl.kids.list, kDriver, 4);
  cl.net = std::make_unique<DriverNet>(kDriver, cl.table);
  cl.table[kDriver] = addr_of(cl.net->net().listen_port());
  for (Child& c : cl.kids.list) write_line(c.down, join(cl.table));
  DriverNet& net = *cl.net;
  for (HostId h : {kMiner, kGateway, kRecipient}) net.await(h, "ready", 30'000);

  for (int i = 0; i < bench_params().coinbase_maturity + 1; ++i)
    mine_and_sync(net);
  net.call(kRecipient, "split " + std::to_string(kSplitOutputs), "split");
  const std::string& raddr = cl.table[kRecipient];
  const auto announced = words(net.call(
      kRecipient, "announce " + raddr.substr(raddr.rfind(':') + 1),
      "announced"));
  if (announced.at(1) != "1") throw std::runtime_error("announce failed");
  mine_and_sync(net);
  if (words(net.call(kGateway, "lookup", "lookup")).at(1) != "1")
    throw std::runtime_error("gateway cannot resolve the recipient");
}

struct Exchange {
  std::uint64_t xid = 0;
  std::uint16_t device = 0;
  std::int64_t req = 0, done = 0;
  util::Bytes reading;
  bool finished = false;  // decrypted (possibly late)
  bool expired = false;   // missed its deadline
};

/// The sensors: one thread issuing LoRa frames to the gateway and taking
/// the recipient's decrypt receipts. Closed loop: a sensor issues its next
/// exchange as soon as its last one decrypts or misses its deadline.
class LoadGen {
 public:
  LoadGen(DriverNet& net, const ExchangeInputs& in)
      : net_(net),
        in_(in),
        rng_(util::Rng::substream(in.seed, 3)),
        busy_(static_cast<std::size_t>(kInFlight), false) {
    net_.on_app([this](const p2p::Message& m) { on_app(m); });
  }

  /// Keep every sensor busy until `until` (monotonic ns).
  void drive(std::int64_t until) {
    issuing_ = true;
    for (int d = 0; d < kInFlight; ++d) {
      if (!busy_[static_cast<std::size_t>(d)]) issue(static_cast<std::uint16_t>(d));
    }
    while (now_ns() < until) {
      net_.net().poll(1);
      expire();
    }
  }

  /// Stop issuing; wait for in-flight exchanges to decrypt or expire.
  void drain() {
    issuing_ = false;
    while (in_flight() > 0) {
      net_.net().poll(1);
      expire();
    }
  }

  std::size_t in_flight() const {
    return static_cast<std::size_t>(std::count(busy_.begin(), busy_.end(), true));
  }
  const std::vector<Exchange>& exchanges() const { return ex_; }
  std::uint64_t decrypted() const { return decrypted_; }
  std::uint64_t mismatches() const { return mismatches_; }

 private:
  void issue(std::uint16_t device) {
    Exchange x;
    x.xid = ex_.size() + 1;
    x.device = device;
    x.reading = rng_.bytes(12);
    x.req = now_ns();
    g_rec.mark("x.req", x.xid);
    util::Bytes frame;
    {
      Timed span("lora.frame", x.xid);
      frame = lora::UplinkRequestFrame{device}.encode();
    }
    busy_[device] = true;
    index_[x.xid] = ex_.size();
    ex_.push_back(std::move(x));
    net_.net().send(kDriver, kGateway,
                    p2p::Message{"lora", wrap(ex_.back().xid, frame), kDriver});
  }

  void on_app(const p2p::Message& msg) {
    const bool is_lora = msg.type == "lora";
    if (!is_lora && !(msg.type == "done")) return;  // gossip: not a sensor's
    std::uint64_t xid = 0;
    util::Bytes body;
    if (!unwrap(msg.payload, xid, body)) return;
    const auto it = index_.find(xid);
    if (it == index_.end()) return;
    Exchange& x = ex_[it->second];
    if (is_lora) {
      g_rec.mark("x.epk", xid);
      std::optional<lora::EphemeralKeyFrame> epk;
      {
        Timed span("lora.frame", xid);
        epk = lora::EphemeralKeyFrame::decode(body);
      }
      if (!epk) return;
      const core::NodeProvisioning& prov = in_.sensors[x.device];
      core::Envelope env;
      {
        Timed span("bcwan.seal", xid);
        env = core::seal_reading(prov, x.reading, epk->ephemeral_pub, rng_);
      }
      util::Bytes frame;
      {
        Timed span("lora.frame", xid);
        frame = lora::UplinkDataFrame{x.device, prov.recipient, env.em, env.sig}
                    .encode();
      }
      net_.net().send(kDriver, kGateway,
                      p2p::Message{"lora", wrap(xid, frame), kDriver});
      return;
    }
    if (x.finished) return;
    g_rec.mark("x.done", xid);
    x.done = now_ns();
    x.finished = true;
    ++decrypted_;
    if (body != x.reading) ++mismatches_;
    if (!x.expired) release(x);
  }

  void release(Exchange& x) {
    busy_[x.device] = false;
    if (issuing_) issue(x.device);
  }

  void expire() {
    const std::int64_t now = now_ns();
    for (std::size_t i = first_open_; i < ex_.size(); ++i) {
      Exchange& x = ex_[i];
      if (x.finished || x.expired) {
        if (i == first_open_) ++first_open_;
        continue;
      }
      if (now - x.req > kDeadlineNs) {
        x.expired = true;
        release(x);
      }
    }
  }

  DriverNet& net_;
  const ExchangeInputs& in_;
  util::Rng rng_;
  std::vector<bool> busy_;
  std::vector<Exchange> ex_;
  std::unordered_map<std::uint64_t, std::size_t> index_;
  std::size_t first_open_ = 0;
  bool issuing_ = false;
  std::uint64_t decrypted_ = 0;
  std::uint64_t mismatches_ = 0;
};

/// A daemon's reply to "state": its chain view and settlement tally.
struct DaemonState {
  std::string tip, state, redeemed, reclaimed, open;
  bool chain_ok = false, settlement_ok = false;

  static DaemonState parse(const std::string& reply) {
    const auto w = words(reply);  // state height tip state ok ok r r o
    DaemonState s;
    s.tip = w.at(2);
    s.state = w.at(3);
    s.chain_ok = w.at(4) == "1";
    s.settlement_ok = w.at(5) == "1";
    s.redeemed = w.at(6);
    s.reclaimed = w.at(7);
    s.open = w.at(8);
    return s;
  }
};

/// Per-daemon CPU at one instant, requested without blocking the load.
std::vector<std::int64_t> collect_cpu(DriverNet& net) {
  std::vector<std::int64_t> cpu;
  for (HostId h : {kMiner, kGateway, kRecipient})
    cpu.push_back(std::atoll(words(net.await(h, "cpu", 30'000)).at(1).c_str()));
  return cpu;
}

void request_cpu(DriverNet& net) {
  for (HostId h : {kMiner, kGateway, kRecipient}) net.send(h, "cpu");
}

int exchange_workload(const Options& opt) {
  ExchangeInputs in;
  in.seed = opt.seed;
  Cluster cl;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (rep > 0) {
      for (Child& c : cl.kids.list) kill_and_reap(c);
      cl.kids.list.clear();
      cl.net.reset();
      fs::remove_all(in.dir);
    }
    in.dir = opt.dir + "/cluster" + std::to_string(rep);
    in.key_stream = static_cast<std::uint64_t>(rep);
    fs::create_directories(in.dir);
    const std::int64_t t0 = now_ns();
    setup_cluster(cl, in, kInFlight);
    g_rec.sample("setup_s", static_cast<double>(now_ns() - t0) / 1e9);
  }
  DriverNet& net = *cl.net;
  LoadGen gen(net, in);
  net.call(kMiner, "run " + std::to_string(kBlockIntervalMs), "running");
  const std::int64_t warm = now_ns();
  const std::int64_t w0 = warm + std::int64_t{kWarmupMs} * 1'000'000;
  const std::int64_t window = std::int64_t{opt.seconds} * 1'000'000'000;
  gen.drive(w0);

  request_cpu(net);
  std::int64_t wh = w0;  // traced half starts here (trace runs only)
  std::vector<std::int64_t> cpu_h;
  if (opt.trace) {
    wh = w0 + window / 2;
    gen.drive(wh);
    request_cpu(net);
    for (HostId h : {kMiner, kGateway, kRecipient}) net.send(h, "trace 1");
    g_rec.tracing = true;
  }
  gen.drive(w0 + window);
  const std::int64_t w1 = now_ns();
  request_cpu(net);
  if (opt.trace) {
    for (HostId h : {kMiner, kGateway, kRecipient}) net.send(h, "trace 0");
    g_rec.tracing = false;
  }
  gen.drain();
  const auto cpu0 = collect_cpu(net);
  if (opt.trace) cpu_h = collect_cpu(net);
  const auto cpu1 = collect_cpu(net);

  // Settle: stop the timer, mine until every offer is redeemed on-chain.
  net.call(kMiner, "halt", "halted");
  std::vector<DaemonState> states;
  for (int round = 0; round < 8; ++round) {
    net.pump_for(100);
    mine_and_sync(net);
    states.clear();
    for (HostId h : {kMiner, kGateway, kRecipient}) net.send(h, "state");
    for (HostId h : {kMiner, kGateway, kRecipient})
      states.push_back(DaemonState::parse(net.await(h, "state", 30'000)));
    if (states[0].open == "0") break;
  }

  // Reduce the driver's view of every exchange.
  std::uint64_t attempted = 0, failed = 0, completed_in_window = 0,
                completed_traced = 0, timed = 0, timed_traced = 0;
  for (const Exchange& x : gen.exchanges()) {
    if (x.finished && x.done >= w0 && x.done < w1) {
      ++completed_in_window;
      if (x.done >= wh && opt.trace) ++completed_traced;
    }
    if (x.req < w0 || x.req >= w1) continue;
    ++attempted;
    const bool ok = x.finished && !x.expired;
    if (!ok) {
      ++failed;
      continue;
    }
    const bool in_traced_half = opt.trace && x.req >= wh;
    g_rec.sample(in_traced_half ? "latency_ms_traced" : "latency_ms",
                 ms(x.done - x.req));
    ++(in_traced_half ? timed_traced : timed);
  }
  const double window_s = static_cast<double>(w1 - w0) / 1e9;
  g_rec.counter("attempted", static_cast<double>(attempted));
  g_rec.counter("failed", static_cast<double>(failed));
  g_rec.counter("completed", static_cast<double>(completed_in_window));
  g_rec.counter("decrypted", static_cast<double>(gen.decrypted()));
  g_rec.counter("completed_traced", static_cast<double>(completed_traced));
  g_rec.counter("completed_untraced",
                static_cast<double>(completed_in_window - completed_traced));
  g_rec.counter("window_s", window_s);
  g_rec.counter("traced_s", static_cast<double>(w1 - wh) / 1e9);
  for (std::size_t i = 0; i < 3; ++i) {
    const std::string role = kRoleName[i];
    g_rec.counter(role + ".cpu_window_ms", ms(cpu1[i] - cpu0[i]));
    if (opt.trace) {
      g_rec.counter(role + ".cpu_untraced_ms", ms(cpu_h[i] - cpu0[i]));
      g_rec.counter(role + ".cpu_traced_ms", ms(cpu1[i] - cpu_h[i]));
    }
  }

  // Correctness gates.
  bool ok = true;
  // A run in which nothing decrypts has no latency to report.
  ok &= g_rec.gate("decrypted",
                   completed_in_window > 0 && timed > 0 &&
                       (!opt.trace || timed_traced > 0),
                   std::to_string(completed_in_window) + " decrypts in window, " +
                       std::to_string(attempted - failed) + " of " +
                       std::to_string(attempted) + " attempts on time");
  ok &= g_rec.gate("plaintext", gen.mismatches() == 0,
                   std::to_string(gen.mismatches()) + " readings differ");
  bool agree = true, invariants = true;
  for (const DaemonState& s : states) {
    agree &= s.tip == states[0].tip && s.state == states[0].state;
    invariants &= s.chain_ok && s.settlement_ok;
  }
  ok &= g_rec.gate("tips_agree", agree, "tip and state hash on all daemons");
  ok &= g_rec.gate("invariants", invariants, "chain + settlement invariants");
  const DaemonState& s0 = states[0];
  ok &= g_rec.gate("settlement",
                   s0.redeemed == std::to_string(gen.decrypted()) &&
                       s0.reclaimed == "0" && s0.open == "0",
                   "redeemed " + s0.redeemed + " reclaimed " + s0.reclaimed +
                       " open " + s0.open + " decrypted " +
                       std::to_string(gen.decrypted()));

  for (HostId h : {kMiner, kGateway, kRecipient}) net.send(h, "stop");
  net.pump_for(50);
  double peak_rss = 0;
  for (std::size_t i = 0; i < cl.kids.list.size(); ++i) {
    reap(cl.kids.list[i], 10'000);
    peak_rss = std::max(peak_rss, vmhwm_mib(cl.kids.list[i].ru));
    g_rec.counter(std::string(kRoleName[i]) + ".cpu_total_ms",
                  ms(rusage_cpu_ns(cl.kids.list[i].ru)));
  }
  g_rec.counter("peak_rss_mb", peak_rss);
  write_tcp_stats(net.net());
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// catchup: source daemon (0), driver (1), fresh daemons (2, 3, ...).

constexpr HostId kSource = 0;
constexpr HostId kCatchupDriver = 1;
constexpr int kSourceBlocks = 40;
constexpr int kOffersPerBlock = 4;
constexpr int kPaymentsPerBlock = 6;
constexpr int kCatchupSetupReps = 3;  // each generates a whole chain

/// Build the seeded source chain into `node`: every block carries fresh
/// Listing-1 offers, the redeems of the previous block's offers (each
/// revealing a distinct eSk) and plain payments.
void generate_source_chain(p2p::ChainNode& node, std::uint64_t seed,
                           std::uint64_t key_stream) {
  const chain::ChainParams params = bench_params();
  const chain::Wallet buyer = chain::Wallet::from_seed("perfbench-buyer");
  const chain::Wallet seller = chain::Wallet::from_seed("perfbench-seller");
  const chain::Wallet payer = chain::Wallet::from_seed("perfbench-payer");
  chain::Miner to_buyer(params, buyer.pkh());
  chain::Miner to_payer(params, payer.pkh());
  auto mine = [&](chain::Miner& m) {
    const chain::Block block =
        m.mine(node.chain(), node.mempool(),
               static_cast<std::uint64_t>(node.chain().height() + 1));
    if (node.submit_block(block) != chain::AcceptBlockResult::kConnected)
      throw std::runtime_error("source block rejected");
  };
  auto submit = [&](const std::optional<chain::Transaction>& tx) {
    if (!tx || !node.submit_tx(*tx).ok())
      throw std::runtime_error("source tx rejected");
  };
  for (int i = 0; i < 3; ++i) mine(to_buyer);
  for (int i = 0; i < 3; ++i) mine(to_payer);

  auto keys = rsa_keys(
      seed, 2000 + key_stream,
      static_cast<std::size_t>(kSourceBlocks * kOffersPerBlock));
  util::Rng rng = util::Rng::substream(seed, 5);
  std::vector<std::pair<std::unique_ptr<core::FairExchangeSeller>,
                        chain::Transaction>>
      pending;
  for (int b = 0; b <= kSourceBlocks; ++b) {
    for (auto& [sale, offer] : pending) submit(sale->try_redeem(offer, kFee));
    pending.clear();
    for (int k = 0; b < kSourceBlocks && k < kOffersPerBlock; ++k) {
      crypto::RsaKeyPair& key =
          keys[static_cast<std::size_t>(b * kOffersPerBlock + k)];
      core::FairExchangeBuyer purchase(buyer, key.pub, seller.pkh(), kPrice,
                                       kFee, kOfferTimeoutBlocks);
      const auto offer = purchase.make_offer(node.chain(), &node.mempool());
      submit(offer);
      pending.emplace_back(
          std::make_unique<core::FairExchangeSeller>(seller, std::move(key)),
          *offer);
    }
    for (int p = 0; p < kPaymentsPerBlock; ++p) {
      script::PubKeyHash dest{};
      const util::Bytes raw = rng.bytes(dest.size());
      std::copy(raw.begin(), raw.end(), dest.begin());
      submit(payer.create_payment(
          node.chain(), &node.mempool(), dest,
          static_cast<chain::Amount>(5000 + rng.below(5000)), kFee));
    }
    mine(to_payer);
  }
}

struct CatchupInputs {
  std::uint64_t seed = 1;
  std::uint64_t key_stream = 0;
  std::string dir;
  chain::Hash256 tip{};
  chain::Hash256 state{};
};

int run_source(const CatchupInputs& in, int up, int down) {
  p2p::TcpTransportConfig cfg;
  cfg.self = kSource;
  p2p::TcpTransport net(cfg);
  const auto table = child_handshake(net, up, down);
  p2p::ChainNode node(net, kSource, bench_params(),
                      node_config(in.dir + "/source"), in.seed);
  generate_source_chain(node, in.seed, in.key_stream);
  install_peers(net, table);  // only now: generation gossip stays local
  auto reply = [&](const std::string& text) {
    net.send(kSource, kCatchupDriver, ctl_msg(kSource, text));
  };
  net.set_handler(kSource, [&](const p2p::Message& msg) {
    if (!(msg.type == "ctl")) {
      Timed span("p2p.serve");
      node.handle_message(msg);
      return;
    }
    const auto w = words(payload_text(msg));
    if (w.size() == 3 && w[0] == "peer") {
      // A fresh daemon joined: dial it and show it our tip, which it cannot
      // connect — its orphan handling asks us for the missing history.
      const HostId fresh = std::atoi(w[1].c_str());
      net.set_peer_address(fresh, w[2]);
      const auto tip = node.chain().block_at(node.chain().height());
      net.send(kSource, fresh, p2p::Message{"block", tip->serialize(), kSource});
      reply("peered");
    } else if (!w.empty() && w[0] == "stop") {
      g_rec.counter("p2p.sync_blocks_served",
                    static_cast<double>(node.sync_blocks_served()));
      write_tcp_stats(net);
      g_rec.write(in.dir + "/source.report");
      net.stop();
    }
  });
  sim::InvariantReport settle;
  const sim::SettlementTally tally =
      sim::check_settlement_invariants(node.chain(), settle);
  std::uint64_t txs = 0;
  for (int h = 1; h <= node.chain().height(); ++h)
    txs += node.chain().block_at(h)->txs.size();
  reply("ready " + std::to_string(node.chain().height()) + " " +
        hex(node.chain().tip_hash()) + " " + hex(node.chain().state_hash()) +
        " " + (sim::check_chain_invariants(node.chain()).ok() ? "1" : "0") +
        " " + (settle.ok() ? "1" : "0") + " " + std::to_string(tally.redeemed) +
        " " + std::to_string(txs));
  net.run();
  const util::SimTime until = net.now() + 100 * util::kMillisecond;
  while (net.now() < until) net.poll(5);
  return 0;
}

int run_fresh(HostId self, const CatchupInputs& in, const std::string& store,
              int cycle, int up, int down) {
  p2p::TcpTransportConfig cfg;
  cfg.self = self;
  p2p::TcpTransport net(cfg);
  const auto table = child_handshake(net, up, down);
  install_peers(net, table);
  p2p::ChainNode node(net, self, bench_params(), node_config(store),
                      in.seed + static_cast<std::uint64_t>(self));
  net.set_handler(self, [&](const p2p::Message& msg) {
    if (msg.type == "block") {
      // The unit of catch-up work: one block received, connected cold and
      // made durable. A parked orphan connects inside its parent's handler,
      // so a handler that advanced the tip by k blocks yields k samples.
      Timed span("chain.handle_block");
      const std::uint64_t before = node.blocks_seen();
      const int height = node.chain().height();
      const std::int64_t t0 = now_ns();
      node.handle_message(msg);
      const int advanced = node.chain().height() - height;
      for (int k = 0; k < advanced; ++k)
        g_rec.sample("block_ms", ms(now_ns() - t0) / advanced);
      if (node.blocks_seen() == before) span.rename("chain.handle_block_dup");
    } else {
      Timed span("app.other");
      node.handle_message(msg);
    }
  });
  std::int64_t connected = 0;
  while (node.chain().tip_hash() != in.tip) {
    net.poll(1);
    if (connected == 0 && net.peer_connected(kSource)) connected = now_ns();
  }
  const std::int64_t synced = now_ns();
  const bool state_ok = node.chain().state_hash() == in.state;
  g_rec.counter("p2p.sync_requests", static_cast<double>(node.sync_requests()));
  write_tcp_stats(net);
  g_rec.write(in.dir + "/fresh-" + std::to_string(cycle) + ".report");
  net.send(self, kCatchupDriver,
           ctl_msg(self, "synced " + std::to_string(synced - connected) + " " +
                             std::to_string(node.chain().height()) + " " +
                             (state_ok ? "1" : "0")));
  for (;;) net.poll(100);  // until the driver's SIGKILL
}

int catchup_workload(const Options& opt) {
  CatchupInputs in;
  in.seed = opt.seed;
  g_rec.tracing = opt.trace;  // forked daemons inherit it
  Children kids;
  std::unique_ptr<DriverNet> net;
  std::vector<std::string> table;
  std::vector<std::string> ready;
  for (int rep = 0; rep < kCatchupSetupReps; ++rep) {
    if (rep > 0) {
      kill_and_reap(kids.list.back());
      kids.list.clear();
      net.reset();
      fs::remove_all(in.dir);
    }
    in.dir = opt.dir + "/catchup" + std::to_string(rep);
    in.key_stream = static_cast<std::uint64_t>(rep);
    fs::create_directories(in.dir);
    const std::int64_t t0 = now_ns();
    kids.list.push_back(
        spawn([&in](int up, int down) { return run_source(in, up, down); }));
    table = parent_handshake(kids.list, kCatchupDriver, 2);
    net = std::make_unique<DriverNet>(kCatchupDriver, table);
    table[kCatchupDriver] = addr_of(net->net().listen_port());
    write_line(kids.list[0].down, join(table));
    ready = words(net->await(kSource, "ready", 120'000));
    g_rec.sample("setup_s", static_cast<double>(now_ns() - t0) / 1e9);
  }
  const int source_height = std::atoi(ready.at(1).c_str());
  const auto tip_bytes = util::from_hex_strict(ready.at(2));
  const auto state_bytes = util::from_hex_strict(ready.at(3));
  std::copy(tip_bytes.begin(), tip_bytes.end(), in.tip.begin());
  std::copy(state_bytes.begin(), state_bytes.end(), in.state.begin());
  bool ok = true;
  ok &= g_rec.gate("source_invariants", ready.at(4) == "1" && ready.at(5) == "1",
                   "chain + settlement invariants on the source chain");
  ok &= g_rec.gate(
      "source_settled",
      ready.at(6) == std::to_string(kSourceBlocks * kOffersPerBlock),
      "redeemed offers " + ready.at(6));
  g_rec.counter("source.blocks", source_height);
  g_rec.counter("source.txs", std::atof(ready.at(7).c_str()));

  const std::int64_t window = std::int64_t{opt.seconds} * 1'000'000'000;
  const std::int64_t start = now_ns();
  double peak_rss = 0, fresh_cpu_ms = 0, synced_blocks = 0, sync_ms = 0;
  int cycles = 0;
  bool synced_ok = true, recovered_ok = true;
  while (cycles < 3 || now_ns() - start < window) {
    const HostId fresh = 2 + cycles;
    const std::string store = in.dir + "/fresh" + std::to_string(cycles);
    std::vector<Child> one;
    one.push_back(spawn([&, fresh](int up, int down) {
      return run_fresh(fresh, in, store, cycles, up, down);
    }));
    std::string port;
    if (!read_line(one[0].up, port, 30'000))
      throw std::runtime_error("fresh daemon did not start");
    std::vector<std::string> fresh_table(static_cast<std::size_t>(fresh) + 1);
    fresh_table[kSource] = table[kSource];
    fresh_table[kCatchupDriver] = table[kCatchupDriver];
    write_line(one[0].down, join(fresh_table));
    net->call(kSource,
              "peer " + std::to_string(fresh) + " " +
                  addr_of(static_cast<std::uint16_t>(std::atoi(port.c_str()))),
              "peered");
    const auto synced = words(net->await(fresh, "synced", 120'000));
    kill_and_reap(one[0]);  // SIGKILL: no clean shutdown, no final snapshot
    const double catchup_ms = ms(std::atoll(synced.at(1).c_str()));
    g_rec.sample("catchup_ms", catchup_ms);
    sync_ms += catchup_ms;
    synced_blocks += source_height;
    synced_ok &= synced.at(2) == std::to_string(source_height) &&
                 synced.at(3) == "1";
    fresh_cpu_ms += ms(rusage_cpu_ns(one[0].ru));
    peak_rss = std::max(peak_rss, vmhwm_mib(one[0].ru));

    // Recovery of the killed daemon's store, in its own process so the
    // driver never touches chain state (later fresh daemons stay cold).
    Child rec = spawn([&](int up, int) {
      store::StoreOptions so;
      so.dir = store;
      so.fsync_each_append = true;
      so.snapshot_interval = 32;
      const std::int64_t t0 = now_ns();
      std::string error;
      auto opened = store::ChainStore::open(bench_params(), so, &error);
      if (!opened) {
        write_line(up, "recovered 0 0 0 0 0");
        return 1;
      }
      chain::Blockchain chain = opened->take_chain();
      const std::int64_t t1 = now_ns();
      const store::RecoveryStats& st = opened->recovery();
      const bool same = chain.tip_hash() == in.tip && chain.state_hash() == in.state;
      write_line(up, "recovered " + std::to_string(t1 - t0) + " " +
                         std::to_string(st.replayed_blocks) + " " +
                         std::to_string(st.deltas_applied) + " " +
                         std::to_string(opened->log_bytes()) + " " +
                         (same ? "1" : "0"));
      return 0;
    });
    std::string line;
    const bool got = read_line(rec.up, line, 60'000);
    reap(rec, 10'000);
    const auto r = words(line);
    recovered_ok &= got && r.size() == 6 && r[5] == "1";
    if (got && r.size() == 6) {
      g_rec.sample("store.recover_ms", ms(std::atoll(r[1].c_str())));
      g_rec.sample("store.replayed_blocks", std::atof(r[2].c_str()));
      g_rec.sample("store.deltas_applied", std::atof(r[3].c_str()));
      g_rec.sample("store.log_bytes", std::atof(r[4].c_str()));
    }
    fs::remove_all(store);
    ++cycles;
  }
  ok &= g_rec.gate("caught_up", synced_ok, "fresh tip and state hash = source");
  ok &= g_rec.gate("recovered", recovered_ok,
                   "recovered tip and state hash = source");
  g_rec.counter("attempted", cycles);
  g_rec.counter("failed", 0);
  g_rec.counter("completed", synced_blocks);
  g_rec.counter("window_s", sync_ms / 1e3);  // time spent catching up
  g_rec.counter("fresh.cpu_ms", fresh_cpu_ms);

  net->send(kSource, "stop");
  net->pump_for(50);
  reap(kids.list[0], 10'000);
  peak_rss = std::max(peak_rss, vmhwm_mib(kids.list[0].ru));
  g_rec.counter("source.cpu_total_ms", ms(rusage_cpu_ns(kids.list[0].ru)));
  g_rec.counter("peak_rss_mb", peak_rss);
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// city: CityEngine at its default size, repeated over a fixed horizon.

constexpr int kCityHorizonS = 60;  // virtual seconds per engine run

int city_workload(const Options& opt) {
  sim::CityConfig config;  // defaults: 10k gateways, 100k sensors
  config.seed = opt.seed;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = now_ns();
    sim::CityEngine engine(config);
    engine.run_for(1);  // posts every sensor's staggered first report
    g_rec.sample("setup_s", static_cast<double>(now_ns() - t0) / 1e9);
  }
  const std::int64_t window = std::int64_t{opt.seconds} * 1'000'000'000;
  const std::int64_t start = now_ns();
  const std::int64_t cpu0 = process_cpu_ns();
  std::uint64_t exchanges = 0, events = 0, digest = 0, failures = 0;
  bool repeatable = true;
  int runs = 0;
  double busy_ms = 0;
  while (runs < 2 || now_ns() - start < window) {
    sim::CityEngine engine(config);
    engine.run_for(1);
    const std::int64_t t0 = now_ns();
    for (int v = 0; v < kCityHorizonS; ++v) {
      const std::int64_t s0 = now_ns();
      {
        Timed span("sim.slice");
        engine.run_for(util::kSecond);
      }
      g_rec.sample("latency_ms", ms(now_ns() - s0));
    }
    busy_ms += ms(now_ns() - t0);
    if (runs == 0) digest = engine.trace_digest();
    repeatable &= engine.trace_digest() == digest;
    failures += engine.verify_failures();
    exchanges += engine.exchanges_completed();
    events += engine.loop().events_executed();
    ++runs;
  }
  const std::int64_t cpu1 = process_cpu_ns();
  bool ok = true;
  ok &= g_rec.gate("verify_failures", failures == 0,
                   std::to_string(failures) + " envelope/decrypt mismatches");
  ok &= g_rec.gate("digest_repeats", repeatable,
                   "trace digest equal across " + std::to_string(runs) +
                       " runs of seed " + std::to_string(opt.seed));
  g_rec.counter("attempted", static_cast<double>(exchanges));
  g_rec.counter("failed", 0);
  g_rec.counter("completed", static_cast<double>(exchanges));
  g_rec.counter("window_s", busy_ms / 1e3);
  g_rec.counter("driver.cpu_window_ms", ms(cpu1 - cpu0));
  g_rec.counter("sim.events", static_cast<double>(events));
  g_rec.counter("sim.runs", runs);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  g_rec.counter("peak_rss_mb", vmhwm_mib(ru));
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------------------

void record_fingerprint() {
  g_rec.fact("nproc", std::to_string(std::thread::hardware_concurrency()));
#ifdef PB_HAS_SHA256_BACKEND_NAME
  g_rec.fact("sha256_backend", crypto::sha256_backend_name());
#else
  g_rec.fact("sha256_backend", "single");
#endif
#ifdef PB_HAS_ECDSA_BACKEND_NAME
  g_rec.fact("ecdsa_backend", crypto::ecdsa_backend_name());
#else
  g_rec.fact("ecdsa_backend", "single");
#endif
#ifdef PB_HAS_RSA_CRT_SWITCH
  g_rec.fact("rsa_backend", crypto::rsa_crt_enabled() ? "crt" : "reference");
#else
  g_rec.fact("rsa_backend", "single");
#endif
#ifdef PB_HAS_EVENT_LOOP_BACKEND
  {
    p2p::EventLoop loop;
    g_rec.fact("event_loop_backend",
               loop.backend() == p2p::EventLoop::Backend::kSerial ? "serial"
                                                                  : "sharded");
  }
#else
  g_rec.fact("event_loop_backend", "single");
#endif
  g_rec.fact("build_type", PB_BUILD_TYPE);
#if defined(__clang__)
  g_rec.fact("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  g_rec.fact("compiler", std::string("gcc ") + __VERSION__);
#else
  g_rec.fact("compiler", __VERSION__);
#endif
#ifdef NDEBUG
  g_rec.fact("assertions", "off");
#else
  g_rec.fact("assertions", "on");
#endif
}

int usage() {
  std::fprintf(stderr,
               "usage: bcwan_perfbench --workload "
               "exchange_flood|catchup|city --seed N "
               "--seconds S --trace 0|1 --dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") opt.workload = value;
    else if (key == "--seed") opt.seed = std::strtoull(value, nullptr, 10);
    else if (key == "--seconds") opt.seconds = std::atoi(value);
    else if (key == "--trace") opt.trace = std::atoi(value) != 0;
    else if (key == "--dir") opt.dir = value;
    else return usage();
  }
  if (opt.dir.empty() || opt.seconds <= 0) return usage();
  signal(SIGPIPE, SIG_IGN);
  fs::create_directories(opt.dir);
  record_fingerprint();
  int code = 2;
  try {
    if (opt.workload == "exchange_flood") code = exchange_workload(opt);
    else if (opt.workload == "catchup") code = catchup_workload(opt);
    else if (opt.workload == "city") {
      g_rec.tracing = opt.trace;
      code = city_workload(opt);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bcwan_perfbench: %s\n", e.what());
    g_rec.gate("infrastructure", false, e.what());
    code = 2;
  }
  g_rec.tracing = false;
  g_rec.write(opt.dir + "/driver.report");
  return code;
}
