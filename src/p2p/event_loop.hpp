// Discrete-event scheduler over virtual time.
//
// The whole evaluation is a deterministic simulation: LoRa airtime, WAN
// propagation, daemon stalls and mining all schedule callbacks here. Events
// at equal timestamps run in insertion order, so runs replay exactly.
//
// City-scale design (DESIGN.md §14): events live in a slab (util::Slab)
// addressed by uint32 slots and are ordered by one intrusive 4-ary min-heap
// of (when, seq, slot) entries. Besides std::function callbacks the loop
// offers an allocation-free *coded* event flavor — a (code, a, b) triple
// dispatched through a registered handler — which is what the compact
// city agents and SimNet's deliveries post.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/slab.hpp"
#include "util/time.hpp"

namespace bcwan::p2p {

class EventLoop {
 public:
  using Callback = std::function<void()>;
  /// Handler for coded events: receives the (a, b) payload words.
  using CodeHandler = std::function<void(std::uint64_t, std::uint64_t)>;

  EventLoop() = default;

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  util::SimTime now() const noexcept { return now_; }

  /// Schedule at an absolute virtual time (clamped to now).
  void at(util::SimTime when, Callback cb) {
    insert(when, kCallbackCode, 0, 0, std::move(cb));
  }
  /// Schedule `delay` after now.
  void after(util::SimTime delay, Callback cb) {
    insert(now_ + delay, kCallbackCode, 0, 0, std::move(cb));
  }

  /// Register a coded-event handler; returns the code to post() with.
  /// Registration order is part of the deterministic setup — do it before
  /// running.
  std::uint32_t register_code(CodeHandler handler);

  /// Allocation-free event: at `when` (clamped to now), invoke the handler
  /// registered for `code` with (a, b). The event record lives in the slab;
  /// nothing is heap-allocated per post.
  void post(util::SimTime when, std::uint32_t code, std::uint64_t a = 0,
            std::uint64_t b = 0) {
    insert(when, code, a, b, Callback{});
  }

  /// Run one event; false when the queue is empty.
  bool step();
  /// Run until the queue empties or stop() is called.
  void run();
  /// Run every event scheduled at or before `deadline`; unless stop() cut
  /// the run short, the clock ends at `deadline` even if the queue still
  /// has later events.
  void run_until(util::SimTime deadline);

  /// Stops run()/run_until() before the next event. A subsequent run
  /// resumes with the remaining queue.
  void stop() noexcept { stopped_ = true; }
  std::size_t pending() const noexcept { return heap_.size(); }

  /// Events executed since construction.
  std::uint64_t events_executed() const noexcept { return executed_; }

 private:
  struct Event {
    std::uint32_t code;  // kCallbackCode for cb events
    std::uint64_t a, b;
    Callback cb;
  };
  static constexpr std::uint32_t kCallbackCode = ~std::uint32_t{0};

  struct HeapEntry {
    util::SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
    bool operator<(const HeapEntry& o) const noexcept {
      return when != o.when ? when < o.when : seq < o.seq;
    }
  };

  void insert(util::SimTime when, std::uint32_t code, std::uint64_t a,
              std::uint64_t b, Callback cb);
  void execute(HeapEntry entry);
  /// Execute events at or before `deadline` until the queue runs dry there
  /// or stop() is called.
  void drain(util::SimTime deadline);
  void heap_push(HeapEntry entry);
  HeapEntry heap_pop();

  util::Slab<Event> events_;
  std::vector<HeapEntry> heap_;
  std::vector<CodeHandler> codes_;

  util::SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
};

}  // namespace bcwan::p2p
