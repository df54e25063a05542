#include "p2p/event_loop.hpp"

#include <algorithm>
#include <limits>

namespace bcwan::p2p {

std::uint32_t EventLoop::register_code(CodeHandler handler) {
  codes_.push_back(std::move(handler));
  return static_cast<std::uint32_t>(codes_.size() - 1);
}

void EventLoop::insert(util::SimTime when, std::uint32_t code,
                       std::uint64_t a, std::uint64_t b, Callback cb) {
  const std::uint32_t slot = events_.acquire(Event{code, a, b, std::move(cb)});
  heap_push(HeapEntry{std::max(when, now_), next_seq_++, slot});
}

// ---- 4-ary heap -------------------------------------------------------------

void EventLoop::heap_push(HeapEntry entry) {
  heap_.push_back(entry);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!(heap_[i] < heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

EventLoop::HeapEntry EventLoop::heap_pop() {
  const HeapEntry top = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  std::size_t i = 0;
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first_child = 4 * i + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t last_child = std::min(first_child + 4, n);
    for (std::size_t c = first_child + 1; c < last_child; ++c)
      if (heap_[c] < heap_[best]) best = c;
    if (!(heap_[best] < heap_[i])) break;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
  return top;
}

// ---- execution --------------------------------------------------------------

void EventLoop::execute(HeapEntry entry) {
  Event& event = events_.get(entry.slot);
  now_ = entry.when;
  ++executed_;
  if (event.code == kCallbackCode) {
    // Move the callback out first: it may schedule (growing the slab) or
    // otherwise re-enter; the slot is released before it runs.
    Callback cb = std::move(event.cb);
    events_.release(entry.slot);
    cb();
  } else {
    const std::uint32_t code = event.code;
    const std::uint64_t a = event.a;
    const std::uint64_t b = event.b;
    events_.release(entry.slot);
    codes_[code](a, b);
  }
}

bool EventLoop::step() {
  if (heap_.empty()) return false;
  execute(heap_pop());
  return true;
}

void EventLoop::drain(util::SimTime deadline) {
  stopped_ = false;
  while (!stopped_ && !heap_.empty() && heap_.front().when <= deadline) {
    execute(heap_pop());
  }
}

void EventLoop::run() { drain(std::numeric_limits<util::SimTime>::max()); }

void EventLoop::run_until(util::SimTime deadline) {
  drain(deadline);
  // A stopped run may leave events before the deadline queued; jumping the
  // clock past them would make the next run move it backwards.
  if (!stopped_) now_ = std::max(now_, deadline);
}

}  // namespace bcwan::p2p
