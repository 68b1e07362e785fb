// lint: hot-path — event dispatch; no per-event allocation or type erasure.
#include "sim/event_queue.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "audit/auditor.h"

namespace halfback::sim {

/// Slab node backing the std::function shim. Owned by the queue; recycled
/// through a free list. `token_` identifies one incarnation (one schedule),
/// so stale EventHandles to a recycled node are inert.
class FunctionEvent final : public Event {
 public:
  explicit FunctionEvent(EventQueue* owner) : owner_{owner} {}

 private:
  friend class EventQueue;
  friend class EventHandle;

  // lint: fire-may-throw(runs an arbitrary user callback; throws must reach run()'s caller)
  void fire() override {
    // Move the callback out and recycle the node first, so the callback can
    // schedule (and the queue can reuse this node) while it runs.
    // lint: function-ok(shim node; only setup/test events reach this path)
    std::function<void()> fn = std::move(fn_);  // lint: hot-ok(moves the preallocated callback out; no construction)
    owner_->release_shim(this);
    fn();
  }

  EventQueue* owner_;
  std::function<void()> fn_;  // lint: function-ok(shim node storage)
  std::uint64_t token_ = 0;
  FunctionEvent* next_free_ = nullptr;
};

Event::~Event() {
  if (queued()) queue_->cancel_event(*this);
}

void EventHandle::cancel() {
  if (node_ == nullptr || node_->token_ != token_ || !node_->queued()) return;
  EventQueue* owner = node_->owner_;
  owner->cancel_event(*node_);
  owner->release_shim(node_);
}

bool EventHandle::pending() const {
  return node_ != nullptr && node_->token_ == token_ && node_->queued();
}

EventQueue::EventQueue() = default;
EventQueue::~EventQueue() { clear(); }

// --- heap maintenance --------------------------------------------------------

// The heap is 4-ary: for pointer-light slots the extra compares per level
// are all against contiguous memory, while the halved depth halves the
// slot moves and the scattered heap_index_ writes that go with them.

void EventQueue::sift_up(std::size_t i) {
  const HeapSlot s = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!earlier(s, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, s);
}

void EventQueue::sift_down(std::size_t i) {
  const HeapSlot s = heap_[i];
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + kArity, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], s)) break;
    place(i, heap_[best]);
    i = best;
  }
  place(i, s);
}

const EventQueue::HeapSlot& EventQueue::top() const {
  if (!hole_) return heap_.front();
  const std::size_t last = std::min<std::size_t>(kArity + 1, heap_.size());
  std::size_t best = 1;
  for (std::size_t c = 2; c < last; ++c) {
    if (earlier(heap_[c], heap_[best])) best = c;
  }
  return heap_[best];
}

void EventQueue::fill_hole_with(const HeapSlot& s) {
  hole_ = false;
  heap_.front() = s;
  sift_down(0);
}

void EventQueue::fill_hole() {
  if (!hole_) return;
  const HeapSlot last = heap_.back();
  heap_.pop_back();
  if (heap_.empty()) {
    hole_ = false;  // the hole was the only slot
  } else {
    fill_hole_with(last);
  }
}

void EventQueue::insert(const HeapSlot& s) {
  s.event->queue_ = this;
  if (hole_) {
    fill_hole_with(s);
    return;
  }
  // lint: hot-ok(amortized heap growth; steady state reuses capacity)
  heap_.push_back(s);
  s.event->heap_index_ = heap_.size() - 1;
  sift_up(s.event->heap_index_);
}

// --- intrusive API -----------------------------------------------------------

void EventQueue::schedule_event(Event& event, Time at) {
  if (event.queued()) {
    // lint: hot-ok(programming-error guard; unreachable in a correct scheduler)
    throw std::logic_error{"EventQueue::schedule_event on an already-queued event"};
  }
  event.at_ = at;
  event.seq_ = next_seq_++;
  insert(HeapSlot{at, event.seq_, &event});
}

void EventQueue::reschedule_event(Event& event, Time at) {
  if (!event.queued()) {
    schedule_event(event, at);
    return;
  }
  schedule_reserved(event, at, next_seq_++);
}

void EventQueue::schedule_reserved(Event& event, Time at, std::uint64_t seq) {
  event.at_ = at;
  event.seq_ = seq;
  if (!event.queued()) {
    insert(HeapSlot{at, seq, &event});
    return;
  }
  fill_hole();
  const std::size_t i = event.heap_index_;
  heap_[i].at = at;
  heap_[i].seq = seq;
  // The new position can be in either direction; one of the sifts is a no-op.
  sift_up(i);
  sift_down(event.heap_index_);
}

void EventQueue::cancel_event(Event& event) {
  if (!event.queued() || event.queue_ != this) return;
  fill_hole();
  const std::size_t i = event.heap_index_;
  event.heap_index_ = Event::kNotQueued;
  event.queue_ = nullptr;
  const HeapSlot last = heap_.back();
  heap_.pop_back();
  if (i < heap_.size()) {
    place(i, last);
    sift_up(i);
    sift_down(last.event->heap_index_);
  }
}

// --- std::function shim ------------------------------------------------------

FunctionEvent* EventQueue::acquire_shim() {
  if (free_head_ != nullptr) {
    FunctionEvent* node = free_head_;
    free_head_ = node->next_free_;
    node->next_free_ = nullptr;
    return node;
  }
  slab_.push_back(std::make_unique<FunctionEvent>(this));
  return slab_.back().get();
}

void EventQueue::release_shim(FunctionEvent* node) {
  ++node->token_;  // invalidate outstanding handles to this incarnation
  node->fn_ = nullptr;
  node->next_free_ = free_head_;
  free_head_ = node;
}

// lint: function-ok(the one sanctioned shim; setup/test path, slab-recycled)
EventHandle EventQueue::schedule(Time at, std::function<void()> fn) {
  FunctionEvent* node = acquire_shim();
  node->fn_ = std::move(fn);
  schedule_event(*node, at);
  return EventHandle{node, node->token_};
}

// --- queue driving -----------------------------------------------------------

Time EventQueue::next_time() const {
  if (empty()) throw std::logic_error{"EventQueue::next_time on empty queue"};
  return top().at;
}

Time EventQueue::run_next() {
  fill_hole();  // only open here when a fire() drives the queue itself
  if (heap_.empty()) throw std::logic_error{"EventQueue::run_next on empty queue"};
  Event* event = heap_.front().event;
  event->heap_index_ = Event::kNotQueued;
  event->queue_ = nullptr;
  // The root's slot stays as a hole that fire()'s first schedule fills; the
  // guard closes it otherwise, throw included.
  hole_ = true;
  const HoleGuard guard{*this};
  const Time at = event->at_;
  HALFBACK_AUDIT_HOOK(auditor_, on_event_run(at, event->seq_));
  // fire() may reschedule the event, or even destroy it (a timer firing its
  // owner's completion path); do not touch it after this call.
  event->fire();
  return at;
}

void EventQueue::clear() {
  fill_hole();
  for (const HeapSlot& slot : heap_) {
    slot.event->heap_index_ = Event::kNotQueued;
    slot.event->queue_ = nullptr;
  }
  heap_.clear();
  // Recycle shim nodes (they are ours); intrusive events stay with their
  // owners. A non-empty fn_ marks a node that was scheduled and neither
  // fired nor cancelled — exactly the ones clear() just dropped.
  for (const std::unique_ptr<FunctionEvent>& node : slab_) {
    if (node->fn_ != nullptr) release_shim(node.get());
  }
}

}  // namespace halfback::sim
