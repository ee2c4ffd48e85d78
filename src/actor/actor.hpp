// Event-driven actor with a typed mailbox.
//
// Semantics follow the standard actor model the paper relies on (§II.B):
//   - encapsulation: only on_message() touches actor state, and the
//     scheduler never runs one actor concurrently with itself;
//   - asynchronous send: producers enqueue and continue immediately;
//   - per-sender FIFO delivery via the MPSC mailbox;
//   - starvation-free scheduling via the scheduler's run queues
//     (scheduler.hpp: work-stealing deques by default, the global FIFO
//     under GPSA_SCHEDULER=global).
//
// An actor is IDLE when its mailbox is empty and it is not on a run
// queue, SCHEDULED otherwise. send() performs the empty->non-empty
// transition exactly once per wakeup, which keeps run-queue traffic
// proportional to wakeups, not messages. When the sender is itself a
// scheduler worker (the dominant case: dispatcher -> computer sends),
// the wakeup lands on that worker's own lock-free deque, so the mailbox
// notify path crosses no lock and no syscall.
//
// Mailbox buffer-reuse contract (DESIGN.md §11): a queued message may own
// a buffer leased from a shared pool (ComputerMsg::batch and the
// MessageBatchPool). The mailbox itself imposes nothing on such payloads
// beyond ordinary move/destroy semantics, so pooled buffers are safe under
// both normal delivery (the receiver recycles them) and teardown (the
// destructor frees them) — provided the pool outlives the actor, which
// the engine guarantees by declaring the pool before the ActorSystem.
#pragma once

#include <atomic>
#include <cstddef>
#include <utility>

#include "actor/scheduler.hpp"
#include "util/check.hpp"
#include "util/mpsc_queue.hpp"

namespace gpsa {

template <typename M>
class Actor : public Schedulable {
 public:
  ~Actor() override = default;

  /// Asynchronous send; callable from any thread.
  void send(M message) {
    mailbox_.push(std::move(message));
    schedule_if_idle();
  }

  /// Messages waiting (approximate; exact when the actor is quiescent).
  std::size_t mailbox_size() const { return mailbox_.approx_size(); }

 protected:
  /// Handles one message. Runs on a scheduler worker; never concurrently
  /// with itself for the same actor.
  virtual void on_message(M message) = 0;

  /// Despawn-protocol hint (Schedulable::quiescent): IDLE means the
  /// mailbox was seen empty and the actor sits on no run queue. The
  /// window between a worker's pop and the IDLE store is covered by the
  /// scheduler's in-slice count.
  bool idle_hint() const override {
    return state_.load(std::memory_order_seq_cst) == kIdle;
  }

 private:
  friend class ActorSystem;

  enum : int { kIdle = 0, kScheduled = 1 };

  void attach(Scheduler* scheduler) {
    GPSA_CHECK(scheduler_ == nullptr);
    scheduler_ = scheduler;
  }

  void schedule_if_idle() {
    if (state_.exchange(kScheduled, std::memory_order_acq_rel) == kIdle) {
      GPSA_DCHECK(scheduler_ != nullptr);
      scheduler_->enqueue(this);
    }
  }

  bool execute_batch(std::size_t max_messages) override {
    for (std::size_t i = 0; i < max_messages; ++i) {
      auto msg = mailbox_.try_pop();
      if (!msg) {
        break;
      }
      on_message(std::move(*msg));
    }
    if (!mailbox_.approx_empty()) {
      // Work remains (or a push is completing); stay SCHEDULED and ask the
      // worker to re-enqueue us.
      return true;
    }
    // Go idle, then re-check: a producer may have pushed between the
    // emptiness check and the state change without scheduling us (it saw
    // state==SCHEDULED at that time).
    state_.store(kIdle, std::memory_order_seq_cst);
    if (!mailbox_.approx_empty()) {
      schedule_if_idle();
    }
    return false;
  }

  MpscQueue<M> mailbox_;
  std::atomic<int> state_{kIdle};
  Scheduler* scheduler_ = nullptr;
};

}  // namespace gpsa
