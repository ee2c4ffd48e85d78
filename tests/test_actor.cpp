// Unit and stress tests for the actor runtime: mailbox delivery order,
// scheduler fairness, wakeup races, and cross-actor messaging patterns
// (ping-pong, fan-in) resembling the engine's dispatcher/computer flow.
//
// Every scheduler-facing test runs under BOTH run-queue substrates
// (SchedulerMode::kGlobalQueue and kWorkStealing) via TEST_P, so the
// ablation fallback stays as correct as the default. Single-threaded
// properties of the Chase–Lev deque (LIFO/FIFO ends, growth, overflow)
// are covered here; the multi-thief races live in test_sanitize_stress.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <thread>
#include <vector>

#include "actor/actor_system.hpp"
#include "actor/work_stealing_deque.hpp"

namespace gpsa {
namespace {

class SchedulerModeTest : public ::testing::TestWithParam<SchedulerMode> {};

INSTANTIATE_TEST_SUITE_P(
    BothSubstrates, SchedulerModeTest,
    ::testing::Values(SchedulerMode::kGlobalQueue,
                      SchedulerMode::kWorkStealing),
    [](const ::testing::TestParamInfo<SchedulerMode>& param) {
      return scheduler_mode_name(param.param);
    });

/// Records received ints; fulfils a promise at a target count.
class CollectorActor final : public Actor<int> {
 public:
  explicit CollectorActor(std::size_t expected) : expected_(expected) {}

  std::future<std::vector<int>> future() { return promise_.get_future(); }

 protected:
  void on_message(int value) override {
    received_.push_back(value);
    if (received_.size() == expected_) {
      promise_.set_value(received_);
    }
  }

 private:
  std::size_t expected_;
  std::vector<int> received_;
  std::promise<std::vector<int>> promise_;
};

TEST_P(SchedulerModeTest, DeliversInOrderFromOneSender) {
  ActorSystem system(2, 256, GetParam());
  auto* collector = system.spawn<CollectorActor>(1000U);
  auto future = collector->future();
  for (int i = 0; i < 1000; ++i) {
    collector->send(i);
  }
  const auto received = future.get();
  ASSERT_EQ(received.size(), 1000U);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(received[i], i);
  }
  system.shutdown();
}

TEST_P(SchedulerModeTest, FanInFromManyThreadsDeliversAll) {
  constexpr int kSenders = 8;
  constexpr int kEach = 5000;
  ActorSystem system(4, 256, GetParam());
  auto* collector = system.spawn<CollectorActor>(
      static_cast<std::size_t>(kSenders * kEach));
  auto future = collector->future();
  std::vector<std::thread> senders;
  for (int t = 0; t < kSenders; ++t) {
    senders.emplace_back([collector, t] {
      for (int i = 0; i < kEach; ++i) {
        collector->send(t * kEach + i);
      }
    });
  }
  const auto received = future.get();
  for (auto& t : senders) {
    t.join();
  }
  // All distinct values must arrive exactly once.
  std::vector<int> sorted = received;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < kSenders * kEach; ++i) {
    ASSERT_EQ(sorted[i], i);
  }
  system.shutdown();
}

/// Forwards each message to a peer, decrementing; used for ping-pong.
class RelayActor final : public Actor<int> {
 public:
  void set_peer(Actor<int>* peer) { peer_ = peer; }
  std::future<void> done() { return promise_.get_future(); }

 protected:
  void on_message(int remaining) override {
    if (remaining == 0) {
      promise_.set_value();
      return;
    }
    peer_->send(remaining - 1);
  }

 private:
  Actor<int>* peer_ = nullptr;
  std::promise<void> promise_;
};

TEST_P(SchedulerModeTest, PingPongTerminates) {
  ActorSystem system(2, 256, GetParam());
  auto* a = system.spawn<RelayActor>();
  auto* b = system.spawn<RelayActor>();
  a->set_peer(b);
  b->set_peer(a);
  auto done_a = a->done();
  auto done_b = b->done();
  a->send(100'001);  // odd count: terminates at b
  done_b.get();
  system.shutdown();
}

TEST_P(SchedulerModeTest, ThousandsOfActorsAllRun) {
  // The paper claims "scalable parallelism with thousands of actors";
  // spawn 2000 collectors and touch each once.
  constexpr int kActors = 2000;
  ActorSystem system(4, 256, GetParam());
  std::vector<CollectorActor*> actors;
  std::vector<std::future<std::vector<int>>> futures;
  actors.reserve(kActors);
  for (int i = 0; i < kActors; ++i) {
    actors.push_back(system.spawn<CollectorActor>(1U));
    futures.push_back(actors.back()->future());
  }
  for (int i = 0; i < kActors; ++i) {
    actors[i]->send(i);
  }
  for (int i = 0; i < kActors; ++i) {
    const auto got = futures[i].get();
    ASSERT_EQ(got.size(), 1U);
    EXPECT_EQ(got[0], i);
  }
  system.shutdown();
}

/// Counts messages; never completes a promise (for fairness test).
class CountingActor final : public Actor<int> {
 public:
  std::atomic<std::uint64_t> count{0};

 protected:
  void on_message(int) override {
    count.fetch_add(1, std::memory_order_relaxed);
  }
};

TEST_P(SchedulerModeTest, BatchBoundPreventsStarvation) {
  // One worker, tiny batches: a flooded actor must not starve a second
  // actor whose single message arrives after the flood begins.
  ActorSystem system(1, /*batch_size=*/8, GetParam());
  auto* flooded = system.spawn<CountingActor>();
  auto* starved = system.spawn<CollectorActor>(1U);
  auto future = starved->future();
  for (int i = 0; i < 100'000; ++i) {
    flooded->send(i);
  }
  starved->send(7);
  // If the scheduler let `flooded` run to completion in one slice, this
  // future would still resolve, but only after all 100k messages; the
  // batch bound (and, in stealing mode, the fairness tick that services
  // the injector) makes it resolve promptly. Either way it must resolve.
  const auto got = future.get();
  EXPECT_EQ(got[0], 7);
  // shutdown() drops any backlog, so let the flood drain first: the slice
  // count then measures the batch bound, not how far the worker got. At
  // most 8 messages per slice means at least 100k/8 slices.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (flooded->count.load() < 100'000 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(flooded->count.load(), 100'000U);
  system.shutdown();
  EXPECT_GE(system.scheduler().slices_executed(), 100'000U / 8);
}

TEST_P(SchedulerModeTest, TwoFloodedActorsShareOneWorker) {
  // Both actors continuously re-enqueue themselves on a single worker. In
  // stealing mode the re-enqueue is a local LIFO push, so without the
  // fairness tick one actor could monopolize the worker forever; this
  // pins the anti-starvation guarantee for the self-re-enqueue shape.
  ActorSystem system(1, /*batch_size=*/4, GetParam());
  auto* first = system.spawn<CountingActor>();
  auto* second = system.spawn<CountingActor>();
  for (int i = 0; i < 20'000; ++i) {
    first->send(i);
    second->send(i);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((first->count.load() < 20'000 || second->count.load() < 20'000) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(first->count.load(), 20'000U);
  EXPECT_EQ(second->count.load(), 20'000U);
  system.shutdown();
}

TEST_P(SchedulerModeTest, PingStormOneProducerManyWorkers) {
  // Wake-path regression (ISSUE 2 satellite): one producer sends isolated
  // single messages with pauses long enough for every worker to park
  // between sends. Each send must produce exactly one effective wakeup; a
  // lost notify_one (global mode: notify racing the cv_ wait predicate;
  // stealing mode: a parked bit set after the enqueuer's bitmap read)
  // strands the message and hangs the final future, which the ctest
  // timeout turns into a hard failure.
  constexpr int kPings = 600;
  ActorSystem system(4, 256, GetParam());
  auto* collector = system.spawn<CollectorActor>(kPings);
  auto future = collector->future();
  for (int i = 0; i < kPings; ++i) {
    collector->send(i);
    if (i % 3 == 0) {
      // Long enough for all four workers to run dry and park.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  const auto received = future.get();
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kPings));
  system.shutdown();
}

TEST_P(SchedulerModeTest, StopIsIdempotent) {
  ActorSystem system(2, 256, GetParam());
  auto* collector = system.spawn<CollectorActor>(1U);
  collector->send(1);
  system.shutdown();
  system.shutdown();  // second call must be a no-op
}

TEST_P(SchedulerModeTest, MailboxSizeVisible) {
  ActorSystem system(1, 256, GetParam());
  // Block the single worker with a long-running actor message so queued
  // messages are observable.
  class Blocker final : public Actor<int> {
   public:
    std::atomic<bool> release{false};

   protected:
    void on_message(int) override {
      while (!release.load()) {
        std::this_thread::yield();
      }
    }
  };
  auto* blocker = system.spawn<Blocker>();
  blocker->send(0);  // occupies the worker
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  blocker->send(1);
  blocker->send(2);
  EXPECT_GE(blocker->mailbox_size(), 2U);
  blocker->release.store(true);
  system.shutdown();
}

TEST(SchedulerEnv, ModeFromEnvParsesBothSpellings) {
  EXPECT_STREQ(scheduler_mode_name(SchedulerMode::kGlobalQueue), "global");
  EXPECT_STREQ(scheduler_mode_name(SchedulerMode::kWorkStealing), "stealing");
  ::setenv("GPSA_SCHEDULER", "global", 1);
  EXPECT_EQ(scheduler_mode_from_env(), SchedulerMode::kGlobalQueue);
  ::setenv("GPSA_SCHEDULER", "stealing", 1);
  EXPECT_EQ(scheduler_mode_from_env(), SchedulerMode::kWorkStealing);
  ::unsetenv("GPSA_SCHEDULER");
  EXPECT_EQ(scheduler_mode_from_env(), SchedulerMode::kWorkStealing);
}

// --- WorkStealingDeque single-thread properties ------------------------------

TEST(WorkStealingDeque, OwnerEndIsLifoStealEndIsFifo) {
  WorkStealingDeque<int> deque(8, 64);
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(deque.push(i));
  }
  EXPECT_EQ(deque.approx_size(), 5U);
  EXPECT_EQ(deque.pop(), 5);    // owner: newest first
  EXPECT_EQ(deque.steal(), 1);  // thief: oldest first
  EXPECT_EQ(deque.pop(), 4);
  EXPECT_EQ(deque.steal(), 2);
  EXPECT_EQ(deque.pop(), 3);
  EXPECT_EQ(deque.pop(), std::nullopt);
  EXPECT_EQ(deque.steal(), std::nullopt);
  EXPECT_TRUE(deque.approx_empty());
}

TEST(WorkStealingDeque, GrowsByDoublingAndPreservesContents) {
  WorkStealingDeque<int> deque(4, 1024);
  EXPECT_EQ(deque.capacity(), 4U);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(deque.push(i));
  }
  EXPECT_EQ(deque.capacity(), 128U);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(deque.steal(), i);  // FIFO across every growth boundary
  }
  EXPECT_TRUE(deque.approx_empty());
}

TEST(WorkStealingDeque, PushFailsAtMaxCapacityThenRecovers) {
  WorkStealingDeque<int> deque(4, 8);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(deque.push(i));
  }
  EXPECT_FALSE(deque.push(8));  // full at max: caller must overflow
  EXPECT_EQ(deque.approx_size(), 8U);
  EXPECT_EQ(deque.pop(), 7);
  EXPECT_TRUE(deque.push(8));  // space again after a pop
  EXPECT_EQ(deque.pop(), 8);
}

TEST(WorkStealingDeque, InterleavedPushPopNeverLosesItems) {
  WorkStealingDeque<std::uint64_t> deque(8, 4096);
  std::uint64_t next = 0;
  std::uint64_t seen = 0;
  std::uint64_t expect_sum = 0;
  for (int round = 0; round < 1000; ++round) {
    const int pushes = 1 + (round % 3);
    for (int i = 0; i < pushes; ++i) {
      expect_sum += next;
      ASSERT_TRUE(deque.push(next++));
    }
    if (round % 2 == 0) {
      if (auto v = deque.pop()) {
        seen += *v;
      }
    } else {
      if (auto v = deque.steal()) {
        seen += *v;
      }
    }
  }
  while (auto v = deque.pop()) {
    seen += *v;
  }
  EXPECT_EQ(seen, expect_sum);
}

}  // namespace
}  // namespace gpsa
