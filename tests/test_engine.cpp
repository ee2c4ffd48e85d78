// Integration tests for the GPSA core engine: the actor protocol
// (Algorithms 1-3), value-file column flipping, selective dispatch, and
// agreement with the sequential reference executor on all apps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "apps/bfs.hpp"
#include "apps/cc.hpp"
#include "apps/pagerank.hpp"
#include "apps/reference.hpp"
#include "apps/sssp.hpp"
#include "core/engine.hpp"
#include "core/exact_sum.hpp"
#include "graph/csr.hpp"
#include "graph/csr_file.hpp"
#include "graph/generators.hpp"
#include "platform/file_util.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace gpsa {
namespace {

using testing::diamond_graph;
using testing::expect_float_payloads_near;
using testing::expect_payloads_equal;

EngineOptions small_options() {
  EngineOptions eo;
  eo.num_dispatchers = 2;
  eo.num_computers = 2;
  eo.scheduler_workers = 2;
  eo.message_batch = 4;  // tiny batches exercise the flush paths
  return eo;
}

TEST(Engine, BfsOnDiamondMatchesOracle) {
  const EdgeList graph = diamond_graph();
  const BfsProgram program(0);
  const auto result = Engine::run(graph, program, small_options());
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const auto oracle =
      oracle_bfs_levels(Csr::from_edges(graph), /*root=*/0);
  expect_payloads_equal(result.value().values, oracle);
  EXPECT_TRUE(result.value().converged);
}

TEST(Engine, BfsLevelsAreCorrectValues) {
  const EdgeList graph = diamond_graph();
  const BfsProgram program(0);
  const auto result = Engine::run(graph, program, small_options());
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const auto& values = result.value().values;
  EXPECT_EQ(values[0], 0U);
  EXPECT_EQ(values[1], 1U);
  EXPECT_EQ(values[2], 1U);
  EXPECT_EQ(values[3], 2U);
  EXPECT_EQ(values[4], 3U);
  EXPECT_EQ(values[5], kPayloadInfinity);  // isolated vertex unreached
}

TEST(Engine, CcOnChainFindsOneComponent) {
  // Chain symmetrized: everything collapses to label 0.
  EdgeList graph = chain(8);
  EdgeList sym;
  sym.ensure_vertices(graph.num_vertices());
  for (const Edge& e : graph.edges()) {
    sym.add_edge(e.src, e.dst);
    sym.add_edge(e.dst, e.src);
  }
  const ConnectedComponentsProgram program;
  const auto result = Engine::run(sym, program, small_options());
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  for (Payload label : result.value().values) {
    EXPECT_EQ(label, 0U);
  }
  EXPECT_TRUE(result.value().converged);
}

TEST(Engine, PageRankMatchesReferenceOnRmat) {
  const EdgeList graph = rmat(9, 3000, /*seed=*/7);
  const PageRankProgram program(/*iterations=*/5);
  const auto result = Engine::run(graph, program, small_options());
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const ReferenceResult ref =
      reference_run(Csr::from_edges(graph), program);
  EXPECT_EQ(result.value().supersteps, ref.supersteps);
  EXPECT_EQ(result.value().total_messages, ref.total_messages);
  expect_float_payloads_near(result.value().values, ref.values);
}

TEST(Engine, BfsMatchesReferenceOnRmat) {
  const EdgeList graph = rmat(9, 4000, /*seed=*/11);
  const BfsProgram program(0);
  const auto result = Engine::run(graph, program, small_options());
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const ReferenceResult ref =
      reference_run(Csr::from_edges(graph), program);
  EXPECT_EQ(result.value().total_messages, ref.total_messages);
  expect_payloads_equal(result.value().values, ref.values);
}

TEST(Engine, SsspMatchesDijkstraOracle) {
  const EdgeList graph = rmat(8, 2000, /*seed=*/13);
  const SsspProgram program(0);
  const auto result = Engine::run(graph, program, small_options());
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const auto oracle = oracle_sssp(Csr::from_edges(graph), /*source=*/0);
  expect_payloads_equal(result.value().values, oracle);
}

TEST(Engine, SuperstepBudgetCapsRun) {
  const EdgeList graph = chain(64);
  BfsProgram program(0);
  EngineOptions eo = small_options();
  eo.max_supersteps = 3;
  const auto result = Engine::run(graph, program, eo);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().supersteps, 3U);
  EXPECT_FALSE(result.value().converged);
  // Frontier advanced exactly 3 hops.
  EXPECT_EQ(result.value().values[3], 3U);
  EXPECT_EQ(result.value().values[4], kPayloadInfinity);
}

TEST(Engine, SuperstepCapZeroMeansUncapped) {
  // 0 is "no engine-side cap", never "halt at zero": BFS must run the
  // whole chain down and converge.
  const EdgeList graph = chain(16);
  EngineOptions eo = small_options();
  eo.max_supersteps = 0;
  const auto result = Engine::run(graph, BfsProgram(0), eo);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_TRUE(result.value().converged);
  EXPECT_EQ(result.value().supersteps, 16U);
  EXPECT_EQ(result.value().values[15], 15U);
}

TEST(Engine, SuperstepCapOneRunsExactlyOneSuperstep) {
  const EdgeList graph = chain(16);
  EngineOptions eo = small_options();
  eo.max_supersteps = 1;
  const auto result = Engine::run(graph, BfsProgram(0), eo);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().supersteps, 1U);
  EXPECT_FALSE(result.value().converged);
  EXPECT_EQ(result.value().values[1], 1U);
  EXPECT_EQ(result.value().values[2], kPayloadInfinity);
}

TEST(Engine, SmallerProgramCapWinsOverEngineCap) {
  const EdgeList graph = chain(16);
  EngineOptions eo = small_options();
  eo.max_supersteps = 10;
  const auto result = Engine::run(graph, PageRankProgram(3), eo);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().supersteps, 3U);
}

TEST(Engine, ProgramCapZeroRunsZeroSupersteps) {
  // A zero *program* budget really is a zero budget (unlike the engine
  // option, where 0 means uncapped): no superstep runs, and the result is
  // the init values.
  const EdgeList graph = chain(16);
  EngineOptions eo = small_options();
  eo.max_supersteps = 0;
  const auto result = Engine::run(graph, PageRankProgram(0), eo);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().supersteps, 0U);
  EXPECT_FALSE(result.value().converged);
  EXPECT_EQ(result.value().total_messages, 0U);
  for (const Payload v : result.value().values) {
    EXPECT_FLOAT_EQ(payload_to_float(v), 1.0F / 16.0F);
  }
}

TEST(Engine, MessageCountsFollowFrontier) {
  // On a chain, each BFS superstep dispatches exactly one message until
  // the tail, then a zero-message superstep terminates the run.
  const EdgeList graph = chain(5);
  const BfsProgram program(0);
  const auto result = Engine::run(graph, program, small_options());
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const auto& msgs = result.value().superstep_messages;
  ASSERT_EQ(msgs.size(), 5U);
  for (std::size_t s = 0; s + 1 < msgs.size(); ++s) {
    EXPECT_EQ(msgs[s], 1U) << "superstep " << s;
  }
  EXPECT_EQ(msgs.back(), 0U);
}

TEST(Engine, SingleDispatcherSingleComputer) {
  const EdgeList graph = rmat(8, 1500, /*seed=*/3);
  const BfsProgram program(0);
  EngineOptions eo;
  eo.num_dispatchers = 1;
  eo.num_computers = 1;
  eo.scheduler_workers = 1;
  const auto result = Engine::run(graph, program, eo);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const ReferenceResult ref =
      reference_run(Csr::from_edges(graph), program);
  expect_payloads_equal(result.value().values, ref.values);
}

TEST(Engine, ManyActorsOnTinyGraph) {
  const EdgeList graph = diamond_graph();
  const BfsProgram program(0);
  EngineOptions eo;
  eo.num_dispatchers = 8;  // more dispatchers than non-empty intervals
  eo.num_computers = 8;
  eo.scheduler_workers = 4;
  const auto result = Engine::run(graph, program, eo);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  expect_payloads_equal(result.value().values,
                        oracle_bfs_levels(Csr::from_edges(graph), 0));
}

TEST(Engine, UniformPartitionStrategy) {
  const EdgeList graph = rmat(8, 2000, /*seed=*/21);
  const ConnectedComponentsProgram program;
  EngineOptions eo = small_options();
  eo.partition = PartitionStrategy::kUniformVertices;
  const auto result = Engine::run(graph, program, eo);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const ReferenceResult ref =
      reference_run(Csr::from_edges(graph), program);
  expect_payloads_equal(result.value().values, ref.values);
}

TEST(Engine, RejectsZeroWorkerOptions) {
  const EdgeList graph = diamond_graph();
  const BfsProgram program(0);
  EngineOptions eo;
  eo.num_dispatchers = 0;
  const auto result = Engine::run(graph, program, eo);
  EXPECT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(Engine, RejectsEmptyGraph) {
  const EdgeList graph;
  const BfsProgram program(0);
  const auto result = Engine::run(graph, program, small_options());
  EXPECT_FALSE(result.is_ok());
}

TEST(Engine, ReportsPerSuperstepStats) {
  const EdgeList graph = rmat(8, 1000, /*seed=*/5);
  const PageRankProgram program(4);
  const auto result = Engine::run(graph, program, small_options());
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const RunResult& r = result.value();
  EXPECT_EQ(r.superstep_seconds.size(), r.supersteps);
  EXPECT_EQ(r.superstep_messages.size(), r.supersteps);
  EXPECT_EQ(r.superstep_updates.size(), r.supersteps);
  std::uint64_t sum = 0;
  for (auto m : r.superstep_messages) {
    sum += m;
  }
  EXPECT_EQ(sum, r.total_messages);
  EXPECT_GT(r.elapsed_seconds, 0.0);
}

TEST(Engine, RunsFromFigure4bCsrWithoutDegrees) {
  // The Fig. 4b on-disk variant (no inline degrees) drives the
  // dispatcher's degree-from-offsets fallback.
  auto dir = ScratchDir::create("nodeg");
  ASSERT_TRUE(dir.is_ok());
  const EdgeList graph = rmat(8, 2200, 47);
  const std::string base = dir.value().file("g.csr");
  ASSERT_TRUE(preprocess_edges_to_csr(graph, base,
                                      /*with_degree=*/false)
                  .is_ok());
  const PageRankProgram program(5);
  EngineOptions eo = small_options();
  eo.work_dir = dir.value().path();
  const auto result = Engine::run_from_csr(base, program, eo);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const ReferenceResult ref =
      reference_run(Csr::from_edges(graph), program);
  expect_float_payloads_near(result.value().values, ref.values);
}

TEST(Engine, WorkDirFilesAreCreatedAndReusable) {
  auto dir = ScratchDir::create("workdir");
  ASSERT_TRUE(dir.is_ok());
  const EdgeList graph = diamond_graph();
  const BfsProgram program(0);
  EngineOptions eo = small_options();
  eo.work_dir = dir.value().path();
  ASSERT_TRUE(Engine::run(graph, program, eo).is_ok());
  EXPECT_TRUE(file_exists(dir.value().file("graph.csr")));
  EXPECT_TRUE(file_exists(dir.value().file("graph.csr.idx")));
  EXPECT_TRUE(file_exists(dir.value().file("bfs.values")));
  // Second run over the same directory (files overwritten) still works.
  const auto again = Engine::run(graph, program, eo);
  ASSERT_TRUE(again.is_ok());
  expect_payloads_equal(again.value().values,
                        oracle_bfs_levels(Csr::from_edges(graph), 0));
}

TEST(Engine, WorkingSetAndIoPopulated) {
  const EdgeList graph = rmat(8, 1200, 53);
  const PageRankProgram program(3);
  const auto result = Engine::run(graph, program, small_options());
  ASSERT_TRUE(result.is_ok());
  EXPECT_GT(result.value().working_set_bytes, 0U);
  EXPECT_GT(result.value().io.bytes_read, 0U);
  EXPECT_GT(result.value().preprocess_seconds, 0.0);
}

// --- Exact, order-free sum fold (core/exact_sum.hpp) ------------------------

/// PageRank-shaped messages: shares 0.85 * rank / out_degree for ranks
/// spread over five decades and degrees up to 1000.
std::vector<Payload> pagerank_like_messages(std::size_t count,
                                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Payload> messages;
  messages.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const float rank = static_cast<float>(
        std::pow(10.0, -7.0 + 5.0 * rng.next_double()));
    const auto degree = static_cast<float>(1 + rng.next_below(1000));
    messages.push_back(float_to_payload(0.85F * rank / degree));
  }
  return messages;
}

Payload exact_fold(Payload seed, const std::vector<Payload>& messages) {
  ExactSum sum = 0;
  EXPECT_TRUE(exact_sum_add(sum, seed));
  for (const Payload m : messages) {
    EXPECT_TRUE(exact_sum_add(sum, m));
  }
  return exact_sum_to_payload(sum);
}

Payload float_fold(Payload seed, const std::vector<Payload>& messages) {
  float acc = payload_to_float(seed);
  for (const Payload m : messages) {
    acc += payload_to_float(m);
  }
  return float_to_payload(acc);
}

TEST(ExactSum, SameMessagesInAnyOrderGiveIdenticalPayloads) {
  const Payload seed = float_to_payload(0.15F / 262144.0F);
  std::vector<Payload> messages = pagerank_like_messages(20000, 7);
  std::vector<Payload> ascending = messages;
  std::sort(ascending.begin(), ascending.end());
  std::vector<Payload> descending(ascending.rbegin(), ascending.rend());
  std::vector<Payload> shuffled = messages;
  std::shuffle(shuffled.begin(), shuffled.end(), Rng(11));

  // The data is order-sensitive for a float32 fold ...
  EXPECT_NE(float_fold(seed, ascending), float_fold(seed, descending));
  // ... and the exact fold gives one payload for every order.
  const Payload expected = exact_fold(seed, messages);
  EXPECT_EQ(exact_fold(seed, ascending), expected);
  EXPECT_EQ(exact_fold(seed, descending), expected);
  EXPECT_EQ(exact_fold(seed, shuffled), expected);

  // It is the correctly rounded sum up to the per-message truncation.
  double exact = payload_to_float(seed);
  for (const Payload m : messages) {
    exact += payload_to_float(m);
  }
  EXPECT_NEAR(payload_to_float(expected), exact, 1e-6 * exact);
}

TEST(ExactSum, ConvertsEveryFloatFromTwoToTheMinus37UpToEightExactly) {
  EXPECT_EQ(kExactSumPayloadLimit, float_to_payload(8.0F));
  EXPECT_EQ(exact_sum_from_payload(float_to_payload(0x1p-37F)),
            ExactSum{1} << 23);
  EXPECT_EQ(exact_sum_from_payload(float_to_payload(1.0F)),
            ExactSum{1} << kExactSumFracBits);
  // Round trip of a sweep of floats in [2^-37, 8): each converts exactly,
  // so converting back returns the same payload.
  for (float f = 0x1p-37F; f < 8.0F; f *= 1.0009765625F) {
    const Payload p = float_to_payload(f);
    ASSERT_EQ(exact_sum_to_payload(exact_sum_from_payload(p)), p) << f;
  }
  // Below 2^-37 the conversion truncates toward zero, never up.
  EXPECT_EQ(exact_sum_from_payload(float_to_payload(0x1p-61F)), 0U);
  EXPECT_EQ(exact_sum_from_payload(0), 0U);
}

TEST(ExactSum, RangeCoversPageRankMassBoundAndRefusesOverflow) {
  // PageRank's whole mass (<= 1) reaching one vertex in 2^20 messages,
  // plus the teleport seed, sums exactly with room to spare.
  ExactSum sum = 0;
  ASSERT_TRUE(exact_sum_add(sum, float_to_payload(0.15F)));
  const Payload share = float_to_payload(0x1p-20F);
  for (int i = 0; i < (1 << 20); ++i) {
    ASSERT_TRUE(exact_sum_add(sum, share));
  }
  EXPECT_EQ(payload_to_float(exact_sum_to_payload(sum)), 1.15F);
  EXPECT_LT(sum & ~kExactSumTouched, ExactSum{1} << 61);  // below 2.0

  // Just below 8 fits; reaching 8, a payload of 8 or more, or a non-finite
  // payload is refused.
  ExactSum high = 0;
  EXPECT_TRUE(exact_sum_add(high, float_to_payload(7.5F)));
  EXPECT_TRUE(exact_sum_add(high, float_to_payload(0.25F)));
  EXPECT_FALSE(exact_sum_add(high, float_to_payload(0.25F)));
  ExactSum big = 0;
  EXPECT_FALSE(exact_sum_add(big, float_to_payload(8.0F)));
  ExactSum inf = 0;
  EXPECT_FALSE(exact_sum_add(
      inf, float_to_payload(std::numeric_limits<float>::infinity())));
  ExactSum nan = 0;
  EXPECT_FALSE(exact_sum_add(
      nan, float_to_payload(std::numeric_limits<float>::quiet_NaN())));

  // A zero message still marks its vertex as reached this superstep.
  ExactSum zero = 0;
  EXPECT_TRUE(exact_sum_add(zero, 0));
  EXPECT_NE(zero, 0U);
  EXPECT_EQ(exact_sum_to_payload(zero), float_to_payload(0.0F));
}

TEST(Engine, PageRankIdenticalAcrossActorCountsAndRouting) {
  // Without the combiner every message is one source's share, so each
  // vertex sums the same multiset whatever the partition and schedule.
  const EdgeList graph = rmat(9, 6000, 17);
  const PageRankProgram program(6);
  const auto baseline = Engine::run(graph, program, small_options());
  ASSERT_TRUE(baseline.is_ok());
  for (const unsigned actors : {1U, 3U, 5U}) {
    for (const MessageRouting routing :
         {MessageRouting::kRange, MessageRouting::kMod}) {
      EngineOptions eo = small_options();
      eo.num_dispatchers = actors;
      eo.num_computers = actors;
      eo.scheduler_workers = 4;
      eo.routing = routing;
      const auto result = Engine::run(graph, program, eo);
      ASSERT_TRUE(result.is_ok());
      expect_payloads_equal(result.value().values, baseline.value().values);
    }
  }
}

/// Opts into the exact fold but sends 5.0 along every edge, so any vertex
/// with two in-edges leaves the fold's range.
class OutOfRangeSumProgram final : public Program {
 public:
  std::string name() const override { return "out_of_range_sum"; }
  InitialState init(VertexId /*v*/, VertexId /*n*/) const override {
    return {float_to_payload(5.0F), true};
  }
  Payload gen_msg(VertexId /*src*/, VertexId /*dst*/, Payload value,
                  std::uint32_t /*out_degree*/) const override {
    return value;
  }
  Payload first_update(VertexId /*v*/, Payload /*stored*/) const override {
    return 0;
  }
  Payload compute(Payload accumulator, Payload message) const override {
    return float_to_payload(payload_to_float(accumulator) +
                            payload_to_float(message));
  }
  bool exact_sum() const override { return true; }
  std::uint64_t max_supersteps() const override { return 3; }
};

TEST(Engine, ExactSumOutOfRangeFailsTheRun) {
  const OutOfRangeSumProgram program;
  const auto result = Engine::run(diamond_graph(), program, small_options());
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().to_string().find("exact sum"), std::string::npos)
      << result.status().to_string();
}

}  // namespace
}  // namespace gpsa
