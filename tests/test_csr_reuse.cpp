// Validated-CSR reuse (DESIGN.md §17): Engine::run_from_csr validates an
// on-disk CSR once per process through CsrFileReader::open_shared. These
// tests pin the soundness side of that cache: a reused reader is only ever
// one whose files are unchanged since a settled validation, so in-place
// rewrites (also within one timestamp tick), in-place corruption and
// deletion are all seen by the next call.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "apps/bfs.hpp"
#include "apps/reference.hpp"
#include "core/engine.hpp"
#include "graph/csr.hpp"
#include "graph/csr_file.hpp"
#include "graph/generators.hpp"
#include "platform/file_util.hpp"
#include "test_support.hpp"

namespace gpsa {
namespace {

using testing::expect_payloads_equal;

constexpr VertexId kVertices = 200;
constexpr EdgeCount kEdges = 1200;

EngineOptions small_options() {
  EngineOptions eo;
  eo.num_dispatchers = 2;
  eo.num_computers = 2;
  eo.scheduler_workers = 2;
  eo.message_batch = 16;
  return eo;
}

EdgeList graph_for(std::uint64_t seed) {
  return erdos_renyi(kVertices, kEdges, seed);
}

std::vector<Payload> bfs_oracle(const EdgeList& graph, VertexId root) {
  return oracle_bfs_levels(Csr::from_edges(graph), root);
}

std::int64_t to_ns(const timespec& t) {
  return std::int64_t{t.tv_sec} * 1'000'000'000 + t.tv_nsec;
}

/// Sleeps until every file of the triple changed more than the reuse
/// slack (2 s) ago, so the next validation may be kept for reuse.
void wait_until_settled(const std::string& base) {
  std::int64_t newest = 0;
  for (const std::string& path : {base, base + ".idx", base + ".perm"}) {
    struct stat st {};
    if (::stat(path.c_str(), &st) == 0) {
      newest = std::max(newest, to_ns(st.st_ctim));
    }
  }
  const std::int64_t ready = newest + std::int64_t{2'100'000'000};
  for (;;) {
    timespec now{};
    ::clock_gettime(CLOCK_REALTIME_COARSE, &now);
    if (to_ns(now) > ready) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

Result<RunResult> run_bfs(const std::string& base, VertexId root) {
  return Engine::run_from_csr(base, BfsProgram(root), small_options());
}

/// Sets the first target of the first non-empty record of a valid v1
/// with-degree file out of range, in place: size and inode stay the same.
void corrupt_first_target(const std::string& base) {
  const auto reader = CsrFileReader::open(base);
  ASSERT_TRUE(reader.is_ok()) << reader.status().to_string();
  ASSERT_EQ(reader.value().format(), CsrFormat::kV1);
  VertexId v = 0;
  while (reader.value().out_degree(v) == 0) {
    ++v;
  }
  const std::uint64_t entry = reader.value().record_offsets()[v] + 1;
  const auto bad = static_cast<std::int32_t>(kVertices + 5);
  std::fstream f(base, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekp(static_cast<std::streamoff>(sizeof(CsrFileHeader) +
                                      entry * sizeof(std::int32_t)));
  f.write(reinterpret_cast<const char*>(&bad), sizeof(bad));
  ASSERT_TRUE(f.good());
}

void expect_corrupt(const Result<RunResult>& result) {
  ASSERT_FALSE(result.is_ok()) << "stale reader reused after corruption";
  EXPECT_EQ(result.status().code(), StatusCode::kCorruptData)
      << result.status().to_string();
}

/// One CSR per test, all written up front and settled with a single wait,
/// so the suite pays the reuse slack once.
class CsrReuse : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto dir = ScratchDir::create("csr_reuse");
    ASSERT_TRUE(dir.is_ok()) << dir.status().to_string();
    dir_.emplace(std::move(dir.value()));
    for (const char* name : kBases) {
      ASSERT_TRUE(preprocess_edges_to_csr(graph_for(1), dir_->file(name),
                                          /*with_degree=*/true)
                      .is_ok());
    }
    for (const char* name : kBases) {
      wait_until_settled(dir_->file(name));
    }
  }
  static void TearDownTestSuite() { dir_.reset(); }

  static std::string base(const char* name) { return dir_->file(name); }

  static constexpr const char* kBases[] = {"shared", "rewrite", "corrupt",
                                           "deleted", "threads"};
  static inline std::optional<ScratchDir> dir_;
};

TEST_F(CsrReuse, SettledFilesShareOneReader) {
  const std::string path = base("shared");
  const auto first = CsrFileReader::open_shared(path);
  const auto second = CsrFileReader::open_shared(path);
  ASSERT_TRUE(first.is_ok() && second.is_ok());
  EXPECT_EQ(first.value().get(), second.value().get());

  const auto expected = bfs_oracle(graph_for(1), 0);
  for (int i = 0; i < 3; ++i) {
    const auto result = run_bfs(path, 0);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    expect_payloads_equal(result.value().values, expected);
  }
}

TEST_F(CsrReuse, FreshlyWrittenFilesAreValidatedEveryCall) {
  auto dir = ScratchDir::create("csr_reuse_fresh");
  ASSERT_TRUE(dir.is_ok());
  const std::string path = dir.value().file("fresh");
  ASSERT_TRUE(
      preprocess_edges_to_csr(graph_for(3), path, /*with_degree=*/true).is_ok());
  // Written just now: a same-size rewrite could still share its ctime, so
  // neither call may hand back the other's reader.
  const auto first = CsrFileReader::open_shared(path);
  const auto second = CsrFileReader::open_shared(path);
  ASSERT_TRUE(first.is_ok() && second.is_ok());
  EXPECT_NE(first.value().get(), second.value().get());
}

TEST_F(CsrReuse, SameSizeInPlaceRewritesAreSeenAtOnce) {
  const std::string path = base("rewrite");
  // Start from a reader the slot keeps, so the first rewrite must break a
  // settled key; later ones often land within the previous one's
  // timestamp tick.
  const auto cached = CsrFileReader::open_shared(path);
  ASSERT_TRUE(cached.is_ok());
  ASSERT_EQ(cached.value().get(), CsrFileReader::open_shared(path).value().get());
  struct stat before {};
  ASSERT_EQ(::stat(path.c_str(), &before), 0);

  const struct {
    CsrFormat format;
    CsrOrder order;
  } layouts[] = {{CsrFormat::kV1, CsrOrder::kNone},
                 {CsrFormat::kV2, CsrOrder::kNone},
                 {CsrFormat::kV2, CsrOrder::kDegree}};
  std::vector<Payload> previous = bfs_oracle(graph_for(1), 0);
  std::uint64_t seed = 100;
  for (const auto& layout : layouts) {
    for (int i = 0; i < 50; ++i) {
      const EdgeList graph = graph_for(++seed);
      ASSERT_EQ(graph.num_vertices(), kVertices);
      ASSERT_EQ(graph.num_edges(), kEdges);
      ASSERT_TRUE(preprocess_edges_to_csr(graph, path, /*with_degree=*/true,
                                          layout.format, layout.order)
                      .is_ok());
      struct stat after {};
      ASSERT_EQ(::stat(path.c_str(), &after), 0);
      ASSERT_EQ(after.st_ino, before.st_ino) << "rewrite was not in place";
      if (layout.format == CsrFormat::kV1) {
        ASSERT_EQ(after.st_size, before.st_size) << "v1 size depends on n, m";
      }
      const std::vector<Payload> expected = bfs_oracle(graph, 0);
      ASSERT_NE(expected, previous) << "graphs must differ to catch staleness";
      const auto result = run_bfs(path, 0);
      ASSERT_TRUE(result.is_ok()) << result.status().to_string();
      expect_payloads_equal(result.value().values, expected);
      EXPECT_EQ(result.value().csr_format, layout.format);
      EXPECT_EQ(result.value().csr_order, layout.order);
      previous = expected;
      if (layout.format == CsrFormat::kV1) {
        // Same size, often within the rewrite's timestamp tick.
        corrupt_first_target(path);
        expect_corrupt(run_bfs(path, 0));
      }
    }
  }
}

TEST_F(CsrReuse, InPlaceCorruptionAfterCachedRunIsCaught) {
  const std::string path = base("corrupt");
  const auto ok = run_bfs(path, 0);
  ASSERT_TRUE(ok.is_ok()) << ok.status().to_string();
  const auto cached = CsrFileReader::open_shared(path);
  ASSERT_TRUE(cached.is_ok());
  ASSERT_EQ(cached.value().get(), CsrFileReader::open_shared(path).value().get())
      << "the run's reader should be the cached one";

  corrupt_first_target(path);
  for (int i = 0; i < 3; ++i) {
    expect_corrupt(run_bfs(path, 0));
  }
}

TEST_F(CsrReuse, DeletedCsrReturnsAnError) {
  const std::string path = base("deleted");
  const auto ok = run_bfs(path, 0);
  ASSERT_TRUE(ok.is_ok()) << ok.status().to_string();
  ASSERT_EQ(CsrFileReader::open_shared(path).value().get(),
            CsrFileReader::open_shared(path).value().get());

  std::filesystem::remove(path);
  const auto result = run_bfs(path, 0);
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), CsrFileReader::open(path).status().code());

  std::filesystem::remove(path + ".idx");
  EXPECT_FALSE(run_bfs(path, 0).is_ok());
}

TEST_F(CsrReuse, ConcurrentCallsOnOnePathMatchTheOracle) {
  const std::string path = base("threads");
  const EdgeList graph = graph_for(1);
  constexpr int kRuns = 4;
  std::vector<std::vector<Payload>> got[2];
  std::vector<std::string> errors[2];
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRuns; ++i) {
        const auto result = run_bfs(path, static_cast<VertexId>(t * kRuns + i));
        if (result.is_ok()) {
          got[t].push_back(result.value().values);
        } else {
          errors[t].push_back(result.status().to_string());
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < 2; ++t) {
    ASSERT_TRUE(errors[t].empty()) << errors[t].front();
    ASSERT_EQ(got[t].size(), static_cast<std::size_t>(kRuns));
    for (int i = 0; i < kRuns; ++i) {
      expect_payloads_equal(got[t][i],
                            bfs_oracle(graph, static_cast<VertexId>(t * kRuns + i)));
    }
  }
}

}  // namespace
}  // namespace gpsa
