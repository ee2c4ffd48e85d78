// The benchmark's workloads: their inputs, made from --seed, and the
// oracle values their outputs are checked against.
//
// The oracles come from the independent classic-algorithm implementations
// in apps/reference.hpp (double-accumulation PageRank, queue BFS, label
// fixpoint), computed on an in-memory CSR of the same edge list the
// program preprocesses — never from a stored copy of the engine's output.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/csr.hpp"
#include "graph/csr_v2.hpp"
#include "graph/edge_list.hpp"
#include "graph/generators.hpp"
#include "io/io_backend.hpp"
#include "storage/slot.hpp"
#include "util/status.hpp"

namespace perfbench {

using gpsa::Payload;
using gpsa::VertexId;

enum class WorkloadKind { kPagerankDense, kTraverseSparse };

struct WorkloadSpec {
  WorkloadKind kind;
  const char* name;
  gpsa::PaperGraph graph;
  double scale;
  bool symmetrize;
  gpsa::CsrFormat format;
  gpsa::CsrOrder order;
  /// pread with a block cache smaller than the CSR (traverse-sparse);
  /// unset fields elsewhere keep the program's defaults.
  gpsa::IoOptions io;
  bool checkpoint_each_superstep;
};

std::optional<WorkloadSpec> find_workload(std::string_view name);

/// PageRank job length on pagerank-dense.
inline constexpr std::uint64_t kPageRankSupersteps = 10;
/// BFS roots per traverse-sparse round (one CC follows them).
inline constexpr unsigned kRoundRoots = 8;
/// Hop bound of the BFS queries of the GraphService probe.
inline constexpr std::uint64_t kQueryHops = 2;

/// The seeded input edge list of a workload.
gpsa::EdgeList generate_input(const WorkloadSpec& spec, std::uint64_t seed);

/// The oracle as the prepare phase computes it. Fields a workload does
/// not use stay empty.
struct Oracle {
  std::vector<Payload> pagerank;             // pagerank-dense
  std::vector<VertexId> roots;               // BFS (and probe query) roots
  std::vector<std::vector<Payload>> levels;  // traverse: BFS per root
  std::vector<Payload> labels;               // traverse: CC

  gpsa::Status save(const std::string& path) const;
};

/// Computes the workload's oracle on `csr` (the in-memory CSR of the
/// generated input). Roots are drawn from `seed` among vertices with
/// out-degree > 0.
Oracle build_oracle(const WorkloadSpec& spec, const gpsa::Csr& csr,
                    std::uint64_t seed);

/// Relative tolerance of the PageRank check (the repository's tests use
/// the same bound against this oracle).
inline constexpr double kPageRankRelTol = 1e-4;

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};

/// The measure phase's view of a saved Oracle: the roots in memory, every
/// value array left on disk and compared kCheckChunk values at a time, so
/// the oracle does not raise the measured process's peak RSS.
class OracleFile {
 public:
  static gpsa::Result<OracleFile> open(const std::string& path);

  const std::vector<VertexId>& roots() const { return roots_; }

  /// Output checks; each returns true when the values are right and logs
  /// the first difference to stderr otherwise.
  bool pagerank_matches(const std::vector<Payload>& values) const;
  bool bfs_matches(std::size_t root, const std::vector<Payload>& values) const;
  bool cc_matches(const std::vector<Payload>& values) const;

  /// Where one u32 array lies in the file.
  struct Section {
    std::uint64_t offset = 0;  // bytes from the start of the file
    std::uint64_t count = 0;   // values
  };

 private:
  std::unique_ptr<std::FILE, FileCloser> file_;
  std::vector<VertexId> roots_;
  Section pagerank_;
  std::vector<Section> levels_;
  Section labels_;
};

}  // namespace perfbench
