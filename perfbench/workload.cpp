#include "workload.hpp"

#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "apps/reference.hpp"
#include "harness/experiment.hpp"
#include "util/rng.hpp"

namespace perfbench {

using gpsa::Result;
using gpsa::Status;

std::optional<WorkloadSpec> find_workload(std::string_view name) {
  // Why each workload exists is recorded in BENCHMARK.json and README.md.
  WorkloadSpec pagerank{WorkloadKind::kPagerankDense,
                        "pagerank-dense",
                        gpsa::PaperGraph::kTwitter2010,
                        0.5,
                        false,
                        gpsa::CsrFormat::kV1,
                        gpsa::CsrOrder::kNone,
                        {},
                        false};
  WorkloadSpec traverse{WorkloadKind::kTraverseSparse,
                        "traverse-sparse",
                        gpsa::PaperGraph::kLiveJournal,
                        1.0,
                        true,
                        gpsa::CsrFormat::kV2,
                        gpsa::CsrOrder::kDegree,
                        {},
                        true};
  // 1 MiB window over 256 KiB blocks: a 6-block (1.5 MiB) cache against a
  // ~4.6 MB v2 file, so every round refills blocks.
  traverse.io.backend = gpsa::IoBackendKind::kPread;
  traverse.io.readahead_bytes = std::size_t{1} << 20;
  for (const WorkloadSpec& spec : {pagerank, traverse}) {
    if (name == spec.name) {
      return spec;
    }
  }
  return std::nullopt;
}

gpsa::EdgeList generate_input(const WorkloadSpec& spec, std::uint64_t seed) {
  gpsa::EdgeList graph = gpsa::generate_paper_graph(spec.graph, spec.scale,
                                                    seed);
  return spec.symmetrize ? gpsa::symmetrize(graph) : graph;
}

// --- Oracle file: a magic word, then length-prefixed u32 arrays ----------

namespace {

constexpr std::uint32_t kOracleMagic = 0x4f52434c;  // "ORCL"
/// Oracle values read per comparison step (64 KiB).
constexpr std::size_t kCheckChunk = 16384;

using File = std::unique_ptr<std::FILE, FileCloser>;

bool put(std::FILE* f, const std::vector<std::uint32_t>& v) {
  const std::uint64_t n = v.size();
  return std::fwrite(&n, sizeof n, 1, f) == 1 &&
         std::fwrite(v.data(), sizeof(std::uint32_t), n, f) == n;
}

bool put(std::FILE* f, const std::vector<std::vector<std::uint32_t>>& vv) {
  const std::uint64_t n = vv.size();
  if (std::fwrite(&n, sizeof n, 1, f) != 1) {
    return false;
  }
  return std::all_of(vv.begin(), vv.end(),
                     [f](const auto& v) { return put(f, v); });
}

/// Reads an array's length and skips its values; returns where they lie.
using Section = OracleFile::Section;

bool skip(std::FILE* f, Section& section) {
  if (std::fread(&section.count, sizeof section.count, 1, f) != 1 ||
      section.count > (1ULL << 32)) {
    return false;
  }
  section.offset = static_cast<std::uint64_t>(::ftello(f));
  return ::fseeko(f, static_cast<off_t>(section.count * sizeof(std::uint32_t)),
                  SEEK_CUR) == 0;
}

/// Compares `values` with the oracle array at `section`, reading
/// kCheckChunk oracle values at a time. `same(v, got, want)` judges one
/// vertex and logs it when it differs.
template <typename Same>
bool compare(std::FILE* f, const Section& section,
             const std::vector<Payload>& values, const char* what, Same same) {
  if (values.size() != section.count) {
    std::fprintf(stderr, "%s: %zu values, oracle has %llu\n", what,
                 values.size(), static_cast<unsigned long long>(section.count));
    return false;
  }
  std::vector<Payload> chunk;
  for (std::size_t first = 0; first < values.size(); first += kCheckChunk) {
    const std::size_t n = std::min(kCheckChunk, values.size() - first);
    chunk.resize(n);
    const auto at = static_cast<off_t>(section.offset +
                                       first * sizeof(std::uint32_t));
    if (::pread(::fileno(f), chunk.data(), n * sizeof(std::uint32_t), at) !=
        static_cast<ssize_t>(n * sizeof(std::uint32_t))) {
      std::fprintf(stderr, "%s: cannot read the oracle\n", what);
      return false;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!same(first + i, values[first + i], chunk[i])) {
        return false;
      }
    }
  }
  return true;
}

bool exact(const char* what, std::size_t v, Payload got, Payload want) {
  if (got != want) {
    std::fprintf(stderr, "%s: vertex %zu is %u, oracle %u\n", what, v, got,
                 want);
    return false;
  }
  return true;
}

}  // namespace

Status Oracle::save(const std::string& path) const {
  File f(std::fopen(path.c_str(), "wb"));
  const bool ok = f != nullptr &&
                  std::fwrite(&kOracleMagic, sizeof kOracleMagic, 1,
                              f.get()) == 1 &&
                  put(f.get(), pagerank) && put(f.get(), roots) &&
                  put(f.get(), levels) && put(f.get(), labels);
  if (!ok || std::fclose(f.release()) != 0) {
    return gpsa::io_error("cannot write oracle " + path);
  }
  return Status::ok();
}

Result<OracleFile> OracleFile::open(const std::string& path) {
  OracleFile o;
  o.file_.reset(std::fopen(path.c_str(), "rb"));
  std::FILE* f = o.file_.get();
  std::uint32_t magic = 0;
  Section roots;
  std::uint64_t num_levels = 0;
  bool ok = f != nullptr && std::fread(&magic, sizeof magic, 1, f) == 1 &&
            magic == kOracleMagic && skip(f, o.pagerank_) && skip(f, roots) &&
            std::fread(&num_levels, sizeof num_levels, 1, f) == 1 &&
            num_levels <= kRoundRoots;
  for (std::uint64_t i = 0; ok && i < num_levels; ++i) {
    ok = skip(f, o.levels_.emplace_back());
  }
  ok = ok && skip(f, o.labels_) && roots.count <= kRoundRoots;
  if (ok) {
    o.roots_.resize(roots.count);
    ok = ::fseeko(f, static_cast<off_t>(roots.offset), SEEK_SET) == 0 &&
         std::fread(o.roots_.data(), sizeof(VertexId), roots.count, f) ==
             roots.count;
  }
  if (!ok) {
    return gpsa::io_error("cannot read oracle " + path);
  }
  return o;
}

bool OracleFile::pagerank_matches(const std::vector<Payload>& values) const {
  return compare(file_.get(), pagerank_, values, "pagerank",
                 [](std::size_t v, Payload got, Payload want) {
                   const double a = gpsa::payload_to_float(got);
                   const double e = gpsa::payload_to_float(want);
                   const double scale =
                       std::max({std::fabs(a), std::fabs(e), 1e-12});
                   if (!(std::fabs(a - e) / scale <= kPageRankRelTol)) {
                     std::fprintf(stderr,
                                  "pagerank: vertex %zu is %.9g, oracle %.9g\n",
                                  v, a, e);
                     return false;
                   }
                   return true;
                 });
}

bool OracleFile::bfs_matches(std::size_t root,
                             const std::vector<Payload>& values) const {
  return root < levels_.size() &&
         compare(file_.get(), levels_[root], values, "bfs",
                 [](std::size_t v, Payload got, Payload want) {
                   return exact("bfs", v, got, want);
                 });
}

bool OracleFile::cc_matches(const std::vector<Payload>& values) const {
  return compare(file_.get(), labels_, values, "cc",
                 [](std::size_t v, Payload got, Payload want) {
                   return exact("cc", v, got, want);
                 });
}

// --- Oracle computation --------------------------------------------------

namespace {

std::vector<VertexId> draw_roots(const gpsa::Csr& csr, std::uint64_t seed,
                                 std::size_t count) {
  gpsa::Rng rng(seed ^ 0x726f6f7473ULL);  // "roots"
  std::vector<VertexId> roots;
  roots.reserve(count);
  while (roots.size() < count) {
    const auto v = static_cast<VertexId>(rng.next_below(csr.num_vertices()));
    if (csr.out_degree(v) > 0) {
      roots.push_back(v);
    }
  }
  return roots;
}

}  // namespace

Oracle build_oracle(const WorkloadSpec& spec, const gpsa::Csr& csr,
                    std::uint64_t seed) {
  Oracle o;
  o.roots = draw_roots(csr, seed, kRoundRoots);
  if (spec.kind == WorkloadKind::kPagerankDense) {
    o.pagerank = gpsa::oracle_pagerank(csr, kPageRankSupersteps);
    return o;
  }
  for (const VertexId root : o.roots) {
    o.levels.push_back(gpsa::oracle_bfs_levels(csr, root));
  }
  o.labels = gpsa::oracle_min_label(csr);
  return o;
}

}  // namespace perfbench
