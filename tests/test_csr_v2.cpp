// v2 CSR storage (DESIGN.md §16): varint delta-gap codec, renumbering
// permutations, format negotiation, the converter, byte-weighted
// partitioning, checkpoint write-back batching, and — the contract the
// CI csr-v2 gate leans on — result equality across format x order x
// exec mode x I/O backend. v1 files must stay byte-for-byte what the
// historical writer produced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "apps/bfs.hpp"
#include "apps/cc.hpp"
#include "apps/pagerank.hpp"
#include "cluster/cluster_net.hpp"
#include "core/engine.hpp"
#include "graph/csr_file.hpp"
#include "graph/csr_v2.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "platform/file_util.hpp"
#include "test_support.hpp"

namespace gpsa {
namespace {

using testing::diamond_graph;
using testing::expect_payloads_equal;

// --- Varint codec ------------------------------------------------------------

TEST(CsrV2Varint, RoundTripsBoundaryValues) {
  for (const std::uint32_t value :
       {0u, 1u, 127u, 128u, 16383u, 16384u, 0x1fffffu, 0x200000u, 0xfffffffu,
        0x10000000u, 0xffffffffu}) {
    std::vector<std::uint8_t> bytes;
    append_varint(bytes, value);
    ASSERT_LE(bytes.size(), kMaxVarintBytes);
    const std::uint8_t* p = bytes.data();
    std::uint32_t decoded = 0;
    ASSERT_TRUE(decode_varint(p, bytes.data() + bytes.size(), decoded));
    EXPECT_EQ(decoded, value);
    EXPECT_EQ(p, bytes.data() + bytes.size());
    // The fast decoder must agree on checked-accepted bytes.
    const std::uint8_t* q = bytes.data();
    EXPECT_EQ(read_varint_fast(q), value);
    EXPECT_EQ(q, p);
  }
}

TEST(CsrV2Varint, RejectsTruncatedAndOverlongGroups) {
  // Truncated: continuation bit set, no next byte.
  const std::uint8_t truncated[] = {0x80};
  const std::uint8_t* p = truncated;
  std::uint32_t value = 0;
  EXPECT_FALSE(decode_varint(p, truncated + 1, value));

  // Six-byte group: one byte past the 32-bit maximum.
  const std::uint8_t overlong[] = {0x80, 0x80, 0x80, 0x80, 0x80, 0x01};
  p = overlong;
  EXPECT_FALSE(decode_varint(p, overlong + sizeof(overlong), value));

  // Five bytes but with set bits beyond bit 31 (would silently wrap).
  const std::uint8_t overflow[] = {0xff, 0xff, 0xff, 0xff, 0x1f};
  p = overflow;
  EXPECT_FALSE(decode_varint(p, overflow + sizeof(overflow), value));

  // The same five bytes capped at bit 31 are the legitimate UINT32_MAX.
  const std::uint8_t max32[] = {0xff, 0xff, 0xff, 0xff, 0x0f};
  p = max32;
  ASSERT_TRUE(decode_varint(p, max32 + sizeof(max32), value));
  EXPECT_EQ(value, 0xffffffffu);

  // Empty input.
  p = max32;
  EXPECT_FALSE(decode_varint(p, max32, value));
}

// --- Record codec ------------------------------------------------------------

std::vector<std::int32_t> checked_decode_or_die(
    const std::vector<std::uint8_t>& bytes, VertexId n) {
  std::vector<std::int32_t> out;
  const Status st = decode_csr_v2_record_checked(bytes, n, out);
  EXPECT_TRUE(st.is_ok()) << st.to_string();
  return out;
}

TEST(CsrV2Record, RoundTripsAcrossRestartBoundaries) {
  // 600 targets crosses two restart points (256, 512); gaps of 3 with a
  // duplicate pair thrown in (gap 0 must be legal inside a record).
  std::vector<VertexId> targets;
  for (VertexId i = 0; i < 600; ++i) {
    targets.push_back(3 * i);
  }
  targets.push_back(targets.back());

  std::vector<std::uint8_t> bytes;
  encode_csr_v2_record(targets, bytes);
  const auto entries =
      checked_decode_or_die(bytes, /*num_vertices=*/3 * 600 + 1);
  ASSERT_EQ(entries.size(), targets.size() + 2);
  EXPECT_EQ(entries.front(), static_cast<std::int32_t>(targets.size()));
  EXPECT_EQ(entries.back(), kCsrEndOfList);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    EXPECT_EQ(entries[i + 1], static_cast<std::int32_t>(targets[i]));
  }

  // The hot-path decoder agrees entry for entry.
  std::vector<std::int32_t> fast(targets.size() + 2);
  ASSERT_EQ(decode_csr_v2_record_fast(bytes.data(), fast.data()),
            fast.size());
  EXPECT_EQ(fast, entries);
}

TEST(CsrV2Record, EmptyRecordIsOneByte) {
  std::vector<std::uint8_t> bytes;
  encode_csr_v2_record({}, bytes);
  ASSERT_EQ(bytes.size(), 1u);
  const auto entries = checked_decode_or_die(bytes, 1);
  EXPECT_EQ(entries, (std::vector<std::int32_t>{0, kCsrEndOfList}));
}

TEST(CsrV2Record, CheckedDecodeRejectsMalformedRecords) {
  std::vector<std::int32_t> out;
  const VertexId n = 100;

  // Degree varint truncated.
  EXPECT_FALSE(decode_csr_v2_record_checked(
                   std::vector<std::uint8_t>{0x80}, n, out)
                   .is_ok());
  // Degree larger than the remaining bytes could possibly hold.
  EXPECT_FALSE(decode_csr_v2_record_checked(
                   std::vector<std::uint8_t>{0x09, 0x01}, n, out)
                   .is_ok());
  // Target out of range.
  EXPECT_FALSE(decode_csr_v2_record_checked(
                   std::vector<std::uint8_t>{0x01, 0x64}, n, out)
                   .is_ok());
  // Gap overflowing the id space: absolute 0xffffffff then gap 1.
  EXPECT_FALSE(decode_csr_v2_record_checked(
                   std::vector<std::uint8_t>{0x02, 0xff, 0xff, 0xff, 0xff,
                                             0x0f, 0x01},
                   0x7fffffffu, out)
                   .is_ok());
  // Trailing bytes after the last target.
  EXPECT_FALSE(decode_csr_v2_record_checked(
                   std::vector<std::uint8_t>{0x01, 0x05, 0x00}, n, out)
                   .is_ok());
  // A well-formed record still decodes after all those rejections (the
  // output vector must not have been corrupted by partial appends).
  out.clear();
  EXPECT_TRUE(decode_csr_v2_record_checked(
                  std::vector<std::uint8_t>{0x02, 0x05, 0x02}, n, out)
                  .is_ok());
  EXPECT_EQ(out, (std::vector<std::int32_t>{2, 5, 7, kCsrEndOfList}));
}

TEST(CsrV2Record, CheckedDecodeRejectsDescendingRestart) {
  // Two targets around a restart boundary where the absolute restart
  // value goes *backwards*: 256 targets 0..255, then absolute 10.
  std::vector<VertexId> targets(kCsrV2RestartInterval);
  std::iota(targets.begin(), targets.end(), 0u);
  std::vector<std::uint8_t> bytes;
  append_varint(bytes, kCsrV2RestartInterval + 1);  // degree
  append_varint(bytes, targets[0]);
  for (std::size_t i = 1; i < targets.size(); ++i) {
    append_varint(bytes, targets[i] - targets[i - 1]);
  }
  append_varint(bytes, 10);  // restart slot: absolute, and non-ascending
  std::vector<std::int32_t> out;
  EXPECT_FALSE(decode_csr_v2_record_checked(bytes, 1000, out).is_ok());
}

// --- Order permutations ------------------------------------------------------

void expect_is_permutation(const std::vector<VertexId>& perm, VertexId n) {
  ASSERT_EQ(perm.size(), n);
  std::vector<bool> seen(n, false);
  for (const VertexId v : perm) {
    ASSERT_LT(v, n);
    ASSERT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(CsrV2Order, DegreePermutationIsStableHubsFirst) {
  const Csr csr = Csr::from_edges(diamond_graph());
  const auto perm = build_order_permutation(csr, CsrOrder::kDegree);
  expect_is_permutation(perm, csr.num_vertices());
  // Degrees: v0=2, v1=1, v2=1, v3=1, v4=0, v5=0 -> hubs first, ties in
  // original id order (stable).
  EXPECT_EQ(perm, (std::vector<VertexId>{0, 1, 2, 3, 4, 5}));

  const Csr reversed = Csr::from_edges([] {
    EdgeList g;
    g.add_edge(4, 0);
    g.add_edge(4, 1);
    g.add_edge(4, 2);
    g.add_edge(2, 0);
    g.ensure_vertices(5);
    return g;
  }());
  const auto hub_last = build_order_permutation(reversed, CsrOrder::kDegree);
  expect_is_permutation(hub_last, 5);
  EXPECT_EQ(hub_last[0], 4u);  // degree 3 hub gets new id 0
  EXPECT_EQ(hub_last[1], 2u);  // degree 1 next
}

TEST(CsrV2Order, BfsPermutationCoversEveryComponent) {
  // diamond_graph has an isolated vertex 5 — BFS roots must reach it.
  const Csr csr = Csr::from_edges(diamond_graph());
  const auto perm = build_order_permutation(csr, CsrOrder::kBfs);
  expect_is_permutation(perm, csr.num_vertices());
  const auto identity =
      build_order_permutation(csr, CsrOrder::kNone);
  EXPECT_EQ(identity, (std::vector<VertexId>{0, 1, 2, 3, 4, 5}));
}

TEST(CsrV2Order, NamesAndEnvResolutionRoundTrip) {
  for (const auto order :
       {CsrOrder::kNone, CsrOrder::kDegree, CsrOrder::kBfs}) {
    const auto parsed = parse_csr_order(csr_order_name(order));
    ASSERT_TRUE(parsed.is_ok());
    EXPECT_EQ(parsed.value(), order);
  }
  EXPECT_FALSE(parse_csr_order("hilbert").is_ok());
  for (const auto format : {CsrFormat::kV1, CsrFormat::kV2}) {
    const auto parsed = parse_csr_format(csr_format_name(format));
    ASSERT_TRUE(parsed.is_ok());
    EXPECT_EQ(parsed.value(), format);
  }
  EXPECT_FALSE(parse_csr_format("v3").is_ok());
  // Explicit request beats the environment/default.
  EXPECT_EQ(resolve_csr_format(CsrFormat::kV2), CsrFormat::kV2);
  EXPECT_EQ(resolve_csr_order(CsrOrder::kBfs), CsrOrder::kBfs);
}

// --- File format -------------------------------------------------------------

TEST(CsrV2File, V1LayoutIsByteForByteTheHistoricalOne) {
  auto dir = ScratchDir::create("csr_v2_golden");
  ASSERT_TRUE(dir.is_ok());
  const std::string base = dir.value().file("golden.csr");
  ASSERT_TRUE(preprocess_edges_to_csr(diamond_graph(), base,
                                      /*with_degree=*/true)
                  .is_ok());

  auto bytes_or = read_file(base);
  ASSERT_TRUE(bytes_or.is_ok());
  const auto& bytes = bytes_or.value();
  CsrFileHeader header{};
  ASSERT_GE(bytes.size(), sizeof(header));
  std::memcpy(&header, bytes.data(), sizeof(header));
  EXPECT_EQ(header.magic, CsrFileHeader::kMagic);
  EXPECT_EQ(header.version, CsrFileHeader::kVersion);
  EXPECT_EQ(header.flags, CsrFileHeader::kFlagHasDegree);
  EXPECT_EQ(header.num_vertices, 6u);
  EXPECT_EQ(header.num_edges, 5u);
  EXPECT_EQ(header.num_entries, 5u + 2u * 6u);

  // [deg] targets -1 per vertex, in id order.
  const std::vector<std::int32_t> expected = {
      2, 1, 2, -1, 1, 3, -1, 1, 3, -1, 1, 4, -1, 0, -1, 0, -1};
  ASSERT_EQ(bytes.size(), sizeof(header) + expected.size() * 4);
  std::vector<std::int32_t> entries(expected.size());
  std::memcpy(entries.data(), bytes.data() + sizeof(header),
              expected.size() * 4);
  EXPECT_EQ(entries, expected);
}

/// Opens `base` and returns every record as (degree, targets) keyed by
/// *original* vertex id (translated through the permutation if present).
std::vector<std::vector<std::int32_t>> original_adjacency(
    const std::string& base) {
  auto reader_or = CsrFileReader::open(base);
  EXPECT_TRUE(reader_or.is_ok()) << reader_or.status().to_string();
  const CsrFileReader& reader = reader_or.value();
  const auto perm = reader.permutation();
  std::vector<VertexId> inverse(perm.empty() ? 0 : reader.num_vertices());
  for (VertexId nv = 0; nv < static_cast<VertexId>(perm.size()); ++nv) {
    inverse[perm[nv]] = nv;
  }
  std::vector<std::vector<std::int32_t>> adj(reader.num_vertices());
  for (VertexId ov = 0; ov < reader.num_vertices(); ++ov) {
    const VertexId v = perm.empty() ? ov : inverse[ov];
    const auto record = reader.record(v);
    std::vector<std::int32_t> targets(record.targets.begin(),
                                      record.targets.end());
    if (!perm.empty()) {
      for (std::int32_t& t : targets) {
        t = static_cast<std::int32_t>(perm[static_cast<VertexId>(t)]);
      }
    }
    std::sort(targets.begin(), targets.end());
    adj[ov] = std::move(targets);
  }
  return adj;
}

TEST(CsrV2File, V2RoundTripsEveryOrderAgainstV1) {
  auto dir = ScratchDir::create("csr_v2_roundtrip");
  ASSERT_TRUE(dir.is_ok());
  const EdgeList graph = rmat(/*scale=*/8, /*edges=*/4000, /*seed=*/7);

  const std::string v1_base = dir.value().file("v1.csr");
  ASSERT_TRUE(preprocess_edges_to_csr(graph, v1_base, true).is_ok());
  const auto v1_adj = original_adjacency(v1_base);

  for (const auto order :
       {CsrOrder::kNone, CsrOrder::kDegree, CsrOrder::kBfs}) {
    const std::string v2_base =
        dir.value().file(std::string("v2_") + csr_order_name(order) + ".csr");
    ASSERT_TRUE(preprocess_edges_to_csr(graph, v2_base, true, CsrFormat::kV2,
                                        order)
                    .is_ok());
    auto reader_or = CsrFileReader::open(v2_base);
    ASSERT_TRUE(reader_or.is_ok());
    EXPECT_EQ(reader_or.value().format(), CsrFormat::kV2);
    EXPECT_EQ(reader_or.value().order(), order);
    EXPECT_EQ(reader_or.value().unit_bytes(), 1u);
    EXPECT_EQ(reader_or.value().permutation().empty(),
              order == CsrOrder::kNone);
    EXPECT_EQ(original_adjacency(v2_base), v1_adj);
  }

  // v1 cannot carry an order.
  EXPECT_FALSE(preprocess_edges_to_csr(graph, dir.value().file("bad.csr"),
                                       true, CsrFormat::kV1,
                                       CsrOrder::kDegree)
                   .is_ok());
}

TEST(CsrV2File, CompressesTheRmatStandInAtLeastOnePointFive) {
  auto dir = ScratchDir::create("csr_v2_ratio");
  ASSERT_TRUE(dir.is_ok());
  const EdgeList graph = rmat(/*scale=*/10, /*edges=*/30000, /*seed=*/3);
  const std::string v1_base = dir.value().file("v1.csr");
  const std::string v2_base = dir.value().file("v2.csr");
  ASSERT_TRUE(preprocess_edges_to_csr(graph, v1_base, true).is_ok());
  ASSERT_TRUE(preprocess_edges_to_csr(graph, v2_base, true, CsrFormat::kV2,
                                      CsrOrder::kNone)
                  .is_ok());
  auto v1 = CsrFileReader::open(v1_base);
  auto v2 = CsrFileReader::open(v2_base);
  ASSERT_TRUE(v1.is_ok() && v2.is_ok());
  EXPECT_GE(v1.value().entry_file_bytes() * 2,
            v2.value().entry_file_bytes() * 3)
      << "v1=" << v1.value().entry_file_bytes()
      << " v2=" << v2.value().entry_file_bytes();
}

TEST(CsrV2File, ConverterRoundTripsBothDirections) {
  auto dir = ScratchDir::create("csr_v2_convert");
  ASSERT_TRUE(dir.is_ok());
  const EdgeList graph = rmat(/*scale=*/7, /*edges=*/2000, /*seed=*/11);
  const std::string v1_base = dir.value().file("v1.csr");
  ASSERT_TRUE(preprocess_edges_to_csr(graph, v1_base, true).is_ok());
  const auto reference = original_adjacency(v1_base);

  // v1 -> v2/degree -> v1 again: the renumbered file converts back to
  // original ids (the converter reads through the permutation).
  const std::string v2_base = dir.value().file("v2.csr");
  const std::string back_base = dir.value().file("back.csr");
  ASSERT_TRUE(convert_csr_file(v1_base, v2_base, CsrFormat::kV2,
                               CsrOrder::kDegree, true)
                  .is_ok());
  EXPECT_EQ(original_adjacency(v2_base), reference);
  ASSERT_TRUE(convert_csr_file(v2_base, back_base, CsrFormat::kV1,
                               CsrOrder::kNone, true)
                  .is_ok());
  auto back = CsrFileReader::open(back_base);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().format(), CsrFormat::kV1);
  EXPECT_EQ(original_adjacency(back_base), reference);
}

// --- Version negotiation / corruption rejection ------------------------------

class CsrV2Negotiation : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = ScratchDir::create("csr_v2_negotiate");
    ASSERT_TRUE(dir.is_ok());
    dir_ = std::move(dir).value();
    base_ = dir_.file("file.csr");
    ASSERT_TRUE(preprocess_edges_to_csr(rmat(6, 500, 5), base_, true,
                                        CsrFormat::kV2, CsrOrder::kNone)
                    .is_ok());
    auto bytes = read_file(base_);
    ASSERT_TRUE(bytes.is_ok());
    entry_bytes_ = std::move(bytes).value();
  }

  /// Rewrites the entry file with `mutate` applied to a fresh copy and
  /// expects open() to reject it.
  void expect_rejected(void (*mutate)(std::vector<std::byte>&),
                       const char* what) {
    std::vector<std::byte> copy = entry_bytes_;
    mutate(copy);
    ASSERT_TRUE(write_file(base_, copy.data(), copy.size()).is_ok());
    EXPECT_FALSE(CsrFileReader::open(base_).is_ok()) << what;
  }

  static CsrFileHeader& header_of(std::vector<std::byte>& bytes) {
    return *reinterpret_cast<CsrFileHeader*>(bytes.data());
  }

  ScratchDir dir_;
  std::string base_;
  std::vector<std::byte> entry_bytes_;
};

TEST_F(CsrV2Negotiation, AcceptsThePristineFile) {
  EXPECT_TRUE(CsrFileReader::open(base_).is_ok());
}

TEST_F(CsrV2Negotiation, RejectsUnknownVersion) {
  expect_rejected([](std::vector<std::byte>& b) { header_of(b).version = 3; },
                  "version 3");
}

TEST_F(CsrV2Negotiation, RejectsV2WithoutDegreeFlag) {
  expect_rejected(
      [](std::vector<std::byte>& b) {
        header_of(b).flags &= ~CsrFileHeader::kFlagHasDegree;
      },
      "v2 without has_degree");
}

TEST_F(CsrV2Negotiation, RejectsUnknownFlagBits) {
  expect_rejected(
      [](std::vector<std::byte>& b) { header_of(b).flags |= 1u << 4; },
      "reserved flag bit");
}

TEST_F(CsrV2Negotiation, RejectsTruncatedBody) {
  expect_rejected([](std::vector<std::byte>& b) { b.pop_back(); },
                  "body one byte short of the header's num_entries");
}

TEST_F(CsrV2Negotiation, RejectsDegreeSumMismatch) {
  expect_rejected(
      [](std::vector<std::byte>& b) { header_of(b).num_edges += 1; },
      "decoded degrees must sum to num_edges");
}

TEST_F(CsrV2Negotiation, RejectsTruncatedVarintChain) {
  expect_rejected(
      [](std::vector<std::byte>& b) { b.back() = std::byte{0x80}; },
      "final record ends mid-varint");
}

TEST_F(CsrV2Negotiation, RejectsOrderFlagWithoutPermFile) {
  expect_rejected(
      [](std::vector<std::byte>& b) {
        header_of(b).flags |= 1u << CsrFileHeader::kOrderShift;
      },
      "order flag set but no .perm sidecar");
}

TEST_F(CsrV2Negotiation, RejectsNonBijectivePermFile) {
  auto dir = ScratchDir::create("csr_v2_badperm");
  ASSERT_TRUE(dir.is_ok());
  const std::string base = dir.value().file("perm.csr");
  ASSERT_TRUE(preprocess_edges_to_csr(rmat(6, 500, 5), base, true,
                                      CsrFormat::kV2, CsrOrder::kDegree)
                  .is_ok());
  ASSERT_TRUE(CsrFileReader::open(base).is_ok());
  auto perm_bytes = read_file(base + ".perm");
  ASSERT_TRUE(perm_bytes.is_ok());
  auto bytes = std::move(perm_bytes).value();
  // Duplicate entry 0 over entry 1: no longer a bijection.
  std::memcpy(bytes.data() + sizeof(CsrPermHeader) + sizeof(VertexId),
              bytes.data() + sizeof(CsrPermHeader), sizeof(VertexId));
  ASSERT_TRUE(write_file(base + ".perm", bytes.data(), bytes.size()).is_ok());
  EXPECT_FALSE(CsrFileReader::open(base).is_ok());
}

// --- Byte-weighted partitioning ----------------------------------------------

TEST(CsrV2Partition, BalancedEdgesWeighsEncodedBytesNotDegrees) {
  // Two halves with *identical degrees* but very different encoded sizes:
  // the first half's targets are scattered across the id space (large
  // gaps, multi-byte varints), the second half's are consecutive
  // neighbors (one-byte gaps). A degree-weighted cut would split at the
  // midpoint and hand part 0 most of the bytes.
  const VertexId n = 2048;
  const VertexId half = n / 2;
  const unsigned degree = 8;
  EdgeList graph;
  graph.ensure_vertices(n);
  for (VertexId v = 0; v < half; ++v) {
    for (unsigned i = 0; i < degree; ++i) {
      graph.add_edge(v, (v * 37 + i * (n / degree)) % n);  // scattered
    }
  }
  for (VertexId v = half; v < n; ++v) {
    for (unsigned i = 0; i < degree; ++i) {
      graph.add_edge(v, (v + 1 + i) % n);  // consecutive
    }
  }

  auto dir = ScratchDir::create("csr_v2_partition");
  ASSERT_TRUE(dir.is_ok());
  const std::string base = dir.value().file("skew.csr");
  ASSERT_TRUE(preprocess_edges_to_csr(graph, base, true, CsrFormat::kV2,
                                      CsrOrder::kNone)
                  .is_ok());
  auto reader_or = CsrFileReader::open(base);
  ASSERT_TRUE(reader_or.is_ok());
  const CsrFileReader& reader = reader_or.value();
  const auto offsets = reader.record_offsets();

  // The scattered half must actually cost more bytes, or the fixture
  // proves nothing.
  ASSERT_GT(offsets[half] - offsets[0],
            (offsets[n] - offsets[half]) * 3 / 2);

  const unsigned parts = 4;
  std::uint64_t max_record = 0;
  for (VertexId v = 0; v < n; ++v) {
    max_record = std::max(max_record, offsets[v + 1] - offsets[v]);
  }
  const auto intervals =
      make_intervals(reader, parts, PartitionStrategy::kBalancedEdges);
  ASSERT_EQ(intervals.size(), parts);
  std::uint64_t total_edges = 0;
  for (const Interval& iv : intervals) {
    // In v2 begin/end_entry are byte offsets; the greedy prefix cut
    // guarantees no part exceeds its ideal share by more than one record.
    EXPECT_LE(iv.end_entry - iv.begin_entry,
              reader.num_units() / parts + max_record)
        << "interval [" << iv.begin_vertex << ", " << iv.end_vertex << ")";
    // edge_count must be true edges, not the byte weights build() summed.
    std::uint64_t edges_in_interval = 0;
    for (VertexId v = iv.begin_vertex; v < iv.end_vertex; ++v) {
      edges_in_interval += reader.out_degree(v);
    }
    EXPECT_EQ(iv.edge_count, edges_in_interval);
    total_edges += iv.edge_count;
  }
  EXPECT_EQ(total_edges, reader.num_edges());
}

// --- Engine equality matrix --------------------------------------------------

Result<RunResult> run_engine(const EdgeList& graph, const Program& program,
                             CsrFormat format, CsrOrder order, ExecMode exec,
                             IoBackendKind backend, unsigned actors) {
  EngineOptions eo;
  eo.num_dispatchers = actors;
  eo.num_computers = actors;
  eo.scheduler_workers = actors;
  eo.csr_format = format;
  eo.csr_order = order;
  eo.exec = exec;
  eo.io.backend = backend;
  return Engine::run(graph, program, eo);
}

TEST(CsrV2Engine, MonotoneAppsBitIdenticalAcrossFormatOrderExecBackend) {
  const EdgeList graph = rmat(/*scale=*/9, /*edges=*/8000, /*seed=*/17);
  const BfsProgram bfs(/*root=*/0);
  const ConnectedComponentsProgram cc;
  for (const Program* program :
       std::initializer_list<const Program*>{&bfs, &cc}) {
    auto baseline = run_engine(graph, *program, CsrFormat::kV1,
                               CsrOrder::kNone, ExecMode::kWorklist,
                               IoBackendKind::kMmap, 2);
    ASSERT_TRUE(baseline.is_ok()) << baseline.status().to_string();
    for (const auto format : {CsrFormat::kV1, CsrFormat::kV2}) {
      for (const auto order :
           {CsrOrder::kNone, CsrOrder::kDegree, CsrOrder::kBfs}) {
        if (format == CsrFormat::kV1 && order != CsrOrder::kNone) {
          continue;
        }
        for (const auto exec : {ExecMode::kSweep, ExecMode::kWorklist}) {
          for (const auto backend :
               {IoBackendKind::kMmap, IoBackendKind::kPread}) {
            auto run = run_engine(graph, *program, format, order, exec,
                                  backend, 2);
            ASSERT_TRUE(run.is_ok()) << run.status().to_string();
            EXPECT_EQ(run.value().csr_format, format);
            EXPECT_EQ(run.value().csr_order, order);
            EXPECT_GT(run.value().csr_file_bytes, 0u);
            expect_payloads_equal(run.value().values,
                                  baseline.value().values);
          }
        }
      }
    }
  }
}

TEST(CsrV2Engine, PageRankBitIdenticalAcrossFormatsAtFixedOrder) {
  // Format changes how bytes sit on disk, never which messages fold in
  // which order — at a fixed vertex order and one actor of each kind the
  // float results must be bit-identical, not merely close.
  const EdgeList graph = rmat(/*scale=*/8, /*edges=*/4000, /*seed=*/23);
  const PageRankProgram pagerank(/*iterations=*/10);
  auto v1 = run_engine(graph, pagerank, CsrFormat::kV1, CsrOrder::kNone,
                       ExecMode::kWorklist, IoBackendKind::kMmap, 1);
  ASSERT_TRUE(v1.is_ok()) << v1.status().to_string();
  for (const auto exec : {ExecMode::kSweep, ExecMode::kWorklist}) {
    for (const auto backend :
         {IoBackendKind::kMmap, IoBackendKind::kPread}) {
      auto v2 = run_engine(graph, pagerank, CsrFormat::kV2, CsrOrder::kNone,
                           exec, backend, 1);
      ASSERT_TRUE(v2.is_ok()) << v2.status().to_string();
      expect_payloads_equal(v2.value().values, v1.value().values);
    }
  }
  // Renumbering changes the order messages reach each vertex, but the
  // exact-sum fold (core/exact_sum.hpp) does not depend on it, so results
  // stay bit-identical and keyed by original ids.
  for (const auto order : {CsrOrder::kDegree, CsrOrder::kBfs}) {
    auto reordered = run_engine(graph, pagerank, CsrFormat::kV2, order,
                                ExecMode::kWorklist, IoBackendKind::kMmap, 1);
    ASSERT_TRUE(reordered.is_ok()) << reordered.status().to_string();
    expect_payloads_equal(reordered.value().values, v1.value().values);
  }
}

TEST(CsrV2Engine, RejectsV1WithOrder) {
  EngineOptions eo;
  eo.csr_format = CsrFormat::kV1;
  eo.csr_order = CsrOrder::kDegree;
  const PageRankProgram pagerank(2);
  EXPECT_FALSE(Engine::run(diamond_graph(), pagerank, eo).is_ok());
}

TEST(CsrV2Engine, BytesReadShrinkWithV2) {
  const EdgeList graph = rmat(/*scale=*/10, /*edges=*/30000, /*seed=*/29);
  const PageRankProgram pagerank(/*iterations=*/5);
  auto v1 = run_engine(graph, pagerank, CsrFormat::kV1, CsrOrder::kNone,
                       ExecMode::kSweep, IoBackendKind::kMmap, 2);
  auto v2 = run_engine(graph, pagerank, CsrFormat::kV2, CsrOrder::kNone,
                       ExecMode::kSweep, IoBackendKind::kMmap, 2);
  ASSERT_TRUE(v1.is_ok() && v2.is_ok());
  // The CSR side of bytes_read shrinks with the encoding; the value-scan
  // side is identical, so total fundamental reads must drop.
  EXPECT_LT(v2.value().io.bytes_read, v1.value().io.bytes_read);
  EXPECT_LT(v2.value().csr_file_bytes, v1.value().csr_file_bytes);
}

// --- Checkpoint write-back batching ------------------------------------------

TEST(CsrV2Checkpoint, IntervalBatchesValueFileFlushes) {
  const EdgeList graph = rmat(/*scale=*/7, /*edges=*/2000, /*seed=*/31);
  const PageRankProgram pagerank(/*iterations=*/8);

  EngineOptions every;
  every.checkpoint_each_superstep = true;
  every.checkpoint_interval = 1;
  auto r1 = Engine::run(graph, pagerank, every);
  ASSERT_TRUE(r1.is_ok()) << r1.status().to_string();

  EngineOptions batched = every;
  batched.checkpoint_interval = 4;
  auto r4 = Engine::run(graph, pagerank, batched);
  ASSERT_TRUE(r4.is_ok()) << r4.status().to_string();

  EngineOptions off;
  off.checkpoint_each_superstep = false;
  auto r0 = Engine::run(graph, pagerank, off);
  ASSERT_TRUE(r0.is_ok()) << r0.status().to_string();

  // Same computation either way.
  EXPECT_EQ(r1.value().supersteps, r4.value().supersteps);
  expect_payloads_equal(r4.value().values, r1.value().values);
  expect_payloads_equal(r0.value().values, r1.value().values);

  // Batching must observably cut msync traffic; no checkpointing at all
  // cuts it further (only the engine's own final-flush paths remain).
  EXPECT_LT(r4.value().value_flush_syscalls,
            r1.value().value_flush_syscalls);
  EXPECT_LT(r0.value().value_flush_syscalls,
            r4.value().value_flush_syscalls);
}

// --- Cluster fingerprint -----------------------------------------------------

TEST(CsrV2Cluster, FingerprintCoversFormatAndOrder) {
  const auto fp = [](CsrFormat format, CsrOrder order) {
    return cluster_graph_fingerprint(1000, 5000, 4, "pagerank", format,
                                     order);
  };
  const std::uint64_t v1 = fp(CsrFormat::kV1, CsrOrder::kNone);
  EXPECT_EQ(v1, fp(CsrFormat::kV1, CsrOrder::kNone));  // deterministic
  // A v2 rank, or a renumbered rank, must not shake hands with a v1/none
  // rank: every configuration pair disagrees.
  EXPECT_NE(v1, fp(CsrFormat::kV2, CsrOrder::kNone));
  EXPECT_NE(v1, fp(CsrFormat::kV2, CsrOrder::kDegree));
  EXPECT_NE(fp(CsrFormat::kV2, CsrOrder::kNone),
            fp(CsrFormat::kV2, CsrOrder::kDegree));
  EXPECT_NE(fp(CsrFormat::kV2, CsrOrder::kDegree),
            fp(CsrFormat::kV2, CsrOrder::kBfs));
  // And the pre-existing fields still matter.
  EXPECT_NE(v1, cluster_graph_fingerprint(1001, 5000, 4, "pagerank",
                                          CsrFormat::kV1, CsrOrder::kNone));
  EXPECT_NE(v1, cluster_graph_fingerprint(1000, 5000, 4, "bfs",
                                          CsrFormat::kV1, CsrOrder::kNone));
}

}  // namespace
}  // namespace gpsa
