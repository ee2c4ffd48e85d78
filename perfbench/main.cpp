// gpsa_perfbench: the two phases of one benchmark run (perfbench/run.py
// drives them and merges their results).
//
//   gpsa_perfbench prepare --workload W --seed S --dir D [--trace 0|1]
//       Generates the seeded input, computes the oracle (both count toward
//       no metric), then times set-up kSetupReps times: preprocessing into
//       the on-disk CSR plus open.
//   gpsa_perfbench measure --workload W --seed S --seconds N --dir D
//                          [--trace 0|1] [--plant-fault KIND]
//       Runs the workload for N seconds against the prepared CSR and checks
//       every job against the oracle, which stays on disk. With --trace 1
//       it also records spans and runs the per-layer probes and references.
//
// Each phase prints one JSON object as the last line of stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and writes phase markers to stderr (unbuffered), so a crash names the
// phase it happened in. Only public GPSA entry points are timed.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "actor/actor.hpp"
#include "actor/actor_system.hpp"
#include "apps/bfs.hpp"
#include "apps/cc.hpp"
#include "apps/pagerank.hpp"
#include "core/engine.hpp"
#include "graph/csr_file.hpp"
#include "harness/experiment.hpp"
#include "io/csr_stream.hpp"
#include "io/io_backend.hpp"
#include "service/graph_service.hpp"
#include "spans.hpp"
#include "util/thread.hpp"
#include "util/timer.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using gpsa::EngineOptions;
using gpsa::Result;
using gpsa::RunResult;
using gpsa::Status;
using gpsa::WallTimer;

constexpr int kSetupReps = 9;

void phase(const char* what) { std::fprintf(stderr, "[perfbench] %s\n", what); }

// --- Small statistics and output helpers ---------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> metrics;

  void metric(std::string name, double value) {
    metrics.emplace_back(std::move(name), value);
  }

  /// One operation: `ran` is false when the program returned an error,
  /// `right` false when its output disagreed with the oracle.
  void record(bool ran, bool right) {
    ++attempted;
    if (!ran || !right) {
      ++failed;
    }
    if (ran && !right) {
      correct = false;
    }
  }

  void print() const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::printf("%s\"%s\": %.17g", i == 0 ? "" : ", ",
                  metrics[i].first.c_str(), metrics[i].second);
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }
};

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : size;
}

std::string csr_base(const std::string& dir) { return dir + "/graph"; }

gpsa::ServiceOptions service_options(const std::string& dir) {
  gpsa::ServiceOptions so;
  so.work_dir = dir + "/service";
  fs::create_directories(so.work_dir);
  return so;
}

// --- Prepare phase -------------------------------------------------------

Outcome prepare(const WorkloadSpec& spec, std::uint64_t seed, bool trace,
                const std::string& dir) {
  Outcome out;
  phase("prepare: generating input");
  const gpsa::EdgeList edges = generate_input(spec, seed);
  std::fprintf(stderr, "[perfbench] input: %u vertices, %llu edges\n",
               edges.num_vertices(),
               static_cast<unsigned long long>(edges.num_edges()));
  {
    phase("prepare: computing oracle");
    const gpsa::Csr csr = gpsa::Csr::from_edges(edges);
    WallTimer oracle_timer;
    const Oracle oracle = build_oracle(spec, csr, seed);
    // Single-thread yardstick (COST): the oracle's classic algorithms.
    std::fprintf(stderr, "[perfbench] reference: single-thread oracle %.3f s\n",
                 oracle_timer.elapsed_seconds());
    if (const Status s = oracle.save(dir + "/oracle.bin"); !s.is_ok()) {
      std::fprintf(stderr, "%s\n", s.to_string().c_str());
      out.record(false, true);
      return out;
    }
  }

  phase("prepare: timing set-up");
  SpanRecorder::instance().set_recording(trace);
  const std::string base = csr_base(dir);
  std::vector<double> setup;
  std::vector<double> preprocess;
  std::vector<double> open;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Span rep_span("bench.setup", "bench", static_cast<std::uint64_t>(rep + 1));
    WallTimer timer;
    Status s;
    {
      Span span("graph.preprocess_edges_to_csr", "graph");
      s = gpsa::preprocess_edges_to_csr(edges, base, /*with_degree=*/true,
                                        spec.format, spec.order);
    }
    const double pre = timer.elapsed_seconds();
    if (!s.is_ok()) {
      std::fprintf(stderr, "preprocess: %s\n", s.to_string().c_str());
      out.record(false, true);
      continue;
    }
    WallTimer open_timer;
    bool opened = false;
    {
      Span span("graph.CsrFileReader::open", "graph");
      opened = gpsa::CsrFileReader::open(base).is_ok();
    }
    const double open_s = open_timer.elapsed_seconds();
    out.record(opened, true);
    if (opened) {
      setup.push_back(pre + open_s);
      preprocess.push_back(pre);
      open.push_back(open_s);
    }
  }
  const std::uint64_t csr_bytes = file_bytes(base) + file_bytes(base + ".idx") +
                                  file_bytes(base + ".perm");
  out.metric("setup_s", median(setup));
  out.metric("csr_mb", static_cast<double>(csr_bytes) / 1e6);
  out.metric("graph.preprocess_s", median(preprocess));
  out.metric("graph.open_ms", median(open) * 1e3);
  out.metric("graph.bytes_per_edge", ratio(static_cast<double>(csr_bytes),
                                           static_cast<double>(edges.num_edges())));

  if (trace) {
    // Reference systems on the same graph, paper protocol (one run).
    phase("prepare: reference systems");
    gpsa::ExperimentOptions exp;
    exp.runs = 1;
    const bool pagerank = spec.kind == WorkloadKind::kPagerankDense;
    exp.supersteps = pagerank ? kPageRankSupersteps : 1000;
    const gpsa::AlgoKind algo = pagerank ? gpsa::AlgoKind::kPageRank
                                         : gpsa::AlgoKind::kConnectedComponents;
    for (const gpsa::SystemKind system :
         {gpsa::SystemKind::kGraphChi, gpsa::SystemKind::kXStream}) {
      auto cell = gpsa::run_cell(system, algo, edges, exp);
      out.record(cell.is_ok(), true);
      if (cell.is_ok()) {
        std::fprintf(stderr, "[perfbench] reference: %s %s %.3f s (%llu supersteps)\n",
                     gpsa::system_name(system).c_str(),
                     gpsa::algo_name(algo).c_str(), cell.value().avg_seconds,
                     static_cast<unsigned long long>(cell.value().supersteps));
      }
    }
  }
  if (trace) {
    if (const Status s = SpanRecorder::instance().write_chrome_trace(
            dir + "/prepare.trace.json", 1);
        !s.is_ok()) {
      std::fprintf(stderr, "%s\n", s.to_string().c_str());
    }
  }
  return out;
}

// --- Per-job layer totals ------------------------------------------------

struct LayerTotals {
  std::uint64_t ops = 0;  // PageRank jobs or traverse rounds
  double elapsed = 0.0;
  std::uint64_t supersteps = 0;
  std::uint64_t messages = 0;
  double dispatcher_busy = 0.0;
  double dispatcher_capacity = 0.0;
  double computer_busy = 0.0;
  double computer_capacity = 0.0;
  std::uint64_t pool_steady_misses = 0;
  std::uint64_t edges_touched = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t flush_syscalls = 0;
  gpsa::PrefetchCounters prefetch;
  std::vector<double> overhead;  // wall of the call minus elapsed_seconds

  void add(const RunResult& r, double overhead_s) {
    elapsed += r.elapsed_seconds;
    supersteps += r.supersteps;
    messages += r.total_messages;
    for (const double b : r.dispatcher_busy_seconds) {
      dispatcher_busy += b;
    }
    dispatcher_capacity +=
        r.elapsed_seconds * static_cast<double>(r.dispatcher_busy_seconds.size());
    for (const double b : r.computer_busy_seconds) {
      computer_busy += b;
    }
    computer_capacity +=
        r.elapsed_seconds * static_cast<double>(r.computer_busy_seconds.size());
    pool_steady_misses += r.pool.steady_misses;
    for (const std::uint64_t e : r.superstep_edges_touched) {
      edges_touched += e;
    }
    bytes_read += r.io.bytes_read;
    flush_syscalls += r.value_flush_syscalls;
    prefetch += r.prefetch;
    overhead.push_back(overhead_s);
  }

  void report(Outcome& out) const {
    const double per_op = ops == 0 ? 0.0 : 1.0 / static_cast<double>(ops);
    out.metric("io.bytes_read_mb", static_cast<double>(bytes_read) * per_op / 1e6);
    out.metric("io.readahead_hit_rate", prefetch.hit_rate());
    out.metric("io.prefetch_misses",
               static_cast<double>(prefetch.window_misses) * per_op);
    out.metric("storage.flush_syscalls",
               static_cast<double>(flush_syscalls) * per_op);
    out.metric("core.superstep_ms",
               ratio(elapsed, static_cast<double>(supersteps)) * 1e3);
    out.metric("core.msgs_per_s", ratio(static_cast<double>(messages), elapsed));
    out.metric("core.dispatcher_busy_frac",
               ratio(dispatcher_busy, dispatcher_capacity));
    out.metric("core.computer_busy_frac", ratio(computer_busy, computer_capacity));
    out.metric("core.pool_steady_misses",
               static_cast<double>(pool_steady_misses) * per_op);
    out.metric("core.supersteps", static_cast<double>(supersteps) * per_op);
    out.metric("core.edges_touched", static_cast<double>(edges_touched) * per_op);
    out.metric("core.job_overhead_ms", median(overhead) * 1e3);
  }
};

// --- Batch workloads -----------------------------------------------------

enum class Fault { kNone, kPageRank, kBfs, kCc };

struct RunContext {
  const WorkloadSpec& spec;
  const OracleFile& oracle;
  std::string base;
  EngineOptions options;
  Fault plant = Fault::kNone;
};

/// One engine call, timed from the call to the returned values, then
/// checked. Returns the wall time.
double run_job(RunContext& ctx, const gpsa::Program& program,
               std::uint64_t job_id, Fault kind,
               const std::function<bool(const std::vector<Payload>&)>& check,
               Outcome& out, LayerTotals* totals) {
  WallTimer timer;
  std::optional<Result<RunResult>> result;
  {
    Span span("core.Engine::run_from_csr", "core", job_id);
    result.emplace(gpsa::Engine::run_from_csr(ctx.base, program, ctx.options));
  }
  const double wall = timer.elapsed_seconds();
  if (!result->is_ok()) {
    std::fprintf(stderr, "%s job: %s\n", program.name().c_str(),
                 result->status().to_string().c_str());
    out.record(false, true);
    return wall;
  }
  RunResult& r = result->value();
  if (ctx.plant == kind && !r.values.empty()) {
    // Planted fault (perfbench/test_perfbench.py): one wrong value.
    if (kind == Fault::kPageRank) {
      r.values[0] = gpsa::float_to_payload(
          gpsa::payload_to_float(r.values[0]) * 1.01F);
    } else {
      r.values[kind == Fault::kBfs ? ctx.oracle.roots()[0] : 0] += 1;
    }
    ctx.plant = Fault::kNone;
  }
  bool right = false;
  {
    Span span("bench.check", "bench", job_id);
    right = check(r.values);
  }
  out.record(true, right);
  if (totals != nullptr) {
    totals->add(r, wall - r.elapsed_seconds);
  }
  return wall;
}

/// One operation of a batch workload: a PageRank job, or a round of
/// kRoundRoots BFS jobs plus one CC. Returns its wall time.
double run_operation(RunContext& ctx, std::uint64_t op, Outcome& out,
                     LayerTotals* totals) {
  Span span("bench.operation", "bench", op + 1);
  const std::uint64_t job_base = (op + 1) * 100;
  if (ctx.spec.kind == WorkloadKind::kPagerankDense) {
    const gpsa::PageRankProgram program(kPageRankSupersteps);
    return run_job(ctx, program, job_base, Fault::kPageRank,
                   [&](const std::vector<Payload>& v) {
                     return ctx.oracle.pagerank_matches(v);
                   },
                   out, totals);
  }
  double wall = 0.0;
  for (unsigned i = 0; i < kRoundRoots; ++i) {
    const gpsa::BfsProgram program(ctx.oracle.roots()[i]);
    wall += run_job(ctx, program, job_base + i, Fault::kBfs,
                    [&](const std::vector<Payload>& v) {
                      return ctx.oracle.bfs_matches(i, v);
                    },
                    out, totals);
  }
  const gpsa::ConnectedComponentsProgram cc;
  wall += run_job(ctx, cc, job_base + kRoundRoots, Fault::kCc,
                  [&](const std::vector<Payload>& v) {
                    return ctx.oracle.cc_matches(v);
                  },
                  out, totals);
  return wall;
}

EngineOptions engine_options(const WorkloadSpec& spec, const std::string& dir) {
  EngineOptions eo;
  eo.work_dir = dir + "/values";
  fs::create_directories(eo.work_dir);
  eo.io = spec.io;
  eo.checkpoint_each_superstep = spec.checkpoint_each_superstep;
  if (spec.checkpoint_each_superstep) {
    eo.checkpoint_interval = 1;
  }
  return eo;
}

// --- GraphService probe -------------------------------------------------

/// GraphService probe: one closed-loop client submits 2-hop BFS queries
/// for kServiceProbeSeconds while the service hosts a resident PageRank,
/// which is then cancelled (it must end cancelled, not failed).
void probe_service(const std::string& dir, const std::vector<VertexId>& roots,
                   Outcome& out) {
  constexpr double kServiceProbeSeconds = 0.5;
  auto opened = gpsa::GraphService::open(csr_base(dir), service_options(dir));
  if (!opened.is_ok()) {
    std::fprintf(stderr, "%s\n", opened.status().to_string().c_str());
    out.record(false, true);
    return;
  }
  gpsa::GraphService& service = *opened.value();
  gpsa::JobOptions background;
  background.retain_values = false;
  auto resident = service.submit(
      std::make_shared<const gpsa::PageRankProgram>(1'000'000'000), background);
  if (!resident.is_ok()) {
    out.record(false, true);
    return;
  }
  const gpsa::JobId rid = resident.value();
  auto progress = [&] {
    auto s = service.poll(rid);
    return s.is_ok() ? s.value().supersteps_completed : 0;
  };
  while (progress() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<double> latency;
  std::vector<double> queue_wait;
  std::vector<double> run;
  const std::uint64_t before = progress();
  WallTimer wall;
  for (std::uint64_t k = 0; wall.elapsed_seconds() < kServiceProbeSeconds; ++k) {
    Span span("service.query", "service", k + 1);
    gpsa::JobOptions jo;
    jo.max_supersteps = kQueryHops;
    jo.retain_values = false;
    WallTimer timer;
    auto id = service.submit(std::make_shared<const gpsa::BfsProgram>(
                                 roots[k % roots.size()]),
                             jo);
    if (!id.is_ok()) {
      out.record(false, true);  // admission reject (RESOURCE_EXHAUSTED)
      continue;
    }
    auto status = service.wait(id.value());
    const bool done = status.is_ok() &&
                      status.value().state == gpsa::JobState::kDone &&
                      status.value().result != nullptr;
    out.record(done, true);
    if (done) {
      const RunResult& r = *status.value().result;
      latency.push_back(timer.elapsed_seconds());
      queue_wait.push_back(r.queue_wait_seconds);
      run.push_back(r.end_to_end_seconds - r.queue_wait_seconds);
    }
    service.forget(id.value());
  }
  const double seconds = wall.elapsed_seconds();
  const std::uint64_t steps = progress() - before;
  service.cancel(rid);
  const auto final_status = service.wait(rid);
  out.record(final_status.is_ok() &&
                 final_status.value().state == gpsa::JobState::kCancelled,
             true);
  out.metric("service.queue_wait_ms", median(queue_wait) * 1e3);
  out.metric("service.run_ms", median(run) * 1e3);
  out.metric("service.query_p90_ms", quantile(latency, 0.9) * 1e3);
  out.metric("service.resident_superstep_ms",
             ratio(seconds, static_cast<double>(steps)) * 1e3);
}

// --- Per-layer probes (traced run only) ----------------------------------

template <typename F>
double median_seconds(int reps, F&& body) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    WallTimer timer;
    body(i);
    times.push_back(timer.elapsed_seconds());
  }
  return median(times);
}

void probe_io_and_storage(const WorkloadSpec& spec, const std::string& dir,
                          Outcome& out) {
  auto config = spec.io.resolve();
  auto reader = gpsa::CsrFileReader::open(csr_base(dir));
  if (!config.is_ok() || !reader.is_ok()) {
    out.record(false, true);
    return;
  }
  auto backend = gpsa::IoBackend::create(config.value());
  if (!backend.is_ok()) {
    out.record(false, true);
    return;
  }
  gpsa::IoBackend& io = *backend.value();
  const gpsa::CsrFileReader& csr = reader.value();
  const auto offsets = csr.record_offsets();
  std::uint64_t checksum = 0;
  bool scanned = true;
  const double scan_s = median_seconds(3, [&](int) {
    Span span("io.record_scan", "io");
    auto stream = io.open_stream(csr.entry_path());
    if (!stream.is_ok()) {
      scanned = false;
      return;
    }
    gpsa::CsrEntryStream entries(std::move(stream).value(), csr);
    for (VertexId v = 0; v < csr.num_vertices(); ++v) {
      checksum += static_cast<std::uint32_t>(
          entries.fetch_record(offsets[v], offsets[v + 1] - offsets[v])[0]);
    }
  });
  out.record(scanned, true);
  std::fprintf(stderr, "[perfbench] scan checksum %llu\n",
               static_cast<unsigned long long>(checksum));
  out.metric("io.scan_mb_per_s",
             ratio(static_cast<double>(csr.entry_file_bytes()) / 1e6, scan_s));

  const std::string value_path = dir + "/probe.values";
  const VertexId n = csr.num_vertices();
  bool created = true;
  const double create_s = median_seconds(20, [&](int) {
    {
      Span span("storage.create_value_file", "storage");
      created = created && io.create_value_file(value_path, n, "probe").is_ok();
    }
    fs::remove(value_path);
  });
  out.record(created, true);
  out.metric("storage.value_create_ms", create_s * 1e3);

  auto file = io.create_value_file(value_path, n, "probe");
  if (!file.is_ok()) {
    out.record(false, true);
    return;
  }
  gpsa::ValueFile& values = file.value();
  bool synced = true;
  std::vector<double> checkpoint;
  for (int rep = 0; rep < 20; ++rep) {
    for (VertexId v = 0; v < n; ++v) {  // dirty every page, as a superstep does
      values.store(v, gpsa::ValueFile::update_column(rep),
                   static_cast<gpsa::Slot>(v + rep) & gpsa::kPayloadMask);
    }
    WallTimer timer;
    Span span("storage.ValueFile::checkpoint", "storage");
    synced = synced && values.checkpoint(rep + 1).is_ok();
    checkpoint.push_back(timer.elapsed_seconds());
  }
  out.record(synced, true);
  out.metric("storage.checkpoint_ms", median(checkpoint) * 1e3);
  fs::remove(value_path);
}

class CountingActor final : public gpsa::Actor<int> {
 public:
  explicit CountingActor(std::atomic<int>* seen) : seen_(seen) {}

 protected:
  void on_message(int /*message*/) override {
    seen_->fetch_add(1, std::memory_order_release);
  }

 private:
  std::atomic<int>* seen_;
};

using Batch = std::vector<std::uint64_t>;

class SinkActor final : public gpsa::Actor<Batch> {
 public:
  explicit SinkActor(std::atomic<std::uint64_t>* received) : received_(received) {}

 protected:
  void on_message(Batch batch) override {
    sum_ += std::accumulate(batch.begin(), batch.end(), std::uint64_t{0});
    received_->fetch_add(batch.size(), std::memory_order_release);
  }

 private:
  std::atomic<std::uint64_t>* received_;
  std::uint64_t sum_ = 0;
};

class SourceActor final : public gpsa::Actor<std::vector<Batch>> {
 public:
  explicit SourceActor(SinkActor* sink) : sink_(sink) {}

 protected:
  void on_message(std::vector<Batch> batches) override {
    for (Batch& b : batches) {
      sink_->send(std::move(b));
    }
  }

 private:
  SinkActor* sink_;
};

void probe_actors(unsigned ensemble, Outcome& out) {
  gpsa::ActorSystem system(gpsa::default_worker_count());
  std::atomic<int> seen{0};
  const double spawn_s = median_seconds(200, [&](int rep) {
    Span span("actor.spawn_in_job+despawn_job", "actor");
    const auto job = static_cast<std::uint32_t>(rep + 1);
    seen.store(0);
    for (unsigned i = 0; i < ensemble; ++i) {
      system.spawn_in_job<CountingActor>(job, &seen)->send(1);
    }
    while (seen.load(std::memory_order_acquire) < static_cast<int>(ensemble)) {
      std::this_thread::yield();
    }
    system.despawn_job(job);
  });
  out.metric("actor.spawn_despawn_ms", spawn_s * 1e3);

  constexpr std::size_t kBatches = 256;
  constexpr std::size_t kBatchSize = 4096;  // EngineOptions::message_batch
  std::atomic<std::uint64_t> received{0};
  auto* sink = system.spawn_in_job<SinkActor>(1'000'000, &received);
  auto* source = system.spawn_in_job<SourceActor>(1'000'000, sink);
  std::vector<double> rates;
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<Batch> batches(kBatches, Batch(kBatchSize, 1));
    received.store(0);
    Span span("actor.mailbox_batches", "actor");
    WallTimer timer;
    source->send(std::move(batches));
    while (received.load(std::memory_order_acquire) < kBatches * kBatchSize) {
      std::this_thread::yield();
    }
    rates.push_back(static_cast<double>(kBatches * kBatchSize) /
                    timer.elapsed_seconds());
  }
  out.metric("actor.mailbox_msgs_per_s", median(rates));
  system.shutdown();
}

// --- Measure phase -------------------------------------------------------

Outcome measure(const WorkloadSpec& spec, double seconds, bool trace,
                const std::string& dir, Fault plant) {
  Outcome out;
  phase("measure: opening oracle");
  auto loaded = OracleFile::open(dir + "/oracle.bin");
  if (!loaded.is_ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().to_string().c_str());
    out.record(false, true);
    return out;
  }
  const OracleFile& oracle = loaded.value();
  SpanRecorder& spans = SpanRecorder::instance();
  RunContext ctx{spec, oracle, csr_base(dir), engine_options(spec, dir),
                   plant};
  phase("measure: warm-up operation");
  run_operation(ctx, 0, out, nullptr);
  phase("measure: timed operations");
  spans.set_recording(trace);
  LayerTotals totals;
  std::vector<double> walls;
  WallTimer loop;
  while (loop.elapsed_seconds() < seconds) {
    walls.push_back(run_operation(ctx, walls.size() + 1, out, &totals));
    ++totals.ops;
  }
  const double job_s = median(walls);
  out.metric("job_s", job_s);
  out.metric("peak_rss_mb", peak_rss_mb());

  if (trace) {
    totals.report(out);
    phase("measure: reference at 1 worker");
    ctx.options.scheduler_workers = 1;
    std::vector<double> single;
    spans.set_recording(false);  // keeps per-layer self time at the default
    for (int i = 0; i < 3; ++i) {
      single.push_back(run_operation(ctx, 10'000 + i, out, nullptr));
    }
    spans.set_recording(true);
    std::fprintf(stderr,
                 "[perfbench] reference: job_s %.4f at 1 worker, %.4f at %u\n",
                 median(single), job_s, gpsa::default_worker_count());
    phase("measure: service probe");
    probe_service(dir, oracle.roots(), out);
    phase("measure: io and storage probes");
    probe_io_and_storage(spec, dir, out);
    phase("measure: actor probes");
    const EngineOptions defaults;
    probe_actors(defaults.num_dispatchers + defaults.num_computers + 1, out);
    if (const Status s = spans.write_chrome_trace(dir + "/measure.trace.json", 2);
        !s.is_ok()) {
      std::fprintf(stderr, "%s\n", s.to_string().c_str());
    }
  }
  return out;
}

// --- Command line --------------------------------------------------------

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;
  Fault plant = Fault::kNone;
};

bool parse(int argc, char** argv, Args& args) {
  if (argc < 2) {
    return false;
  }
  args.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--dir") {
      args.dir = value;
    } else if (flag == "--plant-fault") {
      if (value == "pagerank") {
        args.plant = Fault::kPageRank;
      } else if (value == "bfs") {
        args.plant = Fault::kBfs;
      } else if (value == "cc") {
        args.plant = Fault::kCc;
      } else {
        return false;
      }
    } else {
      return false;
    }
  }
  return (argc % 2 == 0) && !args.workload.empty() && !args.dir.empty() &&
         (args.mode == "prepare" || args.mode == "measure");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::setvbuf(stderr, nullptr, _IONBF, 0);
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: gpsa_perfbench prepare|measure --workload W --seed S "
                 "--dir D [--seconds N] [--trace 0|1] [--plant-fault "
                 "pagerank|bfs|cc]\n");
    return 2;
  }
  const std::optional<WorkloadSpec> spec = find_workload(args.workload);
  if (!spec) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const Outcome out =
      args.mode == "prepare"
          ? prepare(*spec, args.seed, args.trace, args.dir)
          : measure(*spec, args.seconds, args.trace, args.dir, args.plant);
  phase("done");
  out.print();
  return 0;
}
