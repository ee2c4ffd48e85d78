#include "core/engine.hpp"

#include <filesystem>
#include <memory>
#include <optional>

#include "actor/actor_system.hpp"
#include "core/job.hpp"
#include "graph/csr_file.hpp"
#include "platform/file_util.hpp"
#include "util/thread.hpp"
#include "util/timer.hpp"

namespace gpsa {
namespace {

// One-job hosting mode: a private IoBackend and ActorSystem per run. The
// orchestration itself lives in run_job (core/job.hpp), shared with the
// multi-tenant GraphService.
Result<RunResult> run_with_own_system(const CsrFileReader& csr,
                                      const Program& program,
                                      const EngineOptions& options,
                                      const std::string& value_path,
                                      bool resume) {
  GPSA_ASSIGN_OR_RETURN(const IoConfig io_config, options.io.resolve());
  GPSA_ASSIGN_OR_RETURN(const std::unique_ptr<IoBackend> backend,
                        IoBackend::create(io_config));
  const unsigned workers = options.scheduler_workers != 0
                               ? options.scheduler_workers
                               : default_worker_count();
  ActorSystem system(workers);

  JobContext ctx;
  ctx.csr = &csr;
  ctx.backend = backend.get();
  ctx.io_config = &io_config;
  ctx.system = &system;
  GPSA_ASSIGN_OR_RETURN(RunResult out,
                        run_job(ctx, program, options, value_path, resume));
  system.shutdown();
  return out;
}

}  // namespace

Result<RunResult> Engine::run(const EdgeList& graph, const Program& program,
                              const EngineOptions& options) {
  GPSA_RETURN_IF_ERROR(validate_engine_options(options));

  std::optional<ScratchDir> scratch;
  std::string dir = options.work_dir;
  if (dir.empty()) {
    GPSA_ASSIGN_OR_RETURN(auto s, ScratchDir::create("engine"));
    dir = s.path();
    scratch.emplace(std::move(s));
  } else {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      return io_error("engine: cannot create work dir " + dir + ": " +
                      ec.message());
    }
  }

  WallTimer preprocess_timer;
  const std::string csr_path = dir + "/graph.csr";
  const CsrFormat format = resolve_csr_format(options.csr_format);
  const CsrOrder order = resolve_csr_order(options.csr_order);
  if (format == CsrFormat::kV1 && order != CsrOrder::kNone) {
    return invalid_argument(
        "engine: csr order '" + std::string(csr_order_name(order)) +
        "' requires csr format v2 (set GPSA_CSR_FORMAT=v2)");
  }
  GPSA_RETURN_IF_ERROR(preprocess_edges_to_csr(
      graph, csr_path, /*with_degree=*/true, format, order));
  const double preprocess_seconds = preprocess_timer.elapsed_seconds();

  GPSA_ASSIGN_OR_RETURN(CsrFileReader csr, CsrFileReader::open(csr_path));
  GPSA_ASSIGN_OR_RETURN(
      RunResult out,
      run_with_own_system(csr, program, options,
                          dir + "/" + program.name() + ".values",
                          /*resume=*/false));
  out.preprocess_seconds = preprocess_seconds;
  return out;
}

Result<RunResult> Engine::run_from_csr(const std::string& csr_base_path,
                                       const Program& program,
                                       const EngineOptions& options,
                                       bool resume) {
  GPSA_RETURN_IF_ERROR(validate_engine_options(options));

  std::optional<ScratchDir> scratch;
  std::string dir = options.work_dir;
  if (dir.empty()) {
    GPSA_ASSIGN_OR_RETURN(auto s, ScratchDir::create("engine"));
    dir = s.path();
    scratch.emplace(std::move(s));
  }

  GPSA_ASSIGN_OR_RETURN(const std::shared_ptr<const CsrFileReader> csr,
                        CsrFileReader::open_shared(csr_base_path));
  return run_with_own_system(*csr, program, options,
                             dir + "/" + program.name() + ".values", resume);
}

}  // namespace gpsa
