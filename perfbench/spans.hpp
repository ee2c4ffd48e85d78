// In-memory span recorder for the traced benchmark run.
//
// Each Span marks one call from the benchmark into a GPSA layer: a name,
// the layer it belongs to, start and end, the span that was open when it
// began (its parent), and a job id shared by every span of one job. Spans
// are kept in memory and written out once, at the end, as Chrome
// trace-event JSON (loadable in Perfetto); perfbench/run.py merges the
// files of both phases and derives self time per layer from the parent
// links.
//
// Every span is opened on the benchmark's main thread, so the recorder
// takes no lock. With recording off a Span is a single branch on a flag,
// so the untraced run pays nothing measurable.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace perfbench {

class SpanRecorder {
 public:
  static SpanRecorder& instance();

  /// Spans opened while recording is off are not kept.
  void set_recording(bool on) { recording_ = on; }
  bool recording() const { return recording_; }

  /// Opens a span under the innermost open one; `job` 0 inherits the
  /// parent's job id.
  std::size_t begin(const char* name, const char* layer, std::uint64_t job);
  void end(std::size_t id);

  /// Writes {"traceEvents": [...]} with one complete ("X") event per
  /// closed span; `pid` tells the two benchmark phases apart.
  gpsa::Status write_chrome_trace(const std::string& path, int pid) const;

 private:
  struct Record {
    const char* name;
    const char* layer;
    std::uint64_t job;
    std::int64_t parent;  // -1: root
    double start_us;
    double end_us;  // < 0 while open
  };

  double now_us() const;

  bool recording_ = false;
  std::int64_t current_ = -1;  // innermost open span: the next one's parent
  const std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Record> records_;
};

/// RAII span; no-op unless the recorder is recording.
class Span {
 public:
  Span(const char* name, const char* layer, std::uint64_t job = 0);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::size_t id_ = 0;
  bool active_ = false;
};

}  // namespace perfbench
