#include "spans.hpp"

#include <cstdio>

namespace perfbench {

SpanRecorder& SpanRecorder::instance() {
  static SpanRecorder recorder;
  return recorder;
}

double SpanRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::size_t SpanRecorder::begin(const char* name, const char* layer,
                                std::uint64_t job) {
  if (job == 0 && current_ >= 0) {
    job = records_[static_cast<std::size_t>(current_)].job;
  }
  records_.push_back({name, layer, job, current_, now_us(), -1.0});
  current_ = static_cast<std::int64_t>(records_.size() - 1);
  return records_.size() - 1;
}

void SpanRecorder::end(std::size_t id) {
  Record& r = records_[id];
  r.end_us = now_us();
  current_ = r.parent;
}

gpsa::Status SpanRecorder::write_chrome_trace(const std::string& path,
                                              int pid) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return gpsa::io_error("cannot write " + path);
  }
  std::fprintf(out, "{\"traceEvents\": [");
  bool first = true;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.end_us < 0.0) {
      continue;
    }
    std::fprintf(out,
                 "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": %d, \"tid\": 1, "
                 "\"args\": {\"span\": %zu, \"parent\": %lld, \"job\": %llu}}",
                 first ? "" : ",", r.name, r.layer, r.start_us,
                 r.end_us - r.start_us, pid, i,
                 static_cast<long long>(r.parent),
                 static_cast<unsigned long long>(r.job));
    first = false;
  }
  std::fprintf(out, "\n], \"displayTimeUnit\": \"ms\"}\n");
  return std::fclose(out) == 0 ? gpsa::Status::ok()
                               : gpsa::io_error("cannot close " + path);
}

Span::Span(const char* name, const char* layer, std::uint64_t job) {
  SpanRecorder& recorder = SpanRecorder::instance();
  if (!recorder.recording()) {
    return;
  }
  id_ = recorder.begin(name, layer, job);
  active_ = true;
}

Span::~Span() {
  if (active_) {
    SpanRecorder::instance().end(id_);
  }
}

}  // namespace perfbench
