#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its calls into each layer's public functions; nothing
// inside the library is instrumented. Each span has a name (the layer),
// start, end, a parent (the enclosing span on the same thread) and a trace
// id shared by every span of one step or request. Spans are held in memory
// and written out once, when the run ends.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t id = 0;
    int64_t parent = -1;  // -1: root
    int64_t trace_id = 0;
    double start_s = 0.0;
    double end_s = 0.0;
  };

  /// Per-layer totals: durations and self times (duration minus the time
  /// covered by child spans), one entry per span.
  struct Layer {
    std::vector<double> duration_s;
    std::vector<double> self_s;
  };

  Tracer() : origin_(std::chrono::steady_clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span. A null tracer makes the scope a no-op, so call sites are
  /// identical in traced and untraced code.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, int64_t trace_id)
        : tracer_(tracer) {
      if (tracer_ != nullptr) index_ = tracer_->Begin(name, trace_id);
    }
    ~Scope() { End(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Ends the span early (idempotent).
    void End() {
      if (tracer_ != nullptr) tracer_->Finish(index_);
      tracer_ = nullptr;
    }

   private:
    Tracer* tracer_;
    size_t index_ = 0;
  };

  double Now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  /// Self time per layer name. Children of a span run on its thread inside
  /// its interval, so their durations never overlap and subtract exactly.
  std::map<std::string, Layer> Layers() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_s[static_cast<size_t>(s.parent)] += s.end_s - s.start_s;
      }
    }
    std::map<std::string, Layer> layers;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Layer& layer = layers[s.name];
      layer.duration_s.push_back(s.end_s - s.start_s);
      layer.self_s.push_back(s.end_s - s.start_s - child_s[i]);
    }
    return layers;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  /// Writes the spans as Chrome trace-event JSON ("X" complete events;
  /// opens in Perfetto or chrome://tracing). Returns false on I/O failure.
  bool WriteChromeJson(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.trace_id
          << ",\"ts\":" << s.start_s * 1e6
          << ",\"dur\":" << (s.end_s - s.start_s) * 1e6
          << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
          << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  size_t Begin(const char* name, int64_t trace_id) {
    const double now = Now();
    std::vector<int64_t>& stack = Stack();
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.name = name;
    s.id = static_cast<int64_t>(spans_.size());
    s.parent = stack.empty() ? -1 : stack.back();
    s.trace_id = trace_id;
    s.start_s = now;
    spans_.push_back(std::move(s));
    stack.push_back(spans_.back().id);
    return spans_.size() - 1;
  }

  void Finish(size_t index) {
    const double now = Now();
    std::vector<int64_t>& stack = Stack();
    if (!stack.empty()) stack.pop_back();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[index].end_s = now;
  }

  /// The open spans of the calling thread, innermost last.
  static std::vector<int64_t>& Stack() {
    thread_local std::vector<int64_t> stack;
    return stack;
  }

  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
