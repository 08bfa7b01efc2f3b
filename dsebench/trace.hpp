#pragma once
// In-memory span recorder for the benchmark's traced run, plus the
// forwarding Kernel decorator that times every Kernel::Run call.
//
// A span is (name, start, end, parent, job). Spans opened through
// Begin()/End() nest on a stack and must come from one thread (the
// hand-driven step loop); Record() adds a finished, parentless span from any
// thread (engine and serve hooks). Nothing here runs in an untraced run.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "workloads/kernel.hpp"

namespace dsebench {

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint32_t job = 0;
};

/// Per-name totals: span count, summed duration, and summed self time (the
/// duration minus the time the span's direct children cover).
struct SpanTotals {
  std::size_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
};

class Tracer {
 public:
  Tracer() { spans_.reserve(1 << 20); }

  /// Opens a span under the innermost open span; returns its index.
  std::int32_t Begin(const char* name) {
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.job = job_;
    span.start_ns = NowNs();
    spans_.push_back(span);
    stack_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
    return stack_.back();
  }

  /// Closes the innermost open span.
  void End() {
    spans_[static_cast<std::size_t>(stack_.back())].end_ns = NowNs();
    stack_.pop_back();
  }

  /// Adds a finished root span (thread-safe; for hook-driven layers).
  void Record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
              std::uint32_t job) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, start_ns, end_ns, -1, job});
  }

  /// Job id stamped on spans opened from now on.
  void SetJob(std::uint32_t job) { job_ = job; }

  const std::vector<Span>& Spans() const { return spans_; }

  /// Totals per span name over spans [first, Spans().size()), restricted to
  /// jobs for which `include(job)` holds.
  template <class Filter>
  std::map<std::string, SpanTotals> Totals(std::size_t first,
                                           Filter include) const {
    std::vector<double> child_ns(spans_.size() - first, 0.0);
    for (std::size_t i = first; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.parent >= static_cast<std::int32_t>(first))
        child_ns[static_cast<std::size_t>(s.parent) - first] +=
            static_cast<double>(s.end_ns - s.start_ns);
    }
    std::map<std::string, SpanTotals> totals;
    for (std::size_t i = first; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (!include(s.job)) continue;
      SpanTotals& t = totals[s.name];
      const double duration = static_cast<double>(s.end_ns - s.start_ns);
      ++t.count;
      t.total_ns += duration;
      t.self_ns += duration - child_ns[i - first];
    }
    return totals;
  }

  /// Writes every span as one tab-separated line:
  /// id, parent, job, name, start_ns, end_ns.
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    out << "id\tparent\tjob\tname\tstart_ns\tend_ns\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i << '\t' << s.parent << '\t' << s.job << '\t' << s.name << '\t'
          << s.start_ns << '\t' << s.end_ns << '\n';
    }
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::uint32_t job_ = 0;
  std::mutex mutex_;
};

/// RAII Begin/End pair.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
    tracer_.Begin(name);
  }
  ~Scope() { tracer_.End(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
};

/// Operation-count totals of the kernel runs seen by a TracingKernel,
/// bucketed by whether an approximate multiplier executed in the run.
struct RunCounts {
  double ns[2] = {0.0, 0.0};    ///< [0] precise-mul runs, [1] approx-mul runs
  double ops[2] = {0.0, 0.0};   ///< adds + muls, same buckets
};

/// Forwards every Kernel call to `inner`; Run/RunLanes are recorded as
/// "workloads.run" spans and their operation counts are accumulated.
class TracingKernel final : public axdse::workloads::Kernel {
 public:
  TracingKernel(const axdse::workloads::Kernel& inner, Tracer& tracer,
                RunCounts& counts)
      : inner_(inner), tracer_(tracer), counts_(counts) {}

  const std::string& Name() const noexcept override { return inner_.Name(); }
  const axdse::axc::OperatorSet& Operators() const noexcept override {
    return inner_.Operators();
  }
  const std::vector<axdse::workloads::VariableInfo>& Variables()
      const noexcept override {
    return inner_.Variables();
  }

  std::vector<double> Run(
      axdse::instrument::ApproxContext& ctx) const override {
    const std::int32_t index = tracer_.Begin("workloads.run");
    std::vector<double> out = inner_.Run(ctx);
    tracer_.End();
    const Span& span = tracer_.Spans()[static_cast<std::size_t>(index)];
    const axdse::energy::OpCounts& c = ctx.Counts();
    const int bucket = c.approx_muls > 0 ? 1 : 0;
    counts_.ns[bucket] += static_cast<double>(span.end_ns - span.start_ns);
    counts_.ops[bucket] += static_cast<double>(c.TotalAdds() + c.TotalMuls());
    return out;
  }

  bool SupportsLanes() const noexcept override {
    return inner_.SupportsLanes();
  }
  std::vector<double> RunLanes(
      axdse::instrument::MultiApproxContext& ctx) const override {
    Scope scope(tracer_, "workloads.run");
    return inner_.RunLanes(ctx);
  }
  double AccuracyError(std::span<const double> precise,
                       std::span<const double> approx) const override {
    return inner_.AccuracyError(precise, approx);
  }
  std::vector<axdse::workloads::StageOpCounts> StageCounts(
      const axdse::instrument::ApproxSelection& selection) const override {
    return inner_.StageCounts(selection);
  }

 private:
  const axdse::workloads::Kernel& inner_;
  Tracer& tracer_;
  RunCounts& counts_;
};

}  // namespace dsebench
