#pragma once
/// \file trace.hpp
/// The traced run: replay a workload's exact lines in-process through
/// the serve stack's public functions, recording one span per call, and
/// reduce the spans and counts to the per-layer metrics.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workload.hpp"

namespace perfbench {

/// One timed call. Spans of one request share `request`; `parent` is
/// the index of the enclosing span, -1 for a root.
struct Span {
  std::uint16_t name = 0;
  std::int32_t parent = -1;
  std::uint32_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span recorder. Disabled, it records nothing and reads no
/// clock, so the same replay code gives the untraced baseline.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Open a span under the innermost open one; returns its index (-1
  /// when disabled).
  std::int32_t begin(std::uint16_t name, std::uint32_t request);
  void end(std::int32_t span);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children counted once, children
/// clipped to the parent).
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Per-layer metrics (name -> value) for one workload. `e2e_p50_us`
/// holds the untraced end-to-end p50 per transport, from which the
/// transport overheads are derived. Spans of the first traced pass are
/// written to `spans_path` (JSONL) when it is non-empty. A workload that
/// skips a layer has it timed on its own data instead (see README.md);
/// `scratch_store` is a file path that may be used, and is removed, for
/// that.
std::map<std::string, double> trace_layers(
    const Script& s, const std::string& snapshot, double budget_s,
    const std::map<std::string, double>& e2e_p50_us,
    const std::string& spans_path, const std::string& scratch_store);

}  // namespace perfbench
