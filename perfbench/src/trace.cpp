#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "ccov/covering/cover.hpp"
#include "ccov/engine/batch.hpp"
#include "ccov/engine/cache.hpp"
#include "ccov/engine/engine.hpp"
#include "ccov/engine/registry.hpp"
#include "ccov/engine/serve.hpp"
#include "ccov/engine/store.hpp"

namespace perfbench {

namespace eng = ccov::engine;
using Clock = std::chrono::steady_clock;

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Span names: one per layer boundary the replay crosses.
enum Layer : std::uint16_t {
  kRequest,  ///< one input line, end to end (root)
  kFrame,    ///< LineReader::next
  kParse,    ///< parse_serve_line
  kKey,      ///< canonical_request_key
  kVisit,    ///< Engine::run_cached (zero-copy identity hit probe)
  kCopy,     ///< benchmark-side copy of the visited entry (not server work)
  kRun,      ///< Engine::run (remapped hit or miss)
  kRender,   ///< serve_response_line
  kVerb,     ///< control-verb handler
};
constexpr const char* kLayerNames[] = {"request", "frame", "parse",
                                       "key",     "visit", "copy",
                                       "run",     "render", "verb"};

/// A byte source over the whole script (the serve framing reads it
/// exactly as it would a socket); writes are discarded.
class MemoryStream final : public eng::ServeStream {
 public:
  explicit MemoryStream(std::string data) : data_(std::move(data)) {}
  std::ptrdiff_t read_some(char* buf, std::size_t n) override {
    const std::size_t k = std::min(n, data_.size() - pos_);
    std::copy_n(data_.data() + pos_, k, buf);
    pos_ += k;
    return static_cast<std::ptrdiff_t>(k);
  }
  bool write_all(const char*, std::size_t) override { return true; }

 private:
  std::string data_;
  std::size_t pos_ = 0;
};

enum class Outcome : std::uint8_t { kHit, kRemapHit, kMiss, kVerb, kError };

/// What one replay pass observed, per input line (probe included as
/// line 0).
struct Pass {
  double seconds = 0;
  std::vector<Outcome> outcome;
  std::vector<eng::CoverRequest> misses;  ///< requests that ran a kernel
  std::size_t parse_errors = 0;
  std::size_t response_bytes = 0;
  std::size_t responses = 0;
  std::size_t demand_requests = 0;
  std::size_t demand_chords = 0;
  std::size_t repeats = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
};

std::unique_ptr<eng::Engine> fresh_engine(const Script& s,
                                          const std::string& snapshot) {
  std::size_t entries = 0;
  if (!snapshot.empty())
    entries = static_cast<std::size_t>(eng::snapshot_entry_count_file(snapshot));
  eng::EngineOptions opts;
  opts.cache_capacity = server_cache_capacity(s, entries);
  auto engine = std::make_unique<eng::Engine>(opts);
  if (!snapshot.empty()) eng::load_snapshot_file(snapshot, engine->cache());
  return engine;
}

std::string script_bytes(const Script& s) {
  std::string bytes(kProbeLine);
  bytes += '\n';
  for (const std::string& l : s.lines) bytes += l + '\n';
  return bytes;
}

/// Replay every line through frame -> parse -> key -> cache/engine ->
/// render, as the inline serve path does, with a span around each call.
Pass replay(const Script& s, const std::string& snapshot, Tracer& tr) {
  auto engine = fresh_engine(s, snapshot);
  const eng::CoverCache::Stats before = engine->cache().stats();
  const std::size_t size_before = engine->cache().size();
  const eng::ServeConfig config;
  MemoryStream io(script_bytes(s));
  eng::LineReader reader(io, config.max_line_bytes);
  Pass p;
  p.outcome.reserve(s.lines.size() + 1);
  std::string line, prev, out, error;
  eng::CoverResponse scratch;

  const auto t0 = Clock::now();
  for (std::uint32_t id = 0;; ++id) {
    const std::int32_t root = tr.begin(kRequest, id);
    std::int32_t sp = tr.begin(kFrame, id);
    const eng::LineReader::Result r = reader.next(&line);
    tr.end(sp);
    if (r != eng::LineReader::Result::kLine) {
      tr.end(root);
      break;
    }
    if (line == prev) ++p.repeats;
    prev = line;
    eng::ServeCommand cmd;
    sp = tr.begin(kParse, id);
    const bool parsed = eng::parse_serve_line(line, &cmd, &error);
    tr.end(sp);
    if (!parsed) {
      ++p.parse_errors;
      out = eng::serve_error_line(id, "parse: " + error);
      p.outcome.push_back(Outcome::kError);
    } else if (!cmd.is_request()) {
      sp = tr.begin(kVerb, id);
      out = cmd.verb->run({id, *engine, config});
      tr.end(sp);
      p.outcome.push_back(Outcome::kVerb);
    } else {
      if (!cmd.req.demand.empty()) {
        ++p.demand_requests;
        p.demand_chords += cmd.req.demand.size();
      }
      sp = tr.begin(kKey, id);
      const eng::CanonicalKey ck = eng::canonical_request_key(cmd.req);
      tr.end(sp);
      sp = tr.begin(kVisit, id);
      const bool hit = engine->run_cached(
          cmd.req, ck, [&](const eng::CoverResponse& entry, std::uint64_t) {
            const std::int32_t c = tr.begin(kCopy, id);
            scratch = entry;
            scratch.cache_hit = true;
            scratch.nodes = 0;
            tr.end(c);
            const std::int32_t rs = tr.begin(kRender, id);
            out = eng::serve_response_line(id, scratch);
            tr.end(rs);
          });
      tr.end(sp);
      if (hit) {
        p.outcome.push_back(Outcome::kHit);
      } else {
        sp = tr.begin(kRun, id);
        const eng::CoverResponse resp = engine->run(cmd.req);
        tr.end(sp);
        sp = tr.begin(kRender, id);
        out = eng::serve_response_line(id, resp);
        tr.end(sp);
        if (resp.cache_hit) {
          p.outcome.push_back(Outcome::kRemapHit);
        } else {
          p.outcome.push_back(Outcome::kMiss);
          p.misses.push_back(cmd.req);
        }
      }
    }
    p.response_bytes += out.size() + 1;
    ++p.responses;
    tr.end(root);
  }
  p.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  const eng::CoverCache::Stats after = engine->cache().stats();
  p.evictions = after.evictions - before.evictions;
  p.inserts = engine->cache().size() - size_before + p.evictions;
  return p;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

void write_spans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  for (const Span& sp : spans)
    out << "{\"name\":\"" << kLayerNames[sp.name] << "\",\"request\":"
        << sp.request << ",\"parent\":" << sp.parent
        << ",\"start_ns\":" << sp.start_ns << ",\"end_ns\":" << sp.end_ns
        << "}\n";
}

}  // namespace

std::int32_t Tracer::begin(std::uint16_t name, std::uint32_t request) {
  if (!enabled_) return -1;
  const auto idx = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(
      {name, open_.empty() ? -1 : open_.back(), request, now_ns(), 0});
  open_.push_back(idx);
  return idx;
}

void Tracer::end(std::int32_t span) {
  if (span < 0) return;
  spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
  open_.pop_back();
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::int32_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent >= 0)
      children[static_cast<std::size_t>(spans[i].parent)].push_back(
          static_cast<std::int32_t>(i));
  std::vector<std::int64_t> self(spans.size());
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& sp = spans[i];
    iv.clear();
    for (std::int32_t c : children[i]) {
      const Span& ch = spans[static_cast<std::size_t>(c)];
      const std::int64_t a = std::max(ch.start_ns, sp.start_ns);
      const std::int64_t b = std::min(ch.end_ns, sp.end_ns);
      if (a < b) iv.push_back({a, b});
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    self[i] = (sp.end_ns - sp.start_ns) - covered;
  }
  return self;
}

std::map<std::string, double> trace_layers(
    const Script& s, const std::string& snapshot, double budget_s,
    const std::map<std::string, double>& e2e_p50_us,
    const std::string& spans_path, const std::string& scratch_store) {
  const auto t_start = Clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - t_start).count();
  };

  // Alternate untraced and traced passes; the ratio of their medians is
  // the price of tracing. Per-layer numbers come from the first traced
  // pass.
  std::vector<double> untraced_s, traced_s;
  Tracer traced(true);
  Pass first;
  do {
    Tracer off(false);
    untraced_s.push_back(replay(s, snapshot, off).seconds);
    if (traced_s.empty()) {
      first = replay(s, snapshot, traced);
      traced_s.push_back(first.seconds);
    } else {
      Tracer again(true);
      traced_s.push_back(replay(s, snapshot, again).seconds);
    }
  } while (traced_s.size() < 2 || elapsed() < budget_s / 2);

  const std::vector<Span>& spans = traced.spans();
  if (!spans_path.empty()) write_spans(spans, spans_path);
  const std::vector<std::int64_t> self = self_times(spans);

  struct Acc {
    double ns = 0;
    std::size_t n = 0;
    void add(double v) { ns += v, ++n; }
    double mean() const { return n ? ns / static_cast<double>(n) : 0; }
  };
  std::map<std::string, Acc> acc;
  std::vector<double> request_ns(first.outcome.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& sp = spans[i];
    if (sp.request >= first.outcome.size()) continue;  // the EOF read
    const Outcome o = first.outcome[sp.request];
    const double self_ns = static_cast<double>(self[i]);
    switch (sp.name) {
      case kRequest:
        request_ns[sp.request] += static_cast<double>(sp.end_ns - sp.start_ns);
        break;
      case kCopy: request_ns[sp.request] -= self_ns; break;  // not server work
      case kFrame: acc["frame"].add(self_ns); break;
      case kParse: acc["parse"].add(self_ns); break;
      case kKey: acc["key"].add(self_ns); break;
      case kRender: acc["render"].add(self_ns); break;
      case kVisit:
        if (o == Outcome::kHit) acc["hit"].add(self_ns);
        break;
      case kRun:
        if (o == Outcome::kRemapHit) acc["hit"].add(self_ns);
        if (o == Outcome::kMiss) acc["miss"].add(self_ns);
        break;
      default: break;
    }
  }
  // Server-side time per request, excluding the probe (line 0).
  std::vector<double> server_ns(request_ns.begin() + 1, request_ns.end());
  const double server_p50_us = median(server_ns) / 1e3;

  std::size_t hits = 0, remaps = 0, misses = 0;
  for (Outcome o : first.outcome) {
    hits += o == Outcome::kHit || o == Outcome::kRemapHit;
    remaps += o == Outcome::kRemapHit;
    misses += o == Outcome::kMiss;
  }

  std::map<std::string, double> m;
  m["frame.ns_per_line"] = acc["frame"].mean();
  m["parse.ns_per_line"] = acc["parse"].mean();
  m["parse.errors"] = static_cast<double>(first.parse_errors);
  m["render.ns_per_response"] = acc["render"].mean();
  m["render.bytes_per_response"] =
      ratio(static_cast<double>(first.response_bytes),
            static_cast<double>(first.responses));
  m["memo.repeat_ratio"] =
      ratio(static_cast<double>(first.repeats),
            static_cast<double>(first.outcome.size()));
  m["key.ns_per_request"] = acc["key"].mean();
  m["key.demand_chords_mean"] =
      ratio(static_cast<double>(first.demand_chords),
            static_cast<double>(first.demand_requests));
  m["cache.hit_ratio"] = ratio(static_cast<double>(hits),
                               static_cast<double>(hits + misses));
  m["cache.remap_ratio"] =
      ratio(static_cast<double>(remaps), static_cast<double>(hits));
  m["cache.ns_per_hit"] = acc["hit"].mean();
  m["cache.inserts"] = static_cast<double>(first.inserts);
  m["cache.evictions"] = static_cast<double>(first.evictions);
  m["engine.ns_per_miss"] = acc["miss"].mean();
  m["serve.p50_us"] = server_p50_us;
  m["trace.overhead_ratio"] = ratio(median(untraced_s), median(traced_s));
  for (const auto& [transport, p50] : e2e_p50_us)
    m["transport." + transport + ".overhead_us"] = p50 - server_p50_us;

  // Kernels, called directly on the requests the replay had to solve —
  // or, where it solved none (interactive), on the requests that built
  // its warm store, timed through Engine::run on an empty engine too.
  std::vector<eng::CoverRequest> kernel_requests = first.misses;
  if (kernel_requests.empty()) {
    eng::Engine cold;
    for (const std::string& l : s.warm) {
      eng::ServeCommand cmd;
      std::string err;
      if (!eng::parse_serve_line(l, &cmd, &err) || !cmd.is_request()) continue;
      kernel_requests.push_back(cmd.req);
      const auto e0 = Clock::now();
      (void)cold.run(cmd.req);
      acc["miss"].add(
          std::chrono::duration<double, std::nano>(Clock::now() - e0).count());
    }
    m["engine.ns_per_miss"] = acc["miss"].mean();
  }
  const eng::AlgorithmRegistry& registry = eng::AlgorithmRegistry::global();
  Acc construct, greedy, validate;
  double solve_s = 0, solve_nodes = 0;
  for (const eng::CoverRequest& req : kernel_requests) {
    const eng::Algorithm* algo = registry.find(req.algorithm);
    const auto k0 = Clock::now();
    const eng::AlgorithmOutcome out = algo->run(req);
    const double run_ns =
        std::chrono::duration<double, std::nano>(Clock::now() - k0).count();
    if (req.algorithm == "construct") construct.add(run_ns);
    if (req.algorithm == "greedy") greedy.add(run_ns);
    if (req.algorithm == "solve") {
      solve_s += run_ns / 1e9;
      solve_nodes += static_cast<double>(out.nodes);
    }
    if (req.validate && out.found && !algo->validate) {
      const auto v0 = Clock::now();
      const bool ok =
          req.demand.empty()
              ? ccov::covering::validate_cover(out.cover).ok
              : ccov::covering::validate_cover_against(
                    out.cover, eng::demand_graph(req.n, req.demand))
                    .ok;
      validate.add(
          std::chrono::duration<double, std::nano>(Clock::now() - v0).count());
      (void)ok;
    }
  }
  m["construct.ns_per_request"] = construct.mean();
  m["greedy.ns_per_request"] = greedy.mean();
  m["validate.ns_per_request"] = validate.mean();
  m["solve.nodes"] = solve_nodes;
  m["solve.nodes_per_s"] = ratio(solve_nodes, solve_s);

  // BatchRunner at the workload's jobs against serial Engine::run, both
  // from the same starting store.
  std::vector<eng::CoverRequest> requests;
  for (const std::string& l : s.lines) {
    eng::ServeCommand cmd;
    std::string err;
    if (eng::parse_serve_line(l, &cmd, &err) && cmd.is_request())
      requests.push_back(cmd.req);
  }
  double serial_s = 0, batch_s = 0;
  auto serial = fresh_engine(s, snapshot);
  {
    const auto b0 = Clock::now();
    for (const eng::CoverRequest& req : requests) (void)serial->run(req);
    serial_s = std::chrono::duration<double>(Clock::now() - b0).count();
  }
  if (hits == 0) {
    // No hits in the stream (batch): price a hit as a repeat of the same
    // requests against the store they just filled.
    for (const eng::CoverRequest& req : requests) {
      const auto h0 = Clock::now();
      const eng::CoverResponse r = serial->run(req);
      if (r.cache_hit)
        acc["hit"].add(
            std::chrono::duration<double, std::nano>(Clock::now() - h0).count());
    }
    m["cache.ns_per_hit"] = acc["hit"].mean();
  }
  {
    auto engine = fresh_engine(s, snapshot);
    eng::BatchRunner runner(*engine, {.jobs = s.jobs});
    (void)engine->pool();  // pool start-up is not per-batch work
    const auto b0 = Clock::now();
    for (std::size_t i = 0; i < requests.size(); i += s.batch) {
      const std::vector<eng::CoverRequest> chunk(
          requests.begin() + static_cast<std::ptrdiff_t>(i),
          requests.begin() + static_cast<std::ptrdiff_t>(
                                 std::min(requests.size(), i + s.batch)));
      (void)runner.run(chunk);
    }
    batch_s = std::chrono::duration<double>(Clock::now() - b0).count();
  }
  m["batch.ns_per_request"] =
      ratio(batch_s * 1e9, static_cast<double>(requests.size()));
  m["batch.parallel_speedup"] = ratio(serial_s, batch_s);

  // Store warm start: the snapshot the server loads, or, for a workload
  // that starts empty (batch), the store its requests leave behind.
  std::string store = snapshot;
  if (store.empty()) {
    store = scratch_store;
    eng::save_snapshot_file(store, serial->cache());
  }
  std::vector<double> loads;
  double entries = 0;
  for (int i = 0; i < 5; ++i) {
    eng::Engine engine(eng::EngineOptions{
        .cache_capacity = server_cache_capacity(
            s, static_cast<std::size_t>(eng::snapshot_entry_count_file(store)))});
    const auto l0 = Clock::now();
    entries = static_cast<double>(eng::load_snapshot_file(store, engine.cache()));
    loads.push_back(std::chrono::duration<double>(Clock::now() - l0).count());
  }
  if (store != snapshot) std::remove(store.c_str());
  m["store.load_s"] = median(loads);
  m["store.entries"] = entries;

  // Session set-up: serve_session over an empty stream.
  {
    eng::Engine engine;
    eng::ServeConfig config;
    config.jobs = s.jobs;
    config.batch = s.batch;
    std::vector<double> us;
    for (int i = 0; i < 200; ++i) {
      MemoryStream empty("");
      const auto s0 = Clock::now();
      eng::serve_session(empty, engine, config);
      us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - s0).count());
    }
    m["session.setup_us"] = median(us);
  }
  return m;
}

}  // namespace perfbench
