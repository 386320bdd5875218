// ccov_loadgen — the load generator behind perfbench/run.py.
//
//   ccov_loadgen run --workload W --seed N --seconds S --trace 0|1
//                    --server PATH/TO/ccov --workdir DIR
//       Drive `ccov serve` (spawned from PATH) over stdio, TCP, HTTP and
//       shm in rotating rounds for S seconds, check every response
//       against the in-process reference, and print one JSON report.
//       --trace 1 spends half the time on the traced in-process replay
//       (trace.hpp) and adds the per-layer metrics.
//   ccov_loadgen lines --workload W --seed N
//       Print the workload's warm lines and stream, for inspection.
//   ccov_loadgen selftest
//       Check the generator and the span arithmetic; exit 0 when all pass.

#include <signal.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "ccov/engine/cache.hpp"
#include "ccov/engine/serve.hpp"
#include "trace.hpp"
#include "transport.hpp"
#include "workload.hpp"

namespace pb = perfbench;
namespace eng = ccov::engine;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server;
  std::string workdir;
};

Args parse_args(int argc, char** argv) {
  Args a;
  if (argc < 2) throw std::invalid_argument("usage: ccov_loadgen run|lines|selftest ...");
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::stoull(v);
    else if (flag == "--seconds") a.seconds = std::stod(v);
    else if (flag == "--trace") a.trace = v == "1";
    else if (flag == "--server") a.server = v;
    else if (flag == "--workdir") a.workdir = v;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  return a;
}

/// cpu steal and total jiffies from /proc/stat.
std::pair<double, double> cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0, steal = 0;
  for (int i = 0; i < 8; ++i) {
    double v = 0;
    in >> v;
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

/// Nearest-rank percentile of sorted samples.
double percentile(const std::vector<std::int64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return static_cast<double>(sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1]);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

struct PerTransport {
  std::size_t sent = 0, succeeded = 0, failed = 0;
  double stream_s = 0;
  std::vector<std::int64_t> latency_ns;  ///< send to matching response
  std::vector<double> session_rps;       ///< whole script / stream time
};

/// p99 is taken within windows of this many requests (so ten samples lie
/// beyond it), and the median over windows is reported: a stall of the
/// shared host spoils one window's figure instead of the run's.
constexpr std::size_t kP99Window = 1000;

/// Median over consecutive `window`-request windows (a shorter tail
/// window is dropped unless it is the only one) of f(begin, end).
template <typename F>
double windowed_median(std::size_t n, std::size_t window, F f) {
  std::vector<double> v;
  for (std::size_t b = 0; b + window <= n; b += window) v.push_back(f(b, b + window));
  if (v.empty() && n > 0) v.push_back(f(0, n));
  return median(v);
}

/// Everything the end-to-end rounds measured.
struct E2e {
  std::map<std::string, PerTransport> transports;
  std::vector<double> setup_s;
  long peak_rss_kb = 0;
  std::size_t rounds = 0;
  std::vector<std::string> errors;
};

/// One server start, its probe, the whole stream and the response check.
void run_session(const Args& a, pb::Transport t, const pb::Script& s,
                 const pb::Reference& ref, const std::string& snapshot,
                 const std::vector<std::string>& frames, E2e* e2e) {
  PerTransport& pt = e2e->transports[pb::transport_name(t)];
  pb::ServerArgs sa{s.jobs, s.batch, s.cache_capacity, ""};
  if (!snapshot.empty()) {
    // The server saves its store on exit: give each start its own copy.
    sa.cache_file = a.workdir + "/serve-" + pb::transport_name(t) + ".snap";
    fs::copy_file(snapshot, sa.cache_file, fs::copy_options::overwrite_existing);
  }
  const std::size_t n = s.lines.size();
  std::vector<std::string> responses(n);
  std::vector<std::int64_t> send_ns(frames.size());
  std::size_t got = 0;
  bool server_ok = false;
  long rss = 0;
  {
    const auto t0 = Clock::now();
    pb::Server server(a.server, t, sa);
    auto conn = server.connect();
    std::string probe;
    if (!conn->send(std::string(pb::kProbeLine) + "\n") || !conn->recv_line(&probe))
      throw std::runtime_error(std::string(pb::transport_name(t)) +
                               ": no answer to the probe\n" + server.log());
    e2e->setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    std::uint64_t id = 0;
    std::string_view tail;
    if (!pb::split_id(probe, &id, &tail) || id != 0 ||
        pb::comparable_tail(tail) != ref.probe)
      e2e->errors.push_back(std::string(pb::transport_name(t)) +
                            ": probe answer differs: " + probe);

    // Closed loop: at most window_frames frames in flight.
    const auto start = Clock::now();
    const auto ns_since = [&] {
      return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start)
          .count();
    };
    std::size_t sent_frames = 0;
    bool alive = true;
    while (got < n && alive) {
      while (sent_frames < frames.size() &&
             sent_frames < got / s.frame_lines + s.window_frames) {
        send_ns[sent_frames] = ns_since();
        if (!conn->send(frames[sent_frames])) {
          alive = false;
          break;
        }
        ++sent_frames;
      }
      if (!alive || !conn->recv_line(&responses[got])) break;
      pt.latency_ns.push_back(ns_since() - send_ns[got / s.frame_lines]);
      ++got;
    }
    const double stream_s = static_cast<double>(ns_since()) / 1e9;
    pt.stream_s += stream_s;
    pt.session_rps.push_back(static_cast<double>(got) / stream_s);
    rss = server.peak_rss_kb();
    conn->finish();
    conn.reset();
    server_ok = server.stop();
    if (!server_ok)
      e2e->errors.push_back(std::string(pb::transport_name(t)) +
                            ": server did not exit cleanly\n" + server.log());
  }
  if (!snapshot.empty()) fs::remove(sa.cache_file);
  e2e->peak_rss_kb = std::max(e2e->peak_rss_kb, rss);

  std::size_t bad = n - got;
  for (std::size_t i = 0; i < got; ++i) {
    std::uint64_t id = 0;
    std::string_view tail;
    const std::uint64_t want =
        t == pb::Transport::kHttp ? i % s.frame_lines : i + 1;
    const bool ok = pb::split_id(responses[i], &id, &tail) && id == want &&
                    !ref.golden_bad[i] && pb::comparable_tail(tail) == ref.tails[i];
    if (!ok) {
      if (bad == n - got)
        e2e->errors.push_back(std::string(pb::transport_name(t)) + ": line " +
                              std::to_string(i) + " answered " +
                              responses[i].substr(0, 300));
      ++bad;
    }
  }
  pt.sent += n;
  pt.failed += bad;
  pt.succeeded += n - bad;
}

E2e run_rounds(const Args& a, const pb::Script& s, const pb::Reference& ref,
               const std::string& snapshot, double budget_s) {
  std::vector<std::string> frames;
  for (std::size_t i = 0; i < s.lines.size(); i += s.frame_lines) {
    std::string f;
    for (std::size_t j = i; j < std::min(s.lines.size(), i + s.frame_lines); ++j)
      f += s.lines[j] + "\n";
    frames.push_back(std::move(f));
  }
  E2e e2e;
  const auto t0 = Clock::now();
  // Rotate the starting transport so no transport always runs first.
  do {
    for (std::size_t k = 0; k < 4; ++k)
      run_session(a, pb::kTransports[(e2e.rounds + k) % 4], s, ref, snapshot,
                  frames, &e2e);
    ++e2e.rounds;
  } while (std::chrono::duration<double>(Clock::now() - t0).count() < budget_s);
  return e2e;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\', out += c;
    else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else out += c;
  }
  return out + "\"";
}

int cmd_run(const Args& a) {
  const auto jiffies0 = cpu_jiffies();
  const pb::Script s = pb::make_script(a.workload, a.seed);
  fs::create_directories(a.workdir);
  std::string snapshot;
  std::size_t entries = 0;
  if (!s.warm.empty()) {
    snapshot = a.workdir + "/store.snap";
    entries = pb::write_snapshot(s, snapshot);
  }
  const pb::Reference ref = pb::build_reference(s, snapshot);

  const double e2e_budget = a.trace ? a.seconds / 2 : a.seconds;
  E2e e2e = run_rounds(a, s, ref, snapshot, e2e_budget);

  std::map<std::string, double> metrics;
  std::map<std::string, double> p50_us;
  std::size_t attempted = 0, failed = 0;
  for (const auto& [name, pt] : e2e.transports) {
    std::vector<std::int64_t> lat = pt.latency_ns;
    std::sort(lat.begin(), lat.end());
    p50_us[name] = percentile(lat, 0.50) / 1e3;
    metrics[name + ".p50_us"] = p50_us[name];
    metrics[name + ".p99_us"] =
        windowed_median(lat.size(), kP99Window, [&](std::size_t b, std::size_t e) {
          std::vector<std::int64_t> w(pt.latency_ns.begin() + b,
                                      pt.latency_ns.begin() + e);
          std::sort(w.begin(), w.end());
          return percentile(w, 0.99) / 1e3;
        });
    // Each session runs the whole script, so every sample has the
    // workload's full mix; the median drops a session a host stall hit.
    metrics[name + ".rps"] = median(pt.session_rps);
    // Whole-run figures, for the detail line.
    metrics[name + ".p99_pooled_us"] = percentile(lat, 0.99) / 1e3;
    metrics[name + ".rps_overall"] =
        pt.stream_s > 0 ? static_cast<double>(pt.sent) / pt.stream_s : 0;
    attempted += pt.sent;
    failed += pt.failed;
  }
  metrics["setup_s"] = median(e2e.setup_s);
  metrics["rss_mb"] = static_cast<double>(e2e.peak_rss_kb) / 1024.0;

  if (a.trace) {
    const std::string spans = a.workdir + "/../spans-" + a.workload + ".jsonl";
    for (const auto& [name, v] :
         pb::trace_layers(s, snapshot, a.seconds - e2e_budget, p50_us, spans,
                          a.workdir + "/trace-store.snap"))
      metrics[name] = v;
  }
  const auto jiffies1 = cpu_jiffies();
  const double dtotal = jiffies1.second - jiffies0.second;
  metrics["host.steal_ratio"] =
      dtotal > 0 ? (jiffies1.first - jiffies0.first) / dtotal : 0;
  if (!snapshot.empty()) fs::remove(snapshot);

  if (!ref.error.empty()) e2e.errors.push_back(ref.error);
  for (std::size_t i = 0; i < ref.golden_bad.size(); ++i)
    if (ref.golden_bad[i])
      e2e.errors.push_back("golden node count differs: " + s.lines[i]);
  const bool correct = failed == 0 && e2e.errors.empty();

  std::ostringstream out;
  out << "{\"correct\":" << (correct ? "true" : "false")
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, v] : metrics) {
    out << (first ? "" : ",") << quote(name) << ":" << num(v);
    first = false;
  }
  out << "},\"transports\":{";
  first = true;
  for (const auto& [name, pt] : e2e.transports) {
    out << (first ? "" : ",") << quote(name) << ":{\"sent\":" << pt.sent
        << ",\"succeeded\":" << pt.succeeded << ",\"failed\":" << pt.failed
        << ",\"latency_samples\":" << pt.latency_ns.size()
        << ",\"stream_s\":" << num(pt.stream_s) << "}";
    first = false;
  }
  out << "},\"rounds\":" << e2e.rounds << ",\"server_starts\":" << e2e.setup_s.size()
      << ",\"snapshot_entries\":" << entries << ",\"stream_lines\":" << s.lines.size()
      << ",\"expected\":{\"hits\":" << ref.hits << ",\"misses\":" << ref.misses
      << ",\"evictions\":" << ref.evictions
      << ",\"golden_solves\":" << ref.golden_checked << "},\"errors\":[";
  for (std::size_t i = 0; i < e2e.errors.size() && i < 20; ++i)
    out << (i ? "," : "") << quote(e2e.errors[i]);
  out << "]}";
  std::cout << out.str() << std::endl;
  return correct ? 0 : 1;
}

int cmd_lines(const Args& a) {
  const pb::Script s = pb::make_script(a.workload, a.seed);
  for (const std::string& l : s.warm) std::cout << "warm " << l << "\n";
  for (const std::string& l : s.lines) std::cout << l << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// Self-tests
// ---------------------------------------------------------------------------

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++g_failures;
}

eng::CanonicalKey key_of(const std::string& line) {
  eng::ServeCommand cmd;
  std::string err;
  eng::parse_serve_line(line, &cmd, &err);
  return eng::canonical_request_key(cmd.req);
}

int cmd_selftest() {
  for (const std::string& w : pb::workload_names()) {
    const pb::Script a = pb::make_script(w, 7), b = pb::make_script(w, 7),
                     c = pb::make_script(w, 8);
    expect(a.lines == b.lines && a.warm == b.warm, w + ": same seed, same lines");
    expect(a.lines != c.lines, w + ": another seed, other lines");
    std::size_t parsed = 0;
    for (const std::string& l : a.lines) {
      eng::ServeCommand cmd;
      std::string err;
      parsed += eng::parse_serve_line(l, &cmd, &err);
    }
    expect(parsed == a.lines.size(), w + ": every line parses");
  }

  for (std::uint64_t seed : {1, 2, 3}) {
    const pb::Script s = pb::make_script("batch", seed);
    std::set<std::string> keys;
    std::size_t requests = 0;
    for (const std::string& l : s.lines) {
      if (l.find("\"op\"") != std::string::npos) continue;
      ++requests;
      keys.insert(key_of(l).key);
    }
    expect(keys.size() == requests && requests >= 400,
           "batch seed " + std::to_string(seed) + ": " + std::to_string(requests) +
               " keys pairwise distinct under D_n");
  }

  for (std::uint64_t seed : {1, 2, 3}) {
    const pb::Script s = pb::make_script("churn", seed);
    bool images_ok = !s.images.empty();
    for (const auto& [idx, original] : s.images) {
      const eng::CanonicalKey img = key_of(s.lines[idx]), org = key_of(original);
      images_ok = images_ok && s.lines[idx] != original && img.key == org.key;
    }
    const double share = static_cast<double>(s.images.size()) /
                         static_cast<double>(s.demand_lines);
    expect(images_ok, "churn seed " + std::to_string(seed) +
                          ": every image shares its original's canonical key");
    expect(std::abs(share - pb::kChurnImageShare) < 0.04,
           "churn seed " + std::to_string(seed) + ": image share " +
               std::to_string(share) + " of " + std::to_string(s.demand_lines) +
               " demand lines");
  }

  {
    // root [0,100]; a [10,30] with child [12,15]; b [20,50] overlaps a;
    // c [90,120] runs past the root and is clipped to [90,100].
    const std::vector<pb::Span> spans = {
        {0, -1, 0, 0, 100}, {1, 0, 0, 10, 30}, {1, 1, 0, 12, 15},
        {2, 0, 0, 20, 50},  {3, 0, 0, 90, 120}};
    const std::vector<std::int64_t> self = pb::self_times(spans);
    expect(self == std::vector<std::int64_t>{50, 17, 3, 30, 30},
           "self time on a hand-built span tree");
    pb::Tracer tr(true);
    const auto r = tr.begin(0, 1);
    const auto c = tr.begin(1, 1);
    tr.end(c);
    tr.end(r);
    expect(tr.spans().size() == 2 && tr.spans()[1].parent == r &&
               tr.spans()[0].parent == -1,
           "tracer nests spans under the open one");
  }

  {
    std::uint64_t id = 0;
    std::string_view tail;
    expect(pb::split_id(R"({"id":42,"ok":true})", &id, &tail) && id == 42 &&
               tail == R"(,"ok":true})",
           "split_id");
    expect(pb::comparable_tail(
               R"(,"op":"metrics","ok":true,"metrics":{"ccov_cache_hits_total":3,"ccov_serve_sessions_total":9}})") ==
               R"({"op":"metrics","ok":true,"metrics":{"ccov_cache_hits_total":3}})",
           "comparable_tail keeps engine series only");
  }
  std::cout << (g_failures ? "selftest FAILED" : "selftest passed") << "\n";
  return g_failures ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  try {
    const Args a = parse_args(argc, argv);
    if (a.mode == "run") return cmd_run(a);
    if (a.mode == "lines") return cmd_lines(a);
    if (a.mode == "selftest") return cmd_selftest();
    std::cerr << "unknown mode " << a.mode << "\n";
  } catch (const std::exception& e) {
    std::cerr << "ccov_loadgen: " << e.what() << "\n";
  }
  return 2;
}
