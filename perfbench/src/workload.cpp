#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>

#include "ccov/engine/cache.hpp"
#include "ccov/engine/engine.hpp"
#include "ccov/engine/serve.hpp"
#include "ccov/engine/store.hpp"
#include "ccov/util/json.hpp"
#include "ccov/util/prng.hpp"

namespace perfbench {

namespace eng = ccov::engine;
namespace json = ccov::util::json;
using Rng = ccov::util::Xoshiro256;

namespace {

/// One generated request, rendered to a JSONL line by line().
struct Req {
  Req(std::string a, std::uint32_t size, std::uint64_t cap = 0,
      bool check = true)
      : algo(std::move(a)), n(size), max_nodes(cap), validate(check) {}

  std::string algo;
  std::uint32_t n = 0;
  std::uint64_t max_nodes = 0;  ///< emitted only when nonzero
  bool validate = true;         ///< emitted only when false
  std::vector<std::pair<std::uint32_t, std::uint32_t>> demand;
};

std::string line(const Req& r) {
  json::JsonWriter w;
  w.begin_object().key("algo").value_string(r.algo).key("n").value(
      static_cast<std::uint64_t>(r.n));
  if (r.max_nodes) w.key("max_nodes").value(r.max_nodes);
  if (!r.validate) w.key("validate").value(false);
  if (!r.demand.empty()) {
    w.key("demand").begin_array();
    for (const auto& [u, v] : r.demand)
      w.begin_array()
          .value(static_cast<std::uint64_t>(u))
          .value(static_cast<std::uint64_t>(v))
          .end_array();
    w.end_array();
  }
  w.end_object();
  return w.take();
}

template <typename T>
void shuffle(std::vector<T>* v, Rng& rng) {
  for (std::size_t i = v->size(); i > 1; --i)
    std::swap((*v)[i - 1], (*v)[rng.below(i)]);
}

/// `k` values from [lo, hi], one drawn from each of k equal strata, in
/// random order: a seed picks the values but not their spread, so the
/// workload's total cost hardly moves from seed to seed.
std::vector<std::uint32_t> stratified(std::uint32_t lo, std::uint32_t hi,
                                      std::size_t k, Rng& rng) {
  const std::uint64_t span = hi - lo + 1;
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < k; ++i) {
    const std::uint64_t a = i * span / k, b = (i + 1) * span / k;
    out.push_back(lo + static_cast<std::uint32_t>(a + rng.below(b - a)));
  }
  shuffle(&out, rng);
  return out;
}

/// `m` distinct chords {u, v} (u < v) of K_n.
std::vector<std::pair<std::uint32_t, std::uint32_t>> random_demand(
    std::uint32_t n, std::size_t m, Rng& rng) {
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  while (out.size() < m) {
    auto u = static_cast<std::uint32_t>(rng.below(n));
    auto v = static_cast<std::uint32_t>(rng.below(n));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (seen.insert({u, v}).second) out.push_back({u, v});
  }
  return out;
}

/// Image of a demand under v -> (reflect ? -v : v) + shift (mod n).
std::vector<std::pair<std::uint32_t, std::uint32_t>> dihedral_image(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& demand,
    std::uint32_t n, bool reflect, std::uint32_t shift) {
  const auto g = [&](std::uint32_t v) {
    return ((reflect ? (n - v) % n : v) + shift) % n;
  };
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  for (const auto& [u, v] : demand) {
    std::uint32_t a = g(u), b = g(v);
    if (a > b) std::swap(a, b);
    out.push_back({a, b});
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Zipf(s) sampler over ranks 0..k-1 (rank 0 most popular).
class Zipf {
 public:
  Zipf(std::size_t k, double s) : cdf_(k) {
    double total = 0;
    for (std::size_t i = 0; i < k; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  std::size_t operator()(Rng& rng) const {
    const double u = rng.uniform01();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// ---------------------------------------------------------------------------
// interactive: Zipf stream over a pre-warmed hot set, every request a hit
// ---------------------------------------------------------------------------

constexpr std::size_t kInteractiveLines = 20000;
constexpr std::size_t kInteractiveColdKeys = 3000;

Script interactive(Rng& rng) {
  std::vector<Req> hot;
  for (std::uint32_t n = 6; n <= 17; ++n) hot.push_back({"construct", n});
  for (std::uint32_t n = 6; n <= 17; ++n) hot.push_back({"greedy", n});
  for (std::uint32_t n : {5u, 6u, 7u, 8u, 9u, 11u, 13u, 15u, 17u, 19u, 21u})
    hot.push_back({"solve", n});
  Script s;
  s.workload = "interactive";
  for (const Req& r : hot) s.warm.push_back(line(r));
  std::vector<std::string> ranked = s.warm;
  shuffle(&ranked, rng);
  // The rest of the store: demand covers the stream never asks for, so
  // set-up includes a real snapshot load.
  for (std::size_t i = 0; i < kInteractiveColdKeys; ++i) {
    Req r{"greedy", static_cast<std::uint32_t>(12 + rng.below(29))};
    r.demand = random_demand(r.n, 8 + rng.below(33), rng);
    s.warm.push_back(line(r));
  }
  const Zipf zipf(ranked.size(), 1.0);
  for (std::size_t i = 0; i < kInteractiveLines; ++i)
    s.lines.push_back(ranked[zipf(rng)]);
  return s;
}

// ---------------------------------------------------------------------------
// batch: distinct-key misses through the pipelined --jobs/--batch path
// ---------------------------------------------------------------------------

constexpr std::size_t kBatch = 8;  // server --batch and lines per frame

Script batch(Rng& rng) {
  std::vector<Req> reqs;
  for (std::uint32_t n : stratified(5, 150, 90, rng))
    reqs.push_back({"construct", n});
  // Exact solves, odd n: the search completes well inside each cap, so
  // every variant visits the golden node count.
  std::vector<Req> exact;
  for (std::uint32_t n = 5; n <= 21; n += 2)
    for (std::uint64_t cap : {0ull, 1000000ull, 5000000ull})
      for (bool validate : {true, false})
        exact.push_back({"solve", n, cap, validate});
  shuffle(&exact, rng);
  reqs.insert(reqs.end(), exact.begin(), exact.begin() + 40);
  // Node-capped solves, even n >= 10 (uncapped, n = 10 alone runs 200M
  // nodes): each stops at its cap; ten of each cap.
  for (std::uint64_t cap : {5000ull, 10000ull, 20000ull, 40000ull})
    for (std::uint32_t half : stratified(5, 20, 10, rng))
      reqs.push_back({"solve", 2 * half, cap});
  // The baselines' validation grows steeply: n = 60 already costs 9 ms.
  for (const char* algo : {"emz", "triple"})
    for (std::uint32_t n : stratified(5, 60, 40, rng))
      reqs.push_back({algo, n});

  // Greedy over 8-128 explicit chords; every key must be new under D_n.
  std::set<std::string> keys;
  for (const Req& r : reqs) {
    eng::ServeCommand cmd;
    std::string err;
    eng::parse_serve_line(line(r), &cmd, &err);
    keys.insert(eng::canonical_request_key(cmd.req).key);
  }
  const std::vector<std::uint32_t> sizes = stratified(24, 64, 150, rng);
  const std::vector<std::uint32_t> chords = stratified(8, 128, 150, rng);
  for (std::size_t i = 0; i < sizes.size();) {
    Req r{"greedy", sizes[i]};
    r.demand = random_demand(r.n, chords[i], rng);
    eng::ServeCommand cmd;
    std::string err;
    eng::parse_serve_line(line(r), &cmd, &err);
    if (!keys.insert(eng::canonical_request_key(cmd.req).key).second) continue;
    reqs.push_back(std::move(r));
    ++i;
  }
  shuffle(&reqs, rng);

  Script s;
  s.workload = "batch";
  for (const Req& r : reqs) s.lines.push_back(line(r));
  s.lines.emplace_back(kProbeLine);  // final counts: all misses, no hits
  s.frame_lines = kBatch;
  s.window_frames = 2;
  // Two solver threads plus the generator leave one of the four vCPUs
  // spare, so a neighbour's burst on the shared host delays no solver.
  s.jobs = 2;
  s.batch = kBatch;
  return s;
}

// ---------------------------------------------------------------------------
// churn: a store smaller than the key set, hits beside writes
// ---------------------------------------------------------------------------

constexpr std::size_t kChurnLines = 5000;
constexpr std::size_t kChurnDemandKeys = 1600;
constexpr std::size_t kChurnSnapshot = 500;
constexpr std::size_t kChurnCapacity = 600;  // raised to 2 x snapshot
constexpr std::size_t kChurnVerbEvery = 40;

Script churn(Rng& rng) {
  std::vector<Req> universe;
  // Keys of one class cost about the same, so which of them the seed
  // makes popular does not move the medians.
  for (std::uint32_t n = 5; n <= 40; ++n) {
    universe.push_back({"construct", n});
    universe.push_back({"construct", n, 0, false});
    universe.push_back({"emz", n});
    universe.push_back({"triple", n});
    universe.push_back({"greedy", n});
  }
  std::vector<Req> demands;
  for (std::size_t i = 0; i < kChurnDemandKeys; ++i) {
    Req r{"greedy", static_cast<std::uint32_t>(28 + rng.below(5))};
    r.demand = random_demand(r.n, 20 + rng.below(9), rng);
    demands.push_back(std::move(r));
  }
  // K_n keys sit at evenly spaced popularity ranks and demand keys fill
  // the rest, so the seed picks the keys but not the class mix.
  shuffle(&universe, rng);
  const std::size_t kn = universe.size(), total = kn + demands.size();
  std::vector<Req> ranked;
  for (std::size_t r = 0, k = 0, d = 0; r < total; ++r) {
    if (k < kn && r == k * total / kn)
      ranked.push_back(std::move(universe[k++]));
    else
      ranked.push_back(std::move(demands[d++]));
  }
  universe = std::move(ranked);

  Script s;
  s.workload = "churn";
  for (std::size_t i = 0; i < kChurnSnapshot; ++i)
    s.warm.push_back(line(universe[i]));
  // Large K_n covers the stream never asks for: they make the warm start
  // a real multi-megabyte load and are the first LRU victims.
  for (std::uint32_t n = 81; n <= 150; ++n) {
    s.warm.push_back(line({"construct", n}));
    s.warm.push_back(line({"construct", n, 0, false}));
  }
  const Zipf zipf(universe.size(), 0.9);
  for (std::size_t i = 0; i < kChurnLines; ++i) {
    if (i % kChurnVerbEvery == kChurnVerbEvery - 1) {
      s.lines.emplace_back((i / kChurnVerbEvery) % 2 ? R"({"op":"metrics"})"
                                                     : R"({"op":"stats"})");
      continue;
    }
    Req r = universe[zipf(rng)];
    if (!r.demand.empty()) {
      ++s.demand_lines;
      if (rng.uniform01() < kChurnImageShare) {
        // Any of the 2n - 1 non-identity elements of D_n.
        const std::uint64_t g = 1 + rng.below(2 * r.n - 1);
        std::string original = line(r);
        r.demand = dihedral_image(r.demand, r.n, g >= r.n,
                                  static_cast<std::uint32_t>(g % r.n));
        s.images.push_back({s.lines.size(), std::move(original)});
      }
    }
    s.lines.push_back(line(r));
  }
  s.cache_capacity = kChurnCapacity;
  return s;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"interactive", "batch",
                                                 "churn"};
  return names;
}

Script make_script(const std::string& workload, std::uint64_t seed) {
  // Distinct streams per workload even for equal seeds.
  std::uint64_t salt = 0xcbf29ce484222325ull;
  for (char c : workload) salt = (salt ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  Rng rng(seed ^ salt);
  if (workload == "interactive") return interactive(rng);
  if (workload == "batch") return batch(rng);
  if (workload == "churn") return churn(rng);
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

std::uint64_t golden_solve_nodes(std::uint32_t n) {
  static const std::map<std::uint32_t, std::uint64_t> golden = {
      {5, 5},     {7, 10},     {9, 72},    {11, 54},   {13, 819},
      {15, 753},  {17, 350},   {19, 7369}, {21, 12451}};
  const auto it = golden.find(n);
  return it == golden.end() ? 0 : it->second;
}

std::size_t server_cache_capacity(const Script& s,
                                  std::size_t snapshot_entries) {
  const std::size_t flag = s.cache_capacity ? s.cache_capacity : 1u << 14;
  return std::max(flag, 2 * snapshot_entries);
}

std::size_t write_snapshot(const Script& s, const std::string& path) {
  eng::EngineOptions opts;
  opts.cache_capacity = 4 * s.warm.size() + 16;
  eng::Engine engine(opts);
  for (const std::string& l : s.warm) {
    eng::ServeCommand cmd;
    std::string err;
    if (!eng::parse_serve_line(l, &cmd, &err) || !cmd.is_request())
      throw std::runtime_error("bad warm line: " + l);
    const eng::CoverResponse r = engine.run(cmd.req);
    if (!r.ok || !r.found) throw std::runtime_error("warm request failed: " + l);
  }
  eng::save_snapshot_file(path, engine.cache());
  return engine.cache().size();
}

bool split_id(std::string_view line, std::uint64_t* id,
              std::string_view* tail) {
  constexpr std::string_view kHead = R"({"id":)";
  if (line.substr(0, kHead.size()) != kHead) return false;
  std::size_t i = kHead.size();
  std::uint64_t v = 0;
  const std::size_t digits = i;
  while (i < line.size() && line[i] >= '0' && line[i] <= '9')
    v = v * 10 + static_cast<std::uint64_t>(line[i++] - '0');
  if (i == digits) return false;
  *id = v;
  *tail = line.substr(i);
  return true;
}

std::string comparable_tail(std::string_view tail) {
  constexpr std::string_view kMetrics = R"(,"op":"metrics")";
  if (tail.substr(0, kMetrics.size()) != kMetrics) return std::string(tail);
  const std::string doc = "{\"id\":0" + std::string(tail);
  json::Value root;
  std::string err;
  json::Reader reader(doc);
  if (!reader.parse(&root, &err) || root.type != json::Value::Type::kObject)
    return std::string(tail);
  json::JsonWriter w;
  w.begin_object();
  for (const auto& [key, val] : root.object) {
    if (key == "id") continue;
    if (key != "metrics" || val.type != json::Value::Type::kObject) {
      if (val.type == json::Value::Type::kString)
        w.key(key).value_string(val.string);
      else if (val.type == json::Value::Type::kBool)
        w.key(key).value(val.boolean);
      else
        w.key(key).value(val.integer);
      continue;
    }
    w.key("metrics").begin_object();
    for (const auto& [name, m] : val.object)
      if (name.rfind("ccov_cache_", 0) == 0 ||
          name.rfind("ccov_requests_", 0) == 0 ||
          name.rfind("ccov_solver_", 0) == 0)
        w.key(name).value(m.integer);
    w.end_object();
  }
  w.end_object();
  return w.take();
}

Reference build_reference(const Script& s, const std::string& snapshot) {
  std::size_t entries = 0;
  if (!snapshot.empty())
    entries = static_cast<std::size_t>(eng::snapshot_entry_count_file(snapshot));
  eng::EngineOptions opts;
  opts.cache_capacity = server_cache_capacity(s, entries);
  eng::Engine engine(opts);
  if (!snapshot.empty()) eng::load_snapshot_file(snapshot, engine.cache());
  const eng::ServeConfig config;

  const auto answer = [&](std::uint64_t id, const std::string& l,
                          eng::CoverResponse* resp) -> std::string {
    eng::ServeCommand cmd;
    std::string err;
    std::string out;
    if (!eng::parse_serve_line(l, &cmd, &err))
      out = eng::serve_error_line(id, "parse: " + err);
    else if (!cmd.is_request())
      out = cmd.verb->run({id, engine, config});
    else {
      *resp = engine.run(cmd.req);
      out = eng::serve_response_line(id, *resp);
    }
    std::uint64_t got = 0;
    std::string_view tail;
    split_id(out, &got, &tail);
    return comparable_tail(tail);
  };

  Reference ref;
  eng::CoverResponse resp;
  ref.probe = answer(0, std::string(kProbeLine), &resp);
  ref.golden_bad.assign(s.lines.size(), 0);
  std::size_t requests = 0;
  for (std::size_t i = 0; i < s.lines.size(); ++i) {
    resp = eng::CoverResponse{};
    ref.tails.push_back(answer(i + 1, s.lines[i], &resp));
    if (resp.algorithm.empty()) continue;  // a control verb
    ++requests;
    if (!resp.ok) ref.error = "request failed: " + s.lines[i];
    if (resp.algorithm == "solve" && !resp.cache_hit) {
      const std::uint64_t golden = golden_solve_nodes(resp.n);
      if (golden && resp.n % 2 == 1) {
        ++ref.golden_checked;
        if (resp.nodes != golden || !resp.found || !resp.exhausted)
          ref.golden_bad[i] = 1;
      }
    }
  }
  const eng::CoverCache::Stats st = engine.cache().stats();
  ref.hits = st.hits;
  ref.misses = st.misses;
  ref.evictions = st.evictions;
  if (s.workload == "interactive" && st.misses != 0)
    ref.error = "interactive: a stream request missed the warm store";
  if (s.workload == "batch" && (st.hits != 0 || st.misses != requests))
    ref.error = "batch: a request key repeated";
  if (s.workload == "churn" && (st.evictions == 0 || st.misses == 0))
    ref.error = "churn: the store never evicted";
  return ref;
}

}  // namespace perfbench
