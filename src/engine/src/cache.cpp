#include "ccov/engine/cache.hpp"

#include <algorithm>
#include <charconv>
#include <functional>
#include <utility>

#include "ccov/util/failpoint.hpp"

namespace ccov::engine {

namespace {

/// A chord packed as (min << 32) | max: u64 order is the lexicographic
/// order of the normalized (u, v) pair.
std::uint64_t pack(std::uint32_t u, std::uint32_t v) {
  if (u > v) std::swap(u, v);
  return (std::uint64_t{u} << 32) | v;
}

/// A group element packed as (reflect << 32) | shift: u64 order is the
/// order in which the full 2n-element scan visits D_n.
std::uint64_t pack(const DihedralElement& g) {
  return (std::uint64_t{g.reflect} << 32) | g.shift;
}

/// refl(v) = -v mod n, for v < n.
std::uint32_t reflect_vertex(std::uint32_t v, std::uint32_t n) {
  return v == 0 ? 0 : n - v;
}

/// (v + s) mod n, for v, s < n, without overflow.
std::uint32_t rotate_vertex(std::uint32_t v, std::uint32_t s,
                            std::uint32_t n) {
  return v >= n - s ? v - (n - s) : v + s;
}

/// Image of the demand multiset under g(v) = rot_s(refl^r(v)), unsorted,
/// written into `out` (resized, never reallocated once large enough).
/// Every vertex must be < n.
void image(const std::vector<graph::Edge>& demand, std::uint32_t n,
           const DihedralElement& g, std::vector<std::uint64_t>* out) {
  out->resize(demand.size());
  const auto map = [&](std::uint32_t v) {
    return rotate_vertex(g.reflect ? reflect_vertex(v, n) : v, g.shift, n);
  };
  for (std::size_t i = 0; i < demand.size(); ++i)
    (*out)[i] = pack(map(demand[i].u), map(demand[i].v));
}

/// The elements of D_n that map some chord of the demand onto (0, l),
/// l the least ring distance over its chords, sorted in scan order and
/// deduplicated. The least image starts with (0, l), so it is the image
/// under one of these. Every vertex must be < n.
std::vector<std::uint64_t> candidate_elements(
    const std::vector<graph::Edge>& demand, std::uint32_t n) {
  const auto ring_distance = [n](std::uint32_t u, std::uint32_t v) {
    const std::uint32_t d = u > v ? u - v : v - u;
    return std::min(d, n - d);
  };
  std::uint32_t least = n;
  for (const auto& e : demand) least = std::min(least, ring_distance(e.u, e.v));

  // For a chord {a, b} (after the reflection, if any), rot_s sends it to
  // {0, l} iff s = -a and b - a = l, or s = -b and a - b = l (mod n).
  std::vector<std::uint64_t> out;
  for (const auto& e : demand) {
    if (ring_distance(e.u, e.v) != least) continue;
    for (const bool reflect : {false, true}) {
      const std::uint32_t a = reflect ? reflect_vertex(e.u, n) : e.u;
      const std::uint32_t b = reflect ? reflect_vertex(e.v, n) : e.v;
      if (rotate_vertex(b, reflect_vertex(a, n), n) == least)
        out.push_back(pack({reflect, reflect_vertex(a, n)}));
      if (rotate_vertex(a, reflect_vertex(b, n), n) == least)
        out.push_back(pack({reflect, reflect_vertex(b, n)}));
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool demand_within_ring(const CoverRequest& req) {
  return std::all_of(req.demand.begin(), req.demand.end(),
                     [n = req.n](const graph::Edge& e) {
                       return e.u < n && e.v < n;
                     });
}

/// True when g fixes every vertex of C_n (n = 0 included: nothing moves).
bool is_identity(const DihedralElement& g, std::uint32_t n) {
  return n == 0 || (!g.reflect && g.shift % n == 0);
}

/// Replace every vertex v of `cover` by map(v), in place.
template <typename Map>
void relabel(covering::RingCover* cover, Map map) {
  for (covering::Cycle& c : cover->cycles)
    for (covering::Vertex& v : c) v = map(v);
}

/// Decimal append without a std::to_string temporary — key building sits
/// on the cache-hit hot path. Bytes match what ostringstream printed
/// (bools as 1/0 via the integer overloads).
void append_num(std::string* out, std::uint64_t v) {
  char buf[20];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  (void)ec;
  out->append(buf, end);
}

}  // namespace

CanonicalKey canonical_request_key(const CoverRequest& req) {
  std::string key;
  key.reserve(96 + 8 * req.demand.size());
  key += req.algorithm;
  key += "|n=";
  append_num(&key, req.n);
  key += "|b=";
  append_num(&key, req.budget);
  key += "|l=";
  append_num(&key, req.lambda);
  key += "|mcl=";
  append_num(&key, req.solver.max_cycle_len);
  key += "|mn=";
  append_num(&key, req.solver.max_nodes);
  key += "|cp=";
  append_num(&key, req.solver.use_capacity_prune ? 1 : 0);
  key += "|v=";
  append_num(&key, req.validate ? 1 : 0);

  CanonicalKey out;
  std::vector<std::uint64_t> best;
  if (req.demand.empty() || req.n == 0) {
    // K_n is fixed by every element of D_n: the identity suffices.
    key += "|K_n";
  } else if (!demand_within_ring(req)) {
    // Not a demand on C_n, so D_n does not act on it: key the literal
    // chords under the identity. The engine never caches such requests.
    for (const auto& e : req.demand) best.push_back(pack(e.u, e.v));
    std::sort(best.begin(), best.end());
    key += "|X";
  } else {
    // Lexicographically least D_n-image of the demand; the minimizing
    // element maps this request's frame onto the canonical frame. Strict
    // `<` over candidates in scan order keeps the first minimizer, as a
    // scan of all 2n elements would. Every candidate image starts with
    // (0, l), so its second-least chord decides most comparisons: an
    // image whose second chord exceeds the best one's loses without
    // being sorted.
    std::vector<std::uint64_t> img;
    for (const std::uint64_t c : candidate_elements(req.demand, req.n)) {
      const DihedralElement g{(c >> 32) != 0,
                              static_cast<std::uint32_t>(c)};
      image(req.demand, req.n, g, &img);
      const std::size_t head = std::min<std::size_t>(2, img.size());
      std::partial_sort(img.begin(), img.begin() + head, img.end());
      if (!best.empty() && best[head - 1] < img[head - 1]) continue;
      std::sort(img.begin() + head, img.end());
      if (best.empty() || img < best) {
        best.swap(img);
        out.to_canonical = g;
      }
    }
    key += "|D";
  }
  for (const std::uint64_t c : best) {
    key += " ";
    append_num(&key, c >> 32);
    key += "-";
    append_num(&key, c & 0xffffffffu);
  }
  out.key = std::move(key);
  return out;
}

bool cacheable_demand(const CoverRequest& req) {
  return req.n >= 3 && demand_within_ring(req);
}

// Both maps compose covering::reflect_cover (v -> (n - v) % n) and
// covering::rotate_cover (v -> (v + s) % n) vertex by vertex, with the
// same arithmetic, so their images are the ones the two calls build.
void apply_element(covering::RingCover* cover, const DihedralElement& g) {
  const std::uint32_t n = cover->n;
  if (is_identity(g, n)) return;
  const std::uint32_t s = g.shift % n;
  relabel(cover, [n, s, r = g.reflect](covering::Vertex v) {
    if (r) v = (n - v) % n;
    return static_cast<covering::Vertex>((v + s) % n);
  });
}

void apply_inverse(covering::RingCover* cover, const DihedralElement& g) {
  const std::uint32_t n = cover->n;
  if (is_identity(g, n)) return;
  // g = rot_s . refl^r, so g^{-1} = refl^r . rot_{-s}.
  const std::uint32_t s = (n - g.shift % n) % n;
  relabel(cover, [n, s, r = g.reflect](covering::Vertex v) {
    v = (v + s) % n;
    return r ? static_cast<covering::Vertex>((n - v) % n) : v;
  });
}

CoverCache::CoverCache(std::size_t capacity, std::size_t shards)
    : capacity_(capacity == 0 ? 1 : capacity),
      shards_(std::clamp<std::size_t>(shards, 1, capacity_)) {
  // Split the capacity exactly: base slice everywhere, one extra entry in
  // the first capacity % shards shards.
  const std::size_t count = shards_.size();
  const std::size_t base = capacity_ / count;
  const std::size_t extra = capacity_ % count;
  for (std::size_t i = 0; i < count; ++i)
    shards_[i].capacity = base + (i < extra ? 1 : 0);
}

CoverCache::Shard& CoverCache::shard_for(const std::string& key) {
  return shards_[std::hash<std::string>{}(key) % shards_.size()];
}

std::optional<CoverResponse> CoverCache::lookup(const CoverRequest& req) {
  return lookup(canonical_request_key(req));
}

std::optional<CoverResponse> CoverCache::lookup(const CanonicalKey& ck) {
  Shard& shard = shard_for(ck.key);
  CoverResponse resp;
  {
    util::MutexLock lk(shard.mu);
    const auto it = shard.index.find(ck.key);
    if (it == shard.index.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // touch
    resp = it->second->resp;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  // Map the canonical-frame cover back into the request's own frame, in
  // the copy just taken.
  if (resp.found) apply_inverse(&resp.cover, ck.to_canonical);
  resp.cache_hit = true;
  resp.nodes = 0;  // nothing was searched
  resp.elapsed_ms = 0.0;
  return resp;
}

bool CoverCache::should_cache(const CoverResponse& resp) {
  if (!resp.ok) return false;  // genuine error: transient, retryable
  // Deadline casualties are never proofs: a timed-out search could
  // settle given more wall clock, and a degraded (greedy-fallback)
  // answer is found==true yet deliberately non-minimal — caching either
  // would pin a transient condition onto a permanent key. Shed responses
  // never reach the cache path at all.
  if (resp.timed_out || resp.degraded) return false;
  // ok && !found && !exhausted means the budget ran out before the search
  // settled the instance — a bigger budget (or luckier parallel schedule)
  // could still answer, so only exhausted negatives are proofs.
  return resp.found || resp.exhausted;
}

void CoverCache::insert(const CoverRequest& req, const CoverResponse& resp) {
  insert(canonical_request_key(req), resp);
}

void CoverCache::insert(const CanonicalKey& ck, const CoverResponse& resp) {
  if (!should_cache(resp)) return;
  // Fault-injection seam: a failed insert models memory pressure. The
  // cache is an accelerator, so "fail" means "silently drop" — callers
  // never depend on an insert landing.
  if (CCOV_FAILPOINT("cache_insert")) return;
  CoverResponse stored = resp;
  stored.cache_hit = false;
  // Store the cover in the canonical frame so every D_n-equivalent
  // request shares this one entry (relabelled in place; a K_n key's
  // identity frame leaves it as copied).
  if (stored.found) apply_element(&stored.cover, ck.to_canonical);
  store(ck.key, std::move(stored));
}

void CoverCache::store(const std::string& key, CoverResponse resp) {
  Shard& shard = shard_for(key);
  const std::uint64_t stamp =
      next_stamp_.fetch_add(1, std::memory_order_relaxed);
  bool evicted = false;
  {
    util::MutexLock lk(shard.mu);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->resp = std::move(resp);
      it->second->stamp = stamp;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
    shard.lru.push_front(Entry{key, std::move(resp), stamp});
    shard.index[key] = shard.lru.begin();
    if (shard.lru.size() > shard.capacity) {
      shard.index.erase(shard.lru.back().key);
      shard.lru.pop_back();
      evicted = true;
    }
  }
  if (evicted) evictions_.fetch_add(1, std::memory_order_relaxed);
}

void CoverCache::import_entry(const std::string& key, CoverResponse resp) {
  resp.cache_hit = false;
  store(key, std::move(resp));
}

CoverCache::Stats CoverCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  return s;
}

std::size_t CoverCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    util::MutexLock lk(shard.mu);
    total += shard.lru.size();
  }
  return total;
}

void CoverCache::clear() {
  for (Shard& shard : shards_) {
    util::MutexLock lk(shard.mu);
    shard.lru.clear();
    shard.index.clear();
  }
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
}

std::vector<std::pair<std::string, CoverResponse>> CoverCache::export_entries()
    const {
  std::vector<std::pair<std::string, CoverResponse>> out;
  out.reserve(size());
  for (const Shard& shard : shards_) {
    util::MutexLock lk(shard.mu);
    for (const Entry& e : shard.lru) out.emplace_back(e.key, e.resp);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

}  // namespace ccov::engine
