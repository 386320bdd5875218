#pragma once
/// \file cache.hpp
/// Thread-safe, lock-striped LRU cache of CoverResponses keyed on
/// canonicalized requests. The ring's automorphism group D_n acts on
/// demand graphs; requests whose demands are rotations/reflections of each
/// other share one entry: the stored cover lives in the canonical frame
/// and is mapped back through the group element on every hit, in the
/// copy the hit hands out. All-to-all requests are
/// D_n-invariant, so their key is just the scalar request fields.
///
/// The cache is sharded: the key hash selects one of N independent
/// shards, each with its own mutex and LRU list, so concurrent lookups
/// do not serialize on a single lock. Aggregate hit/miss/eviction
/// counters are atomics updated outside the shard locks. The store can
/// be persisted to a binary snapshot and warm-started — see store.hpp.

#include <atomic>
#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ccov/engine/request.hpp"
#include "ccov/util/thread_annotations.hpp"

namespace ccov::engine {

/// The dihedral group element g(v) = rot_shift(refl^reflect(v)) mapping a
/// request's frame onto the canonical frame of its cache key.
struct DihedralElement {
  bool reflect = false;
  std::uint32_t shift = 0;
};

/// Canonical cache key for a request plus the group element that realizes
/// it. Exposed for tests; Engine users never need it directly.
struct CanonicalKey {
  std::string key;
  DihedralElement to_canonical;
};

/// Compute the canonical key: scalar fields, plus the lexicographically
/// least D_n-image of the demand chord multiset (empty demand = K_n, which
/// every group element fixes).
///
/// The least image starts with the chord (0, l), l the least ring
/// distance min(d, n - d) over the m chords. One O(m) pass finds l and
/// lists the k elements g = rot_s . refl^r that send some chord onto
/// (0, l); only their images are built and sorted, in one reused buffer,
/// so the cost is O(m) + k * m log m instead of 2n * m log m (an image
/// whose second-least chord already loses is not sorted). Ties go to
/// the first minimizer in (reflect, shift) order — the element a scan of
/// all 2n images with strict `<` would keep. A demand with a vertex >= n
/// is not on C_n: its key is the literal sorted chords under the
/// identity, tagged so it never equals a ring key, and it is never
/// cached (see cacheable_demand).
CanonicalKey canonical_request_key(const CoverRequest& req);

/// True iff `req` is a ring request D_n acts on: n >= 3 and every demand
/// vertex is < n. The engine looks up and caches only these.
bool cacheable_demand(const CoverRequest& req);

/// Apply `g` (respectively its inverse) to every vertex of a cover, in
/// place: one pass over the vertices, none when `g` fixes C_n.
void apply_element(covering::RingCover* cover, const DihedralElement& g);
void apply_inverse(covering::RingCover* cover, const DihedralElement& g);

class CoverCache {
 public:
  /// Shard count used when none is given. Small enough that tiny caches
  /// stay sensible (the count is clamped to the capacity), large enough
  /// that a serve loop's worker threads rarely contend on one stripe.
  static constexpr std::size_t kDefaultShards = 8;

  /// \p capacity total entries across all shards; least-recently-used
  /// eviction per shard beyond its slice. \p shards is clamped to
  /// [1, capacity]; the capacity is split exactly across shards (the
  /// first capacity % shards shards hold one extra entry). shards = 1
  /// gives a single strict-LRU list.
  explicit CoverCache(std::size_t capacity = 256,
                      std::size_t shards = kDefaultShards);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  /// Look up a response for `req`. On a hit the response is returned in
  /// the request's own frame with cache_hit = true and nodes = 0 (nothing
  /// was searched). On a miss returns nullopt and counts it.
  std::optional<CoverResponse> lookup(const CoverRequest& req);

  /// Store a completed response (its cover is kept in the canonical
  /// frame). Only deterministic outcomes are cached — see should_cache.
  void insert(const CoverRequest& req, const CoverResponse& resp);

  /// Overloads taking a precomputed key, so a miss-then-insert round trip
  /// canonicalizes the request only once (the Engine's hot path).
  std::optional<CoverResponse> lookup(const CanonicalKey& ck);
  void insert(const CanonicalKey& ck, const CoverResponse& resp);

  /// The caching policy: positive results (ok && found) and deterministic
  /// infeasibility proofs (ok && !found && exhausted — the search space
  /// was fully explored, so the answer can never change) are cached.
  /// Genuine errors (!ok), budget-starved non-answers (ok && !found &&
  /// !exhausted) and deadline casualties (timed_out, plus the degraded
  /// greedy-fallback answers — found==true yet deliberately non-minimal)
  /// are transient and stay uncached.
  static bool should_cache(const CoverResponse& resp);

  Stats stats() const;
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  std::size_t shard_count() const { return shards_.size(); }
  void clear();

  /// Every (key, canonical-frame response) pair, sorted by key — the
  /// deterministic entry order the snapshot writer relies on. LRU
  /// recency is not part of the export.
  std::vector<std::pair<std::string, CoverResponse>> export_entries() const;

  /// Insert one canonical-frame entry without touching the hit/miss
  /// counters (snapshot warm-start path). Entries beyond the target
  /// shard's slice evict its LRU tail as usual.
  void import_entry(const std::string& key, CoverResponse resp);

  /// Zero-copy hit probe: on a hit, touches LRU recency, counts the
  /// hit, and invokes `fn(entry, stamp)` with the cached canonical-frame
  /// entry while the shard lock is held (the reference dies with the
  /// call — don't stash it). `stamp` uniquely identifies the stored
  /// value: any store()/import for the key — even writing equal bytes —
  /// issues a fresh one, so anything derived from an entry can be
  /// revalidated with one integer compare.
  /// Returns true iff `fn` ran. A miss returns false *without* counting
  /// it, so a caller falling back to lookup()/Engine::run() still
  /// counts that miss exactly once.
  template <typename Fn>
  bool visit(const CanonicalKey& ck, Fn&& fn) {
    Shard& shard = shard_for(ck.key);
    util::MutexLock lk(shard.mu);
    const auto it = shard.index.find(ck.key);
    if (it == shard.index.end()) return false;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // touch
    hits_.fetch_add(1, std::memory_order_relaxed);
    fn(static_cast<const CoverResponse&>(it->second->resp),
       it->second->stamp);
    return true;
  }

 private:
  struct Entry {
    std::string key;
    CoverResponse resp;  ///< cover stored in the canonical frame
    std::uint64_t stamp = 0;  ///< unique per store — see visit()
  };

  struct Shard {
    /// Fixed at construction, read-only afterwards: not guarded.
    std::size_t capacity = 1;
    mutable util::Mutex mu;
    /// front = most recently used
    std::list<Entry> lru CCOV_GUARDED_BY(mu);
    std::unordered_map<std::string, std::list<Entry>::iterator> index
        CCOV_GUARDED_BY(mu);
  };

  Shard& shard_for(const std::string& key);
  /// Store `resp` (already in the canonical frame) under `key`.
  void store(const std::string& key, CoverResponse resp);

  std::size_t capacity_;
  std::vector<Shard> shards_;
  /// Source of Entry::stamp values; never reused, so a stamp compare is
  /// a sound freshness check for anything derived from an entry.
  std::atomic<std::uint64_t> next_stamp_{1};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace ccov::engine
