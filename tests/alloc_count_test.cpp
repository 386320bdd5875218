// Heap allocations of the engine's large-cover paths, counted by a
// replacement global operator new that only this test executable links.
// A cover is two flat arrays, so a construct miss allocates the same
// small number of blocks whatever n is, and a snapshot load allocates per
// entry, not per cycle.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>

#include "ccov/engine/cache.hpp"
#include "ccov/engine/engine.hpp"
#include "ccov/engine/store.hpp"
#include "churn_store.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (align <= alignof(std::max_align_t)) return std::malloc(size);
  return std::aligned_alloc(align, (size + align - 1) / align * align);
}

/// Allocations made while `fn` runs.
template <typename Fn>
std::uint64_t allocations_of(Fn&& fn) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size, alignof(std::max_align_t))) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_alloc(size, static_cast<std::size_t>(align))) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, alignof(std::max_align_t));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace eng = ccov::engine;

TEST(AllocCount, ConstructMissIsConstantInN) {
  // n = 49 has 300 cycles, n = 149 has 2,775: one miss through
  // Engine::run (key, construction, validation, cache insert, response)
  // allocates the same few blocks for both.
  std::uint64_t counts[2] = {};
  const std::uint32_t sizes[2] = {49, 149};
  for (int i = 0; i < 2; ++i) {
    eng::Engine engine;
    eng::CoverRequest req;
    req.algorithm = "construct";
    req.n = sizes[i];
    counts[i] = allocations_of([&] {
      const eng::CoverResponse resp = engine.run(req);
      ASSERT_TRUE(resp.valid);
      ASSERT_FALSE(resp.cache_hit);
    });
  }
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_LE(counts[1], 24u);
}

TEST(AllocCount, SnapshotLoadIsPerEntryNotPerCycle) {
  // The churn-shaped store: 640 entries, about 250k cycles.
  const std::string bytes = eng::fixtures::churn_store_bytes();
  eng::CoverCache cache(1024, 1);
  std::istringstream in(bytes);
  std::size_t entries = 0;
  const std::uint64_t count =
      allocations_of([&] { entries = eng::load_snapshot(in, cache); });
  ASSERT_EQ(entries, 640u);
  EXPECT_LE(count, 8 * entries + 64) << count << " allocations";
}
