#pragma once
/// \file reference_store.hpp
/// Snapshot loading as the library did it before it decoded through a
/// bounded chunk buffer: one istream::read or istream::get per field,
/// each cycle read on its own. ccov::engine::load_snapshot must accept
/// and reject exactly the streams this accepts and rejects, with the
/// same error text, and decode the same entries; the Snapshot tests in
/// engine_test.cpp and the fuzz_snapshot harness compare against it.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <istream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ccov/engine/cache.hpp"
#include "ccov/engine/store.hpp"

namespace ccov::engine::reference {

namespace store_detail {

[[noreturn]] inline void truncated() {
  throw std::runtime_error("snapshot: truncated or corrupt stream");
}

inline std::uint8_t get_u8(std::istream& is) {
  const int c = is.get();
  if (c == std::char_traits<char>::eof()) truncated();
  return static_cast<std::uint8_t>(c);
}

inline std::uint32_t get_u32(std::istream& is) {
  char b[4];
  if (!is.read(b, 4)) truncated();
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(b[i])) << (8 * i);
  return v;
}

inline std::uint64_t get_u64(std::istream& is) {
  char b[8];
  if (!is.read(b, 8)) truncated();
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(b[i])) << (8 * i);
  return v;
}

constexpr std::uint32_t kMaxStringBytes = 1u << 24;

inline std::string get_string(std::istream& is) {
  const std::uint32_t len = get_u32(is);
  if (len > kMaxStringBytes)
    throw std::runtime_error("snapshot: implausible string length");
  std::string s(len, '\0');
  if (len && !is.read(s.data(), static_cast<std::streamsize>(len))) truncated();
  return s;
}

constexpr std::uint8_t kFlagOk = 1u << 0;
constexpr std::uint8_t kFlagFound = 1u << 1;
constexpr std::uint8_t kFlagExhausted = 1u << 2;
constexpr std::uint8_t kFlagValidated = 1u << 3;
constexpr std::uint8_t kFlagValid = 1u << 4;

constexpr std::uint32_t kMaxRingSize = 1u << 20;
constexpr std::uint32_t kMaxCyclesPerCover = 1u << 24;

inline CoverResponse get_response(std::istream& is) {
  CoverResponse resp;
  const std::uint8_t flags = get_u8(is);
  resp.ok = flags & kFlagOk;
  resp.found = flags & kFlagFound;
  resp.exhausted = flags & kFlagExhausted;
  resp.validated = flags & kFlagValidated;
  resp.valid = flags & kFlagValid;
  resp.algorithm = get_string(is);
  resp.error = get_string(is);
  resp.n = get_u32(is);
  resp.nodes = get_u64(is);
  resp.cover.n = get_u32(is);
  if (resp.n > kMaxRingSize || resp.cover.n > kMaxRingSize)
    throw std::runtime_error("snapshot: implausible ring size");
  const std::uint32_t cycles = get_u32(is);
  if (cycles > kMaxCyclesPerCover)
    throw std::runtime_error("snapshot: implausible cycle count");
  resp.cover.offsets.reserve(std::min(cycles, 1u << 12));
  for (std::uint32_t i = 0; i < cycles; ++i) {
    const std::uint32_t len = get_u32(is);
    if (len > resp.cover.n || len < 3)
      throw std::runtime_error("snapshot: implausible cycle length");
    covering::Cycle c;
    c.reserve(len);
    for (std::uint32_t j = 0; j < len; ++j) c.push_back(get_u32(is));
    resp.cover.add(c);
  }
  return resp;
}

}  // namespace store_detail

/// Every entry of the snapshot on `is`, in file order; throws
/// std::runtime_error where the library's loader must throw.
inline std::vector<std::pair<std::string, CoverResponse>> decode_snapshot(
    std::istream& is) {
  using namespace store_detail;
  char magic[sizeof(kSnapshotMagic)];
  if (!is.read(magic, sizeof(magic)) ||
      std::memcmp(magic, kSnapshotMagic, sizeof(magic)) != 0)
    throw std::runtime_error("snapshot: bad magic (not a ccov snapshot)");
  const std::uint32_t version = get_u32(is);
  if (version != kSnapshotVersion)
    throw std::runtime_error("snapshot: unsupported version " +
                             std::to_string(version));
  const std::uint64_t count = get_u64(is);
  std::vector<std::pair<std::string, CoverResponse>> entries;
  entries.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(count, 1u << 16)));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string key = get_string(is);
    CoverResponse resp = get_response(is);
    entries.emplace_back(std::move(key), std::move(resp));
  }
  return entries;
}

/// load_snapshot on the reference decoder: decode everything, then
/// import in file order.
inline std::size_t load_snapshot(std::istream& is, CoverCache& cache) {
  auto entries = decode_snapshot(is);
  for (auto& [key, resp] : entries) cache.import_entry(key, std::move(resp));
  return entries.size();
}

/// Equality of every field a snapshot stores.
inline bool same_stored(const CoverResponse& a, const CoverResponse& b) {
  return a.ok == b.ok && a.found == b.found && a.exhausted == b.exhausted &&
         a.validated == b.validated && a.valid == b.valid &&
         a.algorithm == b.algorithm && a.error == b.error && a.n == b.n &&
         a.nodes == b.nodes && a.cover == b.cover;
}

/// Load `bytes` with ccov::engine::load_snapshot and with the reference,
/// each into a fresh cache large enough to keep every entry. True when
/// both reject with the same error text, or both accept, count the same
/// entries and leave equal ones behind.
inline bool loads_agree(const std::string& bytes) {
  struct Outcome {
    std::size_t count = 0;
    std::string error;
    std::vector<std::pair<std::string, CoverResponse>> entries;
  };
  const auto run = [&](auto load) {
    Outcome out;
    CoverCache cache(1u << 16, 1);
    std::istringstream is(bytes);
    try {
      out.count = load(is, cache);
    } catch (const std::runtime_error& e) {
      out.error = e.what();
    }
    out.entries = cache.export_entries();
    return out;
  };
  const Outcome got = run([](std::istream& is, CoverCache& cache) {
    return engine::load_snapshot(is, cache);
  });
  const Outcome want = run([](std::istream& is, CoverCache& cache) {
    return reference::load_snapshot(is, cache);
  });
  if (got.count != want.count || got.error != want.error ||
      got.entries.size() != want.entries.size())
    return false;
  for (std::size_t i = 0; i < got.entries.size(); ++i)
    if (got.entries[i].first != want.entries[i].first ||
        !same_stored(got.entries[i].second, want.entries[i].second))
      return false;
  return true;
}

}  // namespace ccov::engine::reference
