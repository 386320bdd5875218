#include "ccov/engine/store.hpp"

#include "ccov/util/failpoint.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <system_error>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

namespace ccov::engine {

namespace {

// -- little-endian primitives ----------------------------------------------

void put_u8(std::ostream& os, std::uint8_t v) {
  os.put(static_cast<char>(v));
}

void put_u32(std::ostream& os, std::uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  os.write(b, 4);
}

void put_u64(std::ostream& os, std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  os.write(b, 8);
}

void put_string(std::ostream& os, const std::string& s) {
  if (s.size() > std::numeric_limits<std::uint32_t>::max())
    throw std::runtime_error("snapshot: string too long");
  put_u32(os, static_cast<std::uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

[[noreturn]] void truncated() {
  throw std::runtime_error("snapshot: truncated or corrupt stream");
}

std::uint8_t get_u8(std::istream& is) {
  const int c = is.get();
  if (c == std::char_traits<char>::eof()) truncated();
  return static_cast<std::uint8_t>(c);
}

std::uint32_t get_u32(std::istream& is) {
  char b[4];
  if (!is.read(b, 4)) truncated();
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(b[i])) << (8 * i);
  return v;
}

std::uint64_t get_u64(std::istream& is) {
  char b[8];
  if (!is.read(b, 8)) truncated();
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(b[i])) << (8 * i);
  return v;
}

/// Longest string (cache key, algorithm name, error message) accepted
/// from a snapshot. Real keys are tens of bytes; 16 MiB of headroom
/// keeps a corrupt or hostile length field (up to 4 GiB as a raw u32)
/// from sizing an allocation before a single payload byte is checked.
constexpr std::uint32_t kMaxStringBytes = 1u << 24;

std::string get_string(std::istream& is) {
  const std::uint32_t len = get_u32(is);
  if (len > kMaxStringBytes)
    throw std::runtime_error("snapshot: implausible string length");
  std::string s(len, '\0');
  if (len && !is.read(s.data(), static_cast<std::streamsize>(len))) truncated();
  return s;
}

// -- response encoding ------------------------------------------------------

constexpr std::uint8_t kFlagOk = 1u << 0;
constexpr std::uint8_t kFlagFound = 1u << 1;
constexpr std::uint8_t kFlagExhausted = 1u << 2;
constexpr std::uint8_t kFlagValidated = 1u << 3;
constexpr std::uint8_t kFlagValid = 1u << 4;

void put_response(std::ostream& os, const CoverResponse& resp) {
  std::uint8_t flags = 0;
  if (resp.ok) flags |= kFlagOk;
  if (resp.found) flags |= kFlagFound;
  if (resp.exhausted) flags |= kFlagExhausted;
  if (resp.validated) flags |= kFlagValidated;
  if (resp.valid) flags |= kFlagValid;
  put_u8(os, flags);
  put_string(os, resp.algorithm);
  put_string(os, resp.error);
  put_u32(os, resp.n);
  put_u64(os, resp.nodes);
  put_u32(os, resp.cover.n);
  if (resp.cover.cycles.size() > std::numeric_limits<std::uint32_t>::max())
    throw std::runtime_error("snapshot: cover too large");
  put_u32(os, static_cast<std::uint32_t>(resp.cover.cycles.size()));
  for (const covering::Cycle& c : resp.cover.cycles) {
    put_u32(os, static_cast<std::uint32_t>(c.size()));
    for (const covering::Vertex v : c) put_u32(os, v);
  }
}

// Sanity bounds for sizes read from an untrusted stream: every count is
// validated against these *before* any allocation sized by it, so a
// corrupt snapshot fails with a clean std::runtime_error instead of a
// multi-gigabyte reserve / std::bad_alloc.
constexpr std::uint32_t kMaxRingSize = 1u << 20;
constexpr std::uint32_t kMaxCyclesPerCover = 1u << 24;

CoverResponse get_response(std::istream& is) {
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
  // A within-bounds count can still be a lie about a tiny stream, and at
  // 16 bytes of vector header per cycle even kMaxCyclesPerCover reserves
  // ~400 MB up front. Trust the count only up to a modest read-ahead;
  // push_back growth covers an honest larger cover.
  resp.cover.cycles.reserve(std::min(cycles, 1u << 12));
  for (std::uint32_t i = 0; i < cycles; ++i) {
    const std::uint32_t len = get_u32(is);
    // A cycle never has more vertices than the (already sanity-checked)
    // ring size, and never fewer than 3.
    if (len > resp.cover.n || len < 3)
      throw std::runtime_error("snapshot: implausible cycle length");
    covering::Cycle c;
    c.reserve(len);
    for (std::uint32_t j = 0; j < len; ++j) c.push_back(get_u32(is));
    resp.cover.cycles.push_back(std::move(c));
  }
  return resp;
}

}  // namespace

void save_snapshot(std::ostream& os, const CoverCache& cache) {
  const auto entries = cache.export_entries();
  os.write(kSnapshotMagic, sizeof(kSnapshotMagic));
  put_u32(os, kSnapshotVersion);
  put_u64(os, entries.size());
  for (const auto& [key, resp] : entries) {
    put_string(os, key);
    put_response(os, resp);
  }
  if (!os) throw std::runtime_error("snapshot: write failed");
}

std::size_t load_snapshot(std::istream& is, CoverCache& cache) {
  char magic[sizeof(kSnapshotMagic)];
  if (!is.read(magic, sizeof(magic)) ||
      std::memcmp(magic, kSnapshotMagic, sizeof(magic)) != 0)
    throw std::runtime_error("snapshot: bad magic (not a ccov snapshot)");
  const std::uint32_t version = get_u32(is);
  if (version != kSnapshotVersion)
    throw std::runtime_error("snapshot: unsupported version " +
                             std::to_string(version));
  const std::uint64_t count = get_u64(is);
  // Decode the whole stream before touching the destination cache, so a
  // snapshot that turns out to be truncated or corrupt mid-way leaves
  // `cache` exactly as it was.
  std::vector<std::pair<std::string, CoverResponse>> entries;
  entries.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(count, 1u << 16)));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string key = get_string(is);
    CoverResponse resp = get_response(is);
    entries.emplace_back(std::move(key), std::move(resp));
  }
  for (auto& [key, resp] : entries)
    cache.import_entry(key, std::move(resp));
  return static_cast<std::size_t>(count);
}

namespace {

/// Flush the file's data to stable storage so the rename below never
/// publishes a snapshot whose bytes are still only in the page cache.
void sync_to_disk(const std::filesystem::path& p) {
  const int fd = ::open(p.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) throw std::runtime_error("snapshot: cannot reopen " +
                                       p.string() + " for fsync");
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0)
    throw std::runtime_error("snapshot: fsync of " + p.string() + " failed");
}

}  // namespace

void save_snapshot_file(const std::string& path, const CoverCache& cache) {
  namespace fs = std::filesystem;
  // Write-to-temp-then-rename: the temp file lives in the target's
  // directory so the final rename is an atomic same-filesystem replace.
  // A crash at any point leaves either the old snapshot or the new one —
  // never a truncated hybrid. The name is unique per process *and* per
  // save, so concurrent savers cannot trample each other's temp file.
  static std::atomic<std::uint64_t> save_seq{0};
  const fs::path target(path);
  fs::path dir = target.parent_path();
  if (dir.empty()) dir = ".";
  const long pid = static_cast<long>(::getpid());
  const fs::path tmp =
      dir / (target.filename().string() + ".tmp." + std::to_string(pid) + "." +
             std::to_string(save_seq.fetch_add(1, std::memory_order_relaxed)));
  try {
    // Fault-injection seams: each stage of the atomic save can be made
    // to throw (simulated ENOSPC/EIO). The catch below removes the temp
    // file, so an injected failure — like a real one — leaves the
    // previous snapshot untouched and no *.tmp.* debris behind.
    if (CCOV_FAILPOINT("snapshot_open"))
      throw std::runtime_error("snapshot: cannot open " + tmp.string() +
                               " for writing (injected)");
    {
      std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
      if (!os)
        throw std::runtime_error("snapshot: cannot open " + tmp.string() +
                                 " for writing");
      save_snapshot(os, cache);
      os.flush();
      if (CCOV_FAILPOINT("snapshot_write"))
        throw std::runtime_error("snapshot: write to " + tmp.string() +
                                 " failed (injected ENOSPC)");
      if (!os)
        throw std::runtime_error("snapshot: write to " + tmp.string() +
                                 " failed");
    }
    if (CCOV_FAILPOINT("snapshot_fsync"))
      throw std::runtime_error("snapshot: fsync of " + tmp.string() +
                               " failed (injected EIO)");
    sync_to_disk(tmp);
    if (CCOV_FAILPOINT("snapshot_rename"))
      throw std::runtime_error("snapshot: rename of " + tmp.string() +
                               " failed (injected)");
    fs::rename(tmp, target);
  } catch (...) {
    std::error_code ec;
    fs::remove(tmp, ec);
    throw;
  }
}

std::size_t load_snapshot_file(const std::string& path, CoverCache& cache) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("snapshot: cannot open " + path);
  return load_snapshot(is, cache);
}

std::uint64_t snapshot_entry_count_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("snapshot: cannot open " + path);
  char magic[sizeof(kSnapshotMagic)];
  if (!is.read(magic, sizeof(magic)) ||
      std::memcmp(magic, kSnapshotMagic, sizeof(magic)) != 0)
    throw std::runtime_error("snapshot: bad magic (not a ccov snapshot)");
  const std::uint32_t version = get_u32(is);
  if (version != kSnapshotVersion)
    throw std::runtime_error("snapshot: unsupported version " +
                             std::to_string(version));
  return get_u64(is);
}

}  // namespace ccov::engine
