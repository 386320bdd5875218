#include "ccov/engine/store.hpp"

#include "ccov/util/failpoint.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
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

/// Bytes pulled from the streambuf per call on load: the decoder holds one
/// such chunk, never the whole file. Save writes one entry at a time.
constexpr std::size_t kChunkBytes = std::size_t{1} << 16;

void put_u32(std::string& out, std::uint32_t v) {
  const char b[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
                     static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
  out.append(b, 4);
}

void put_u64(std::string& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

void put_string(std::string& out, const std::string& s) {
  if (s.size() > std::numeric_limits<std::uint32_t>::max())
    throw std::runtime_error("snapshot: string too long");
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out += s;
}

[[noreturn]] void truncated() {
  throw std::runtime_error("snapshot: truncated or corrupt stream");
}

/// Decodes fields out of kChunkBytes pulled at a time from `is`'s
/// streambuf, so it reads ahead of the snapshot's end.
class Decoder {
 public:
  /// Scratch a cover is decoded into, then copied out at its exact size:
  /// two allocations per cover, none sized by a count the stream claims.
  std::vector<covering::Vertex> verts;
  std::vector<std::uint32_t> offsets;

  explicit Decoder(std::istream& is)
      : sb_(is.good() ? is.rdbuf() : nullptr), buf_(kChunkBytes) {}

  /// Copy exactly `len` bytes to `out`; false when the stream ends first.
  bool read(char* out, std::size_t len) {
    while (end_ - pos_ < len) {  // take what is left, then the next chunk
      std::memcpy(out, buf_.data() + pos_, end_ - pos_);
      out += end_ - pos_;
      len -= end_ - pos_;
      const std::streamsize got =
          sb_ == nullptr ? 0 : sb_->sgetn(buf_.data(), kChunkBytes);
      pos_ = 0;
      end_ = got > 0 ? static_cast<std::size_t>(got) : 0;
      if (end_ == 0) return false;
    }
    std::memcpy(out, buf_.data() + pos_, len);
    pos_ += len;
    return true;
  }
  std::uint32_t u32() {
    unsigned char b[4];
    if (end_ - pos_ >= 4) {  // the common case, straight from the chunk
      std::memcpy(b, buf_.data() + pos_, 4);
      pos_ += 4;
    } else if (!read(reinterpret_cast<char*>(b), 4)) {
      truncated();
    }
    return std::uint32_t{b[0]} | std::uint32_t{b[1]} << 8 |
           std::uint32_t{b[2]} << 16 | std::uint32_t{b[3]} << 24;
  }
  std::uint64_t u64() {
    const std::uint64_t lo = u32();
    return lo | std::uint64_t{u32()} << 32;
  }

 private:
  std::streambuf* sb_;
  std::vector<char> buf_;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
};

/// Longest string (cache key, algorithm name, error message) accepted
/// from a snapshot. Real keys are tens of bytes; 16 MiB of headroom
/// keeps a corrupt or hostile length field (up to 4 GiB as a raw u32)
/// from sizing an allocation before a single payload byte is checked.
constexpr std::uint32_t kMaxStringBytes = 1u << 24;

std::string get_string(Decoder& in) {
  const std::uint32_t len = in.u32();
  if (len > kMaxStringBytes)
    throw std::runtime_error("snapshot: implausible string length");
  std::string s(len, '\0');
  if (len && !in.read(s.data(), len)) truncated();
  return s;
}

// -- response encoding ------------------------------------------------------

/// The flags byte: bit i holds the i-th of these fields.
constexpr bool CoverResponse::*kFlags[] = {
    &CoverResponse::ok, &CoverResponse::found, &CoverResponse::exhausted,
    &CoverResponse::validated, &CoverResponse::valid};

void put_response(std::string& out, const CoverResponse& resp) {
  unsigned flags = 0;
  for (unsigned i = 0; i < std::size(kFlags); ++i)
    flags |= unsigned{resp.*kFlags[i]} << i;
  out += static_cast<char>(flags);
  put_string(out, resp.algorithm);
  put_string(out, resp.error);
  put_u32(out, resp.n);
  put_u64(out, resp.nodes);
  const covering::RingCover& cover = resp.cover;
  put_u32(out, cover.n);
  if (cover.size() > std::numeric_limits<std::uint32_t>::max())
    throw std::runtime_error("snapshot: cover too large");
  put_u32(out, static_cast<std::uint32_t>(cover.size()));
  std::uint32_t v = 0;
  for (const std::uint32_t end : cover.offsets) {
    put_u32(out, end - v);
    for (; v < end; ++v) put_u32(out, cover.verts[v]);
  }
}

// Sanity bounds for sizes read from an untrusted stream: every count is
// validated against these *before* any allocation sized by it, so a
// corrupt snapshot fails with a clean std::runtime_error instead of a
// multi-gigabyte reserve / std::bad_alloc.
constexpr std::uint32_t kMaxRingSize = 1u << 20;
constexpr std::uint32_t kMaxCyclesPerCover = 1u << 24;

CoverResponse get_response(Decoder& in) {
  CoverResponse resp;
  char flags = 0;
  if (!in.read(&flags, 1)) truncated();
  for (unsigned i = 0; i < std::size(kFlags); ++i)
    resp.*kFlags[i] = (static_cast<unsigned char>(flags) >> i) & 1;
  resp.algorithm = get_string(in);
  resp.error = get_string(in);
  resp.n = in.u32();
  resp.nodes = in.u64();
  resp.cover.n = in.u32();
  if (resp.n > kMaxRingSize || resp.cover.n > kMaxRingSize)
    throw std::runtime_error("snapshot: implausible ring size");
  const std::uint32_t cycles = in.u32();
  if (cycles > kMaxCyclesPerCover)
    throw std::runtime_error("snapshot: implausible cycle count");
  in.verts.clear();
  in.offsets.clear();
  for (std::uint32_t i = 0; i < cycles; ++i) {
    const std::uint32_t len = in.u32();
    // A cycle never has more vertices than the (already sanity-checked)
    // ring size, and never fewer than 3.
    if (len > resp.cover.n || len < 3)
      throw std::runtime_error("snapshot: implausible cycle length");
    if (in.verts.size() + len > std::numeric_limits<std::uint32_t>::max())
      throw std::runtime_error("snapshot: cover too large");  // u32 offsets
    for (std::uint32_t j = 0; j < len; ++j) in.verts.push_back(in.u32());
    in.offsets.push_back(static_cast<std::uint32_t>(in.verts.size()));
  }
  resp.cover.verts = in.verts;
  resp.cover.offsets = in.offsets;
  return resp;
}

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

/// Magic, version and entry count; throws on a bad magic or version.
std::uint64_t read_header(Decoder& in) {
  char magic[sizeof(kSnapshotMagic)];
  if (!in.read(magic, sizeof(magic)) ||
      std::memcmp(magic, kSnapshotMagic, sizeof(magic)) != 0)
    throw std::runtime_error("snapshot: bad magic (not a ccov snapshot)");
  const std::uint32_t version = in.u32();
  if (version != kSnapshotVersion)
    throw std::runtime_error("snapshot: unsupported version " +
                             std::to_string(version));
  return in.u64();
}

}  // namespace

void save_snapshot(std::ostream& os, const CoverCache& cache) {
  const auto entries = cache.export_entries();
  std::string buf(kSnapshotMagic, sizeof(kSnapshotMagic));
  put_u32(buf, kSnapshotVersion);
  put_u64(buf, entries.size());
  for (const auto& [key, resp] : entries) {
    put_string(buf, key);
    put_response(buf, resp);
    os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    buf.clear();
  }
  os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  if (!os) throw std::runtime_error("snapshot: write failed");
}

std::size_t load_snapshot(std::istream& is, CoverCache& cache) {
  Decoder in(is);
  const std::uint64_t count = read_header(in);
  // Decode the whole stream before touching the destination cache, so a
  // snapshot that turns out to be truncated or corrupt mid-way leaves
  // `cache` exactly as it was.
  std::vector<std::pair<std::string, CoverResponse>> entries;
  entries.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(count, 1u << 16)));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string key = get_string(in);
    entries.emplace_back(std::move(key), get_response(in));
  }
  for (auto& [key, resp] : entries)
    cache.import_entry(key, std::move(resp));
  return static_cast<std::size_t>(count);
}

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
    // Failpoint seams (store.hpp): the catch below removes the temp file,
    // so an injected failure, like a real one, leaves no debris behind.
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
  Decoder in(is);
  return read_header(in);
}

}  // namespace ccov::engine
