#pragma once
/// \file store.hpp
/// Binary snapshot persistence for the CoverCache — the "cover store".
/// A snapshot is a versioned, little-endian dump of every (canonical key,
/// canonical-frame response) pair, sorted by key, so saving a freshly
/// loaded store reproduces the file byte for byte. Sweeps and the serve
/// loop use it to warm-start across process runs (`--cache-file`).
///
/// Layout (all integers little-endian, strings length-prefixed u32):
///
///   magic   8 bytes  "CCOVSNAP"
///   version u32      kSnapshotVersion
///   count   u64      number of entries
///   entry*  count times:
///     key        string
///     flags      u8   bit0 ok, bit1 found, bit2 exhausted,
///                     bit3 validated, bit4 valid
///     algorithm  string
///     error      string
///     n          u32
///     nodes      u64
///     cover.n    u32
///     cycles     u32, then per cycle: u32 length + that many u32 vertices
///
/// Timing and cache_hit are deliberately not stored: they are not
/// reproducible fields (lookup zeroes them on every hit anyway). Covers
/// are written from and read into RingCover's two flat arrays; loading
/// pulls 64 KiB chunks from the streambuf, never the whole file.

#include <cstdint>
#include <iosfwd>
#include <string>

#include "ccov/engine/cache.hpp"

namespace ccov::engine {

inline constexpr char kSnapshotMagic[8] = {'C', 'C', 'O', 'V',
                                           'S', 'N', 'A', 'P'};
inline constexpr std::uint32_t kSnapshotVersion = 1;

/// Write every cache entry to `os` (binary). Deterministic: entries are
/// sorted by key, so two saves of equal stores are byte-identical.
void save_snapshot(std::ostream& os, const CoverCache& cache);

/// Read a snapshot from `is` (binary) and import every entry into
/// `cache` (existing entries are kept; equal keys are overwritten).
/// Returns the number of entries imported. Throws std::runtime_error on
/// a bad magic, unknown version or truncated stream, leaving `cache` as
/// it was. Reads ahead: bytes after the snapshot are consumed too.
std::size_t load_snapshot(std::istream& is, CoverCache& cache);

/// File wrappers. save_snapshot_file is *atomic*: the snapshot is
/// written to a unique temp file in the target's directory and renamed
/// over `path` only after the write fully succeeded, so a crash, kill or
/// ENOSPC mid-save can never leave a corrupt snapshot where a good one
/// was. It throws std::runtime_error when the file cannot be opened or
/// written (the previous snapshot, if any, is left untouched);
/// load_snapshot_file additionally throws on a corrupt snapshot.
void save_snapshot_file(const std::string& path, const CoverCache& cache);
std::size_t load_snapshot_file(const std::string& path, CoverCache& cache);

/// Entry count from a snapshot's header alone (no entry decoding) — used
/// to size a cache large enough to hold the whole store before loading,
/// so warm starts never silently evict persisted entries. Throws
/// std::runtime_error on a missing file, bad magic or unknown version.
std::uint64_t snapshot_entry_count_file(const std::string& path);

// Failpoints (ccov/util/failpoint.hpp) "snapshot_open", "snapshot_write",
// "snapshot_fsync" and "snapshot_rename" throw from the matching stage of
// save_snapshot_file (simulated ENOSPC/EIO); the previous snapshot
// survives and the temp file is removed.

}  // namespace ccov::engine
