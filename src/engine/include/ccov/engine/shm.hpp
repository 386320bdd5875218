#pragma once
/// \file shm.hpp
/// Zero-copy shared-memory transport for co-located clients (POSIX
/// only, like net.hpp). `ccov serve --shm NAME` creates a shm_open'd
/// segment holding a handshake header plus two lock-free SPSC byte
/// rings (util::ShmByteRing): client -> server requests and server ->
/// client responses, both carrying the ordinary JSONL serve protocol.
/// The steady-state hot path is syscall-free and copy-once per side —
/// a request line is memcpy'd straight into the mapped ring and read
/// straight out of it, no socket, no kernel buffer.
///
/// Segment layout (see ShmSegmentHeader):
///
///   [header: magic/version/capacity handshake, client slot, flags]
///   [request ring  control + data]   client writes, server reads
///   [response ring control + data]   server writes, client reads
///
/// Connection model: one client at a time (the rings are SPSC). A
/// client claims the slot by CAS-ing its identity (pid plus a
/// start-time token, packed into one word so the claim is a single
/// atomic publish) from 0; the server runs one serve_session over the
/// rings, and when the session ends (client set client_eof and the
/// request ring drained, client vanished, or shutdown) it resets the
/// rings, bumps the epoch and re-opens the slot. Liveness probes pair
/// kill(pid, 0) with the process start time from /proc/<pid>/stat, so
/// a dead peer whose pid was recycled by an unrelated process is still
/// detected — a vanished client frees the slot instead of wedging the
/// server, and a client notices a crashed server even if its pid came
/// back; the epoch lets a stale client discover its session was torn
/// down. A second concurrent client fails its claim with "busy"
/// instead of corrupting the stream.
///
/// Shutdown mirrors net.hpp: ShmServer owns a net::ShutdownPipe and
/// exposes its wake_fd() for install_signal_shutdown; on shutdown it
/// raises the header flag, wakes both rings' futexes so a blocked peer
/// re-checks promptly, drains the session, unmaps and shm_unlink's the
/// segment.
///
/// Thread-safety discipline: this transport is deliberately lock-free —
/// the segment header's claim slot, flags and epoch are std::atomic
/// words in shared memory, and the rings are SPSC (see shm_ring.hpp).
/// There is no mutex to annotate, so unlike the lock-owning classes
/// (see util/thread_annotations.hpp) these types carry no capability
/// annotations; the invariants are per-word atomic protocols documented
/// at each member instead. Cross-process atomics are invisible to
/// Clang's thread-safety analysis by design.

#include <cstddef>
#include <cstdint>
#include <string>

#include "ccov/engine/net.hpp"
#include "ccov/engine/serve.hpp"
#include "ccov/util/shm_ring.hpp"

namespace ccov::engine::shm {

inline constexpr std::uint64_t kShmMagic = 0x31646873766f6363ULL;  // "ccovshd1"
inline constexpr std::uint32_t kShmVersion = 1;
/// client_slot sentinel held by the server while it rebuilds the rings
/// between sessions (pid 1 is never a transport client).
inline constexpr std::uint64_t kSlotResetting = 1;

/// Process start time (Linux: the starttime field of /proc/<pid>/stat,
/// in clock ticks since boot), or 0 when it cannot be determined —
/// non-Linux platforms, a vanished pid, an unreadable /proc. Paired
/// with the pid in every liveness probe so a recycled pid belonging to
/// an unrelated process is not mistaken for a live peer.
std::uint64_t proc_start_time(std::uint32_t pid);

/// Handshake + client slot at the front of the segment. Standard
/// layout; every mutable field is a lock-free atomic because the two
/// sides are different processes.
struct ShmSegmentHeader {
  /// kShmMagic, release-stored *last* by the server's init so a client
  /// attaching mid-construction rejects the segment instead of racing.
  std::atomic<std::uint64_t> magic;
  std::uint32_t version = 0;        ///< kShmVersion
  std::uint32_t ring_capacity = 0;  ///< data bytes per ring, power of two
  std::atomic<std::uint32_t> server_pid;
  /// proc_start_time of server_pid, written once before the magic is
  /// published. Clients fold it into their server-liveness probes so a
  /// recycled server pid reads as dead, not alive.
  std::uint64_t server_start = 0;
  /// The client slot: 0 = free, kSlotResetting while the server
  /// rebuilds the rings between sessions, otherwise the claimant's
  /// identity packed as (start-time token << 32) | pid — one word so
  /// pid and token publish atomically in the claiming CAS (a separate
  /// token field could be observed stale between the CAS and its
  /// store, reaping a live client). Claimed by exactly one client;
  /// cleared by a clean detach or by the server when the peer is gone.
  std::atomic<std::uint64_t> client_slot;
  /// Bumped by the server every time it resets the rings for a new
  /// session; a client that sees it change knows its session is over.
  std::atomic<std::uint32_t> epoch;
  /// Client sets after its last request byte: the server's read side
  /// treats "request ring empty + client_eof" as end-of-stream.
  std::atomic<std::uint32_t> client_eof;
  /// Server sets after the session's last response byte: the client's
  /// read side treats "response ring empty + server_eof" as EOF.
  std::atomic<std::uint32_t> server_eof;
  /// Server raises on teardown; both sides abandon blocking waits.
  std::atomic<std::uint32_t> shutdown;
};

/// Total segment size for a given per-ring capacity.
std::size_t segment_bytes(std::size_t ring_capacity);

/// Normalize a user-supplied segment name to the "/name" form POSIX
/// shm_open wants. Returns false on names that are empty, contain '/',
/// or exceed NAME_MAX.
bool normalize_shm_name(const std::string& name, std::string* out,
                        std::string* error);

/// `ccov serve --shm NAME`: the shared-memory front end. Creates the
/// segment in the constructor (throws std::runtime_error when the name
/// is taken by a *live* server; a stale segment left by a dead one is
/// recycled), serves one client session at a time until shutdown, then
/// unlinks the segment.
class ShmServer {
 public:
  /// Default data bytes per ring (`--shm-ring`).
  static constexpr std::size_t kDefaultRingBytes = 1 << 20;

  /// `name` is the POSIX shm segment name, with or without the leading
  /// '/'. `ring_bytes` is the data capacity of each of the two rings
  /// and must be a power of two >= 64 (std::runtime_error otherwise).
  /// Every client session runs serve_session with `config`.
  ShmServer(Engine& engine, ServeConfig config, const std::string& name,
            std::size_t ring_bytes = kDefaultRingBytes);
  ~ShmServer();

  ShmServer(const ShmServer&) = delete;
  ShmServer& operator=(const ShmServer&) = delete;

  /// The normalized segment name ("/name").
  const std::string& name() const { return name_; }

  /// Serve client sessions until shutdown() is called. Returns 0 on a
  /// clean shutdown.
  int run();

  /// Request shutdown from any thread. Safe to call more than once.
  void shutdown();

  /// Write end of the self-pipe — async-signal-safe shutdown channel
  /// for install_signal_shutdown.
  int wake_fd() const { return wake_.write_fd(); }

 private:
  bool shutdown_requested() const;
  void reset_session();

  Engine& engine_;
  ServeConfig config_;
  net::ShutdownPipe wake_;
  std::string name_;
  void* mem_ = nullptr;
  std::size_t size_ = 0;
  ShmSegmentHeader* header_ = nullptr;
  util::ShmByteRing request_ring_;
  util::ShmByteRing response_ring_;
  /// Segment fd, held open (with an exclusive flock) for the server's
  /// lifetime: the lock is how a second server distinguishes "live,
  /// possibly mid-constructor" from "stale" without a TOCTOU window.
  int shm_fd_ = -1;
  /// Identity of the inode we created — the destructor unlinks the
  /// name only while it still resolves to this segment, never a
  /// successor's.
  std::uint64_t shm_dev_ = 0;
  std::uint64_t shm_ino_ = 0;
};

/// Client side of the transport: attach to a served segment, claim the
/// slot, exchange JSONL lines. Not thread-safe (one session, one user);
/// send and receive may be driven from two threads like any SPSC pair.
class ShmClient {
 public:
  ShmClient() = default;
  ~ShmClient();

  ShmClient(const ShmClient&) = delete;
  ShmClient& operator=(const ShmClient&) = delete;

  /// Attach to segment `name` and claim the client slot. Returns false
  /// and sets *error on a missing segment, a bad magic/version/capacity
  /// handshake (torn or foreign segment), a segment smaller than its
  /// header claims, or a slot already held by a live client.
  bool connect(const std::string& name, std::string* error);

  bool connected() const { return header_ != nullptr; }

  /// True while the session is usable: server alive, not shutting
  /// down, epoch unchanged since the claim.
  bool ok() const;

  /// Send raw request bytes (the caller supplies the newline framing).
  /// Blocks on a full ring; returns false when the server shut down or
  /// tore the session down (epoch moved on). A caller that may fill
  /// *both* rings (batch larger than the response ring) must use
  /// try_send/wait_send and drain responses in between instead.
  bool send(const char* data, std::size_t n);
  bool send_line(const std::string& line);

  /// Nonblocking send: accepts up to `n` bytes, returns the number
  /// taken (0 when the ring is full — check ok() and drain responses).
  std::size_t try_send(const char* data, std::size_t n);

  /// Block until the request ring has space or ~timeout_ms elapsed.
  void wait_send(int timeout_ms);

  /// Declare end of requests: the server answers what it has and ends
  /// the session.
  void finish();

  /// Read one response line (without the trailing newline). Returns
  /// false on end-of-stream: the server finished the session (EOF),
  /// shut down, or reset the epoch.
  bool read_line(std::string* line);

  /// Nonblocking drain of whatever response bytes are ready right now;
  /// appends to *out and returns the number of bytes taken. Lets a
  /// pumping client interleave sends and receives without deadlocking
  /// on two full rings.
  std::size_t drain_available(std::string* out);

  /// Blocking drain into the caller's buffer: appends response bytes
  /// as they arrive and returns the number appended, or 0 at
  /// end-of-stream (server finished the session, died, shut down, or
  /// reset the epoch — distinguish via server_finished()). A pumping
  /// client that mixed drain_available with read_line would split a
  /// response line across two buffers; this keeps the whole session in
  /// one.
  std::size_t read_some(std::string* out);

  /// True once the server marked the response stream complete
  /// (server_eof): every owed byte has been published. False after an
  /// abort — server death, shutdown, epoch reset — where responses may
  /// be missing. Stable while connected: the server cannot recycle the
  /// session (which clears the flag) while this client holds the slot.
  bool server_finished() const;

  /// Release the slot and unmap. Idempotent.
  void close();

 private:
  bool session_over() const;

  void* mem_ = nullptr;
  std::size_t size_ = 0;
  ShmSegmentHeader* header_ = nullptr;
  util::ShmByteRing request_ring_;
  util::ShmByteRing response_ring_;
  std::uint32_t epoch_ = 0;
  std::uint64_t slot_ = 0;  ///< packed identity this client claimed with
  std::string rx_;  ///< bytes drained but not yet returned as lines
  std::string tx_;  ///< reused send_line staging buffer (line + '\n')
};

}  // namespace ccov::engine::shm
