#include "ccov/engine/shm.hpp"

#include "ccov/engine/net.hpp"
#include "ccov/util/failpoint.hpp"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace ccov::engine::shm {

namespace {

/// Header block padded out to its own cache lines so the rings behind
/// it start cache-line aligned.
constexpr std::size_t kHeaderBytes =
    (sizeof(ShmSegmentHeader) + 63) / 64 * 64;

}  // namespace

std::size_t segment_bytes(std::size_t ring_capacity) {
  return kHeaderBytes + 2 * util::ShmByteRing::region_bytes(ring_capacity);
}

bool normalize_shm_name(const std::string& name, std::string* out,
                        std::string* error) {
  std::string body = name;
  if (!body.empty() && body.front() == '/') body.erase(0, 1);
  if (body.empty()) {
    *error = "shm name must not be empty";
    return false;
  }
  if (body.size() > 200) {
    *error = "shm name too long";
    return false;
  }
  if (body.find('/') != std::string::npos) {
    *error = "shm name must not contain '/'";
    return false;
  }
  *out = "/" + body;
  error->clear();
  return true;
}

std::uint64_t proc_start_time(std::uint32_t pid) {
#ifdef __linux__
  // Field 22 of /proc/<pid>/stat (starttime, clock ticks since boot).
  // comm (field 2) may itself contain spaces and parentheses, so the
  // field scan starts from the *last* ')'.
  char path[48];
  std::snprintf(path, sizeof path, "/proc/%u/stat", pid);
  std::FILE* f = std::fopen(path, "r");
  if (!f) return 0;
  char buf[1024];
  const std::size_t n = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  const char* p = std::strrchr(buf, ')');
  if (!p) return 0;
  ++p;  // at " S ppid pgrp ..." — state is field 3
  for (int field = 2; *p != '\0' && field < 22;) {
    while (*p == ' ') ++p;
    if (++field == 22) {
      char* end = nullptr;
      const std::uint64_t value = std::strtoull(p, &end, 10);
      return end == p ? 0 : value;
    }
    while (*p != '\0' && *p != ' ') ++p;
  }
  return 0;
#else
  (void)pid;
  return 0;
#endif
}

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error("shm: " + what + ": " + std::strerror(errno));
}

/// Poll interval for the blocking ring waits: long enough to stay off
/// the CPU, short enough that shutdown and peer-death checks feel
/// immediate. The steady-state hot path never reaches these waits.
constexpr int kWaitMs = 50;
/// Ring-wait timeouts between liveness probes of the peer pid (about
/// one kill(pid, 0) per second of idle blocking).
constexpr int kProbeEvery = 20;

bool pid_alive(std::uint32_t pid) {
  if (pid == 0) return false;
  return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno != ESRCH;
}

/// 32-bit fold of a start time, for packing next to a pid.
std::uint32_t start_token(std::uint64_t start) {
  return static_cast<std::uint32_t>(start ^ (start >> 32));
}

std::uint32_t slot_pid(std::uint64_t slot) {
  return static_cast<std::uint32_t>(slot);
}

std::uint64_t pack_slot(std::uint32_t pid, std::uint64_t start) {
  return (static_cast<std::uint64_t>(start_token(start)) << 32) | pid;
}

/// pid liveness hardened against pid reuse: when both the recorded
/// token and the pid's current start time are knowable they must
/// agree, so an unrelated process that recycled a dead peer's pid
/// reads as dead. Either side unknown (token 0, /proc unavailable)
/// falls back to the plain pid probe.
bool peer_alive(std::uint32_t pid, std::uint32_t token) {
  if (!pid_alive(pid)) return false;
  if (token == 0) return true;
  const std::uint64_t now = proc_start_time(pid);
  if (now == 0) return true;
  return start_token(now) == token;
}

bool slot_alive(std::uint64_t slot) {
  return peer_alive(slot_pid(slot), static_cast<std::uint32_t>(slot >> 32));
}

bool server_alive(const ShmSegmentHeader* header) {
  return peer_alive(header->server_pid.load(std::memory_order_acquire),
                    start_token(header->server_start));
}

/// Does `name` still resolve to the shm inode identified by dev/ino?
/// Guards every unlink: the name may have been recycled by a successor
/// since this server (or prober) last looked.
bool name_resolves_to(const std::string& name, std::uint64_t dev,
                      std::uint64_t ino) {
  const int fd = ::shm_open(name.c_str(), O_RDONLY, 0600);
  if (fd < 0) return false;
  struct stat st{};
  const bool same = ::fstat(fd, &st) == 0 &&
                    static_cast<std::uint64_t>(st.st_dev) == dev &&
                    static_cast<std::uint64_t>(st.st_ino) == ino;
  ::close(fd);
  return same;
}

/// Grace ticks (20 ms apart) a zero-magic segment gets before it is
/// declared stale: a live creator publishes its magic within
/// microseconds of creating the file, so only a creator that died
/// mid-constructor ever exhausts this.
constexpr int kStaleGraceTicks = 10;

/// The EEXIST path of server construction: decide whether the existing
/// segment is a leftover from a dead server and, if so, unlink it.
/// Throws when a live server owns the name. On return (stale segment
/// removed, or the name vanished underneath us) the caller retries its
/// O_EXCL create.
void recycle_stale_segment(const std::string& name) {
  const int old = ::shm_open(name.c_str(), O_RDWR, 0600);
  if (old < 0) {
    if (errno == ENOENT) return;  // owner just unlinked; create afresh
    throw_errno("shm_open '" + name + "'");
  }
  // A live server holds LOCK_EX on its segment fd from birth to death,
  // so a failed nonblocking flock is proof of life — even for an owner
  // still mid-constructor whose magic is not yet published.
  if (::flock(old, LOCK_EX | LOCK_NB) != 0) {
    ::close(old);
    throw std::runtime_error("shm: segment '" + name +
                             "' is already being served");
  }
  struct stat self{};
  if (::fstat(old, &self) != 0 ||
      !name_resolves_to(name, static_cast<std::uint64_t>(self.st_dev),
                        static_cast<std::uint64_t>(self.st_ino))) {
    ::close(old);  // the name moved on while we were opening; retry
    return;
  }
  // Probe the header while holding the lock. A zero magic is re-read
  // across a short grace window before it is declared stale, so a
  // creator caught in its create-to-flock gap is never judged by a
  // probe that landed microseconds early.
  bool alive = false;
  bool initialized = false;
  for (int tick = 0; tick < kStaleGraceTicks && !initialized; ++tick) {
    if (tick > 0) {
      const timespec ts{0, 20 * 1000 * 1000};
      ::nanosleep(&ts, nullptr);
    }
    struct stat st{};
    if (::fstat(old, &st) != 0 ||
        st.st_size < static_cast<off_t>(sizeof(ShmSegmentHeader)))
      continue;  // creator has not ftruncated yet (or never did)
    void* peek = ::mmap(nullptr, sizeof(ShmSegmentHeader),
                        PROT_READ | PROT_WRITE, MAP_SHARED, old, 0);
    if (peek == MAP_FAILED) continue;
    auto* h = static_cast<ShmSegmentHeader*>(peek);
    if (h->magic.load(std::memory_order_acquire) == kShmMagic) {
      initialized = true;
      alive = server_alive(h);
    }
    ::munmap(peek, sizeof(ShmSegmentHeader));
  }
  if (alive) {
    ::close(old);
    throw std::runtime_error("shm: segment '" + name +
                             "' is already being served");
  }
  // Owner provably dead, or the magic never appeared across the grace
  // window (a creator died mid-constructor — a live one would also
  // have failed the flock above). Unlink while still holding the lock
  // so no concurrent prober recycles the same name twice.
  ::shm_unlink(name.c_str());
  ::close(old);
}

/// ServeStream over the two rings, server side: reads requests the
/// client produced, writes responses for it to consume. Tolerates the
/// session's one-reader-plus-one-writer threading (different rings,
/// each SPSC with this side holding exactly one role).
class ShmServerStream final : public ServeStream {
 public:
  ShmServerStream(ShmSegmentHeader* header, util::ShmByteRing request_ring,
                  util::ShmByteRing response_ring,
                  std::function<bool()> shutdown_requested, Counter& vanished)
      : header_(header),
        req_(request_ring),
        resp_(response_ring),
        shutdown_requested_(std::move(shutdown_requested)),
        vanished_(vanished) {}

  std::ptrdiff_t read_some(char* buf, std::size_t n) override {
    // Fault-injection seam: a failed ring read looks like the client
    // detaching (end of stream), the same way a vanished peer surfaces.
    if (CCOV_FAILPOINT("shm_read")) return 0;
    int idle = 0;
    for (;;) {
      const std::size_t r = req_.try_read(buf, n);
      if (r > 0) return static_cast<std::ptrdiff_t>(r);
      // The client publishes its last bytes *before* raising eof, so
      // one more read after observing the flag cannot miss data.
      if (header_->client_eof.load(std::memory_order_acquire) != 0) {
        const std::size_t last = req_.try_read(buf, n);
        return static_cast<std::ptrdiff_t>(last);
      }
      // Cheap in-segment flag every pass; the poll(2)-backed callback
      // (self-pipe promotion) only when a wait actually timed out, so a
      // busy session pays zero shutdown syscalls per round trip.
      if (header_->shutdown.load(std::memory_order_acquire) != 0) return 0;
      const std::uint64_t slot =
          header_->client_slot.load(std::memory_order_acquire);
      if (slot == 0) return 0;  // client detached without eof: end of stream
      if (++idle >= kProbeEvery) {
        idle = 0;
        if (!slot_alive(slot)) {
          // The client vanished mid-session: end the stream so the
          // session winds down and the server frees the slot, instead
          // of wedging in this read forever.
          vanished_.add(1);
          return 0;
        }
      }
      if (!req_.wait_readable(kWaitMs) && shutdown_requested_()) return 0;
    }
  }

  bool write_all(const char* data, std::size_t n) override {
    // Fault-injection seam: a failed ring write is a client that
    // stopped draining; only this session tears down.
    if (CCOV_FAILPOINT("shm_write")) return false;
    std::size_t off = 0;
    int idle = 0;
    int grace_ms = -1;  // bounded only once shutdown was observed
    while (off < n) {
      const std::size_t w = resp_.try_write(data + off, n - off);
      if (w > 0) {
        off += w;
        idle = 0;
        continue;
      }
      const std::uint64_t slot =
          header_->client_slot.load(std::memory_order_acquire);
      if (slot == 0) return false;  // nobody left to read these bytes
      if (++idle >= kProbeEvery) {
        idle = 0;
        if (!slot_alive(slot)) {
          vanished_.add(1);
          return false;
        }
      }
      if (!resp_.wait_writable(kWaitMs) && shutdown_requested_()) {
        // Responses already owed still get written, but a client that
        // stopped draining cannot hang the shutdown forever. Each pass
        // through here burned a full kWaitMs timeout.
        if (grace_ms < 0) grace_ms = net::SocketStream::kShutdownWriteGraceMs;
        if (grace_ms == 0) return false;
        grace_ms -= std::min(grace_ms, kWaitMs);
      }
    }
    return true;
  }

 private:
  ShmSegmentHeader* header_;
  util::ShmByteRing req_;
  util::ShmByteRing resp_;
  std::function<bool()> shutdown_requested_;
  Counter& vanished_;
};

}  // namespace

// ---------------------------------------------------------------------------
// ShmServer
// ---------------------------------------------------------------------------

ShmServer::ShmServer(Engine& engine, ServeConfig config,
                     const std::string& name, std::size_t ring_bytes)
    : engine_(engine), config_(std::move(config)) {
  std::string err;
  if (!normalize_shm_name(name, &name_, &err))
    throw std::runtime_error("shm: " + err);
  if (!util::ShmByteRing::valid_capacity(ring_bytes))
    throw std::runtime_error(
        "shm: ring capacity must be a power of two >= 64 bytes");
  size_ = segment_bytes(ring_bytes);

  // Creation races other servers through an exclusive flock held on
  // the segment fd for this server's whole lifetime: a prober that
  // cannot take the lock knows the owner is alive even mid-constructor
  // (before the magic exists), a prober that can take it re-checks the
  // magic across a grace window before unlinking (and unlinks while
  // still holding the lock), and after creating we verify the name
  // still resolves to our inode — a concurrent prober may have judged
  // the freshly created, still-empty segment stale in the tiny gap
  // between our shm_open and our flock.
  int fd = -1;
  for (int attempt = 0;; ++attempt) {
    if (attempt >= 16)
      throw std::runtime_error("shm: segment '" + name_ +
                               "' is already being served");
    fd = ::shm_open(name_.c_str(), O_RDWR | O_CREAT | O_EXCL, 0600);
    if (fd < 0) {
      if (errno != EEXIST) throw_errno("shm_open '" + name_ + "'");
      recycle_stale_segment(name_);  // throws when the owner is alive
      continue;
    }
    struct stat st{};
    if (::flock(fd, LOCK_EX | LOCK_NB) != 0 || ::fstat(fd, &st) != 0 ||
        !name_resolves_to(name_, static_cast<std::uint64_t>(st.st_dev),
                          static_cast<std::uint64_t>(st.st_ino))) {
      // A stale-prober grabbed (or already unlinked) our fresh inode:
      // back off and go again.
      ::close(fd);
      fd = -1;
      const timespec ts{0, 10 * 1000 * 1000};
      ::nanosleep(&ts, nullptr);
      continue;
    }
    shm_dev_ = static_cast<std::uint64_t>(st.st_dev);
    shm_ino_ = static_cast<std::uint64_t>(st.st_ino);
    break;
  }
  shm_fd_ = fd;  // stays open: it carries the lifetime lock
  if (::ftruncate(fd, static_cast<off_t>(size_)) != 0) {
    const int saved = errno;
    ::shm_unlink(name_.c_str());
    ::close(fd);
    shm_fd_ = -1;
    errno = saved;
    throw_errno("ftruncate");
  }
  mem_ = ::mmap(nullptr, size_, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (mem_ == MAP_FAILED) {
    mem_ = nullptr;
    ::shm_unlink(name_.c_str());
    ::close(fd);
    shm_fd_ = -1;
    throw_errno("mmap");
  }

  char* base = static_cast<char*>(mem_);
  header_ = new (base) ShmSegmentHeader();
  header_->magic.store(0, std::memory_order_relaxed);
  header_->version = kShmVersion;
  header_->ring_capacity = static_cast<std::uint32_t>(ring_bytes);
  const auto pid = static_cast<std::uint32_t>(::getpid());
  header_->server_pid.store(pid, std::memory_order_relaxed);
  header_->server_start = proc_start_time(pid);
  header_->client_slot.store(0, std::memory_order_relaxed);
  header_->epoch.store(0, std::memory_order_relaxed);
  header_->client_eof.store(0, std::memory_order_relaxed);
  header_->server_eof.store(0, std::memory_order_relaxed);
  header_->shutdown.store(0, std::memory_order_relaxed);
  const std::size_t region_bytes = util::ShmByteRing::region_bytes(ring_bytes);
  request_ring_ = util::ShmByteRing::init(base + kHeaderBytes, ring_bytes);
  response_ring_ = util::ShmByteRing::init(base + kHeaderBytes + region_bytes,
                                           ring_bytes);
  // Publish the magic last: a client attaching mid-construction sees a
  // zero magic and rejects the segment instead of racing the init.
  header_->magic.store(kShmMagic, std::memory_order_release);
}

ShmServer::~ShmServer() {
  shutdown();
  if (mem_) {
    ::munmap(mem_, size_);
    mem_ = nullptr;
    // Unlink only while the name still resolves to the inode we
    // created: a successor that (rightly or wrongly) recycled the name
    // must not lose its live segment to our death throes. No TOCTOU
    // here — the flock on shm_fd_ is still held, so no prober can
    // recycle the name between this check and the unlink.
    if (name_resolves_to(name_, shm_dev_, shm_ino_))
      ::shm_unlink(name_.c_str());
  }
  if (shm_fd_ >= 0) ::close(shm_fd_);
}

void ShmServer::shutdown() {
  if (header_) {
    header_->shutdown.store(1, std::memory_order_release);
    request_ring_.wake_all();
    response_ring_.wake_all();
  }
  wake_.notify();
}

bool ShmServer::shutdown_requested() const {
  if (header_->shutdown.load(std::memory_order_acquire) != 0) return true;
  // The signal path only writes the self-pipe byte (async-signal-safe);
  // promote it to the header flag here so both sides observe it.
  if (wake_.fired()) {
    const_cast<ShmServer*>(this)->shutdown();
    return true;
  }
  return false;
}

void ShmServer::reset_session() {
  // Fence the slot with kSlotResetting before touching the rings: a
  // straggling live client keeps the slot until it detaches or dies
  // (re-initializing rings under a writer would tear the stream), and
  // the sentinel keeps a *new* client from claiming mid-rebuild. A
  // client that still squeezes into the clean-detach window sees
  // server_eof set and backs out of its claim.
  for (;;) {
    std::uint64_t slot = header_->client_slot.load(std::memory_order_acquire);
    if (slot == kSlotResetting) break;
    if (slot == 0 || !slot_alive(slot)) {
      if (header_->client_slot.compare_exchange_strong(
              slot, kSlotResetting, std::memory_order_acq_rel))
        break;
      continue;  // lost a race with a claim or detach; re-evaluate
    }
    if (shutdown_requested()) return;  // teardown unlinks the segment anyway
    wake_.fired(kWaitMs);
  }
  // Bump the epoch first so a stale client's next operation fails, then
  // empty the rings and finally reopen the slot. reset() (all-atomic)
  // rather than a fresh init(): shutdown() may wake_all() the rings
  // from another thread at any moment, and overlapping that with
  // init()'s plain stores would be a data race.
  header_->epoch.fetch_add(1, std::memory_order_acq_rel);
  request_ring_.reset();
  response_ring_.reset();
  header_->client_eof.store(0, std::memory_order_relaxed);
  header_->server_eof.store(0, std::memory_order_relaxed);
  header_->client_slot.store(0, std::memory_order_release);
}

int ShmServer::run() {
  Counter& sessions = engine_.metrics().counter(
      "ccov_shm_sessions_total", "shm client sessions served");
  Counter& vanished = engine_.metrics().counter(
      "ccov_shm_clients_vanished_total",
      "shm sessions torn down because the client process died");
  while (!shutdown_requested()) {
    const std::uint64_t slot =
        header_->client_slot.load(std::memory_order_acquire);
    if (slot == 0 || slot == kSlotResetting) {
      // Idle: no client holds the slot. Claim latency is off the hot
      // path (a session does millions of requests per claim), so a
      // plain poll tick is plenty.
      wake_.fired(/*wait_ms=*/10);
      continue;
    }
    sessions.add(1);
    ShmServerStream stream(header_, request_ring_, response_ring_,
                           [this] { return shutdown_requested(); }, vanished);
    serve_session(stream, engine_, config_);
    // Every owed response byte is in the ring; tell the client the
    // stream is complete, then recycle the slot for the next client.
    header_->server_eof.store(1, std::memory_order_release);
    response_ring_.wake_all();
    reset_session();
  }
  return 0;
}

// ---------------------------------------------------------------------------
// ShmClient
// ---------------------------------------------------------------------------

ShmClient::~ShmClient() { close(); }

bool ShmClient::connect(const std::string& name, std::string* error) {
  close();
  std::string normalized;
  if (!normalize_shm_name(name, &normalized, error)) return false;
  const int fd = ::shm_open(normalized.c_str(), O_RDWR, 0600);
  if (fd < 0) {
    *error = "cannot open shm segment '" + normalized +
             "': " + std::strerror(errno);
    return false;
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0 ||
      st.st_size < static_cast<off_t>(sizeof(ShmSegmentHeader))) {
    ::close(fd);
    *error = "shm segment '" + normalized + "' is truncated";
    return false;
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  void* mem = ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (mem == MAP_FAILED) {
    *error = std::string("mmap: ") + std::strerror(errno);
    return false;
  }
  auto* header = static_cast<ShmSegmentHeader*>(mem);
  // The handshake: magic, version and capacity must all check out and
  // the mapped size must cover what the header claims — anything else
  // is a torn init, a foreign segment, or a corrupted one. The acquire
  // on the magic pairs with the server's release-store after init, so
  // a valid magic guarantees the rest of the header is visible.
  const bool magic_ok =
      header->magic.load(std::memory_order_acquire) == kShmMagic;
  const std::size_t cap = magic_ok ? header->ring_capacity : 0;
  if (!magic_ok) {
    *error = "shm segment '" + normalized + "' has a bad magic";
  } else if (header->version != kShmVersion) {
    *error = "shm segment '" + normalized + "' speaks protocol version " +
             std::to_string(header->version) + ", expected " +
             std::to_string(kShmVersion);
  } else if (!util::ShmByteRing::valid_capacity(cap)) {
    *error = "shm segment '" + normalized + "' has a bad ring capacity";
  } else if (size < segment_bytes(cap)) {
    *error = "shm segment '" + normalized + "' is smaller than its header "
             "claims";
  } else if (header->shutdown.load(std::memory_order_acquire) != 0) {
    *error = "shm segment '" + normalized + "' is shutting down";
  } else {
    error->clear();
  }
  if (!error->empty()) {
    ::munmap(mem, size);
    return false;
  }

  // Claim the client slot: exactly one client at a time (the rings are
  // SPSC). The pid and its start-time token travel in one CAS, so the
  // server can never observe the pid without the token. A dead holder
  // is the server's job to reap — stealing here would race its own
  // liveness probe.
  std::uint64_t expected = 0;
  const auto pid = static_cast<std::uint32_t>(::getpid());
  const std::uint64_t slot = pack_slot(pid, proc_start_time(pid));
  if (!header->client_slot.compare_exchange_strong(
          expected, slot, std::memory_order_acq_rel)) {
    *error = "shm segment '" + normalized + "' is busy (client pid " +
             std::to_string(slot_pid(expected)) + " holds the slot)";
    ::munmap(mem, size);
    return false;
  }
  if (header->server_eof.load(std::memory_order_acquire) != 0 ||
      header->client_eof.load(std::memory_order_acquire) != 0) {
    // We won a claim race against the tail of the previous session:
    // either the server's between-sessions reset hasn't finished
    // (server_eof still up), or the previous client finished and
    // detached before the server even noticed the EOF (client_eof
    // still up — joining now would attach us to a session that is
    // about to be torn down unanswered). Both flags are cleared only
    // by the reset, so back out; the caller may retry once it runs.
    std::uint64_t self = slot;
    header->client_slot.compare_exchange_strong(self, 0,
                                                std::memory_order_acq_rel);
    *error = "shm segment '" + normalized + "' is busy (session reset)";
    ::munmap(mem, size);
    return false;
  }

  mem_ = mem;
  size_ = size;
  header_ = header;
  epoch_ = header->epoch.load(std::memory_order_acquire);
  slot_ = slot;
  char* base = static_cast<char*>(mem);
  const std::size_t ring_bytes = util::ShmByteRing::region_bytes(cap);
  request_ring_ = util::ShmByteRing::attach(base + kHeaderBytes, cap);
  response_ring_ =
      util::ShmByteRing::attach(base + kHeaderBytes + ring_bytes, cap);
  rx_.clear();
  return true;
}

bool ShmClient::session_over() const {
  return header_->shutdown.load(std::memory_order_acquire) != 0 ||
         header_->epoch.load(std::memory_order_acquire) != epoch_;
}

bool ShmClient::ok() const {
  return connected() && !session_over() &&
         header_->server_eof.load(std::memory_order_acquire) == 0 &&
         server_alive(header_);
}

bool ShmClient::send(const char* data, std::size_t n) {
  if (!connected()) return false;
  std::size_t off = 0;
  while (off < n) {
    const std::size_t w = request_ring_.try_write(data + off, n - off);
    if (w > 0) {
      off += w;
      continue;
    }
    if (!ok()) return false;
    request_ring_.wait_writable(kWaitMs);
  }
  return true;
}

std::size_t ShmClient::try_send(const char* data, std::size_t n) {
  if (!connected()) return 0;
  return request_ring_.try_write(data, n);
}

void ShmClient::wait_send(int timeout_ms) {
  if (connected()) request_ring_.wait_writable(timeout_ms);
}

bool ShmClient::send_line(const std::string& line) {
  // Stage line + '\n' into one reused buffer so the ring sees a single
  // write — one publish (and at most one futex wake) per request
  // instead of two.
  tx_.assign(line);
  tx_.push_back('\n');
  return send(tx_.data(), tx_.size());
}

void ShmClient::finish() {
  if (!connected()) return;
  header_->client_eof.store(1, std::memory_order_release);
  request_ring_.wake_all();
}

std::size_t ShmClient::drain_available(std::string* out) {
  if (!connected()) return 0;
  std::size_t total = 0;
  for (;;) {
    // Size the tail by what is readable right now and copy straight
    // from the ring into the caller's buffer — no bounce buffer.
    const std::size_t avail = response_ring_.readable();
    if (avail == 0) break;
    const std::size_t old = out->size();
    out->resize(old + avail);
    const std::size_t r = response_ring_.try_read(out->data() + old, avail);
    out->resize(old + r);
    total += r;
  }
  return total;
}

std::size_t ShmClient::read_some(std::string* out) {
  if (!connected()) return 0;
  for (;;) {
    const std::size_t n = drain_available(out);
    if (n > 0) return n;
    // The server publishes the last response bytes before raising
    // server_eof, so one more drain after seeing the flag is complete.
    if (header_->server_eof.load(std::memory_order_acquire) != 0)
      return drain_available(out);
    if (session_over()) return 0;
    // kill(2)-probe the server only when a wait timed out: a live
    // server answers well inside kWaitMs, so the steady state pays no
    // liveness syscall per round trip, while a crashed one is still
    // detected within a tick.
    if (!response_ring_.wait_readable(kWaitMs) && !server_alive(header_))
      return 0;
  }
}

bool ShmClient::server_finished() const {
  return connected() &&
         header_->server_eof.load(std::memory_order_acquire) != 0;
}

bool ShmClient::read_line(std::string* line) {
  if (!connected()) return false;
  for (;;) {
    const std::size_t nl = rx_.find('\n');
    if (nl != std::string::npos) {
      line->assign(rx_, 0, nl);
      rx_.erase(0, nl + 1);
      return true;
    }
    if (read_some(&rx_) == 0) return false;
  }
}

void ShmClient::close() {
  if (!header_) return;
  std::uint64_t expected = slot_;
  header_->client_slot.compare_exchange_strong(expected, 0,
                                               std::memory_order_acq_rel);
  // Wake the server's request-ring wait so it notices the detach now
  // rather than at the next probe tick.
  request_ring_.wake_all();
  ::munmap(mem_, size_);
  mem_ = nullptr;
  size_ = 0;
  header_ = nullptr;
  slot_ = 0;
}

}  // namespace ccov::engine::shm
