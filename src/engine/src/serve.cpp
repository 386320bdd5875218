#include "ccov/engine/serve.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdint>
#include <functional>
#include <istream>
#include <iterator>
#include <limits>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ccov/engine/batch.hpp"
#include "ccov/engine/store.hpp"
#include "ccov/util/json.hpp"
#include "ccov/util/pipeline.hpp"

namespace ccov::engine {

namespace json = ccov::util::json;

namespace {

// ---------------------------------------------------------------------------
// Request extraction (the JSON reader itself lives in ccov/util/json.hpp,
// shared with the HTTP layer)
// ---------------------------------------------------------------------------

bool to_uint(const json::Value& v, std::uint64_t max, std::uint64_t* out,
             std::string* error, const std::string& key) {
  if (v.type != json::Value::Type::kInt || v.integer < 0 ||
      static_cast<std::uint64_t>(v.integer) > max) {
    *error = "field '" + key + "' must be a non-negative integer";
    return false;
  }
  *out = static_cast<std::uint64_t>(v.integer);
  return true;
}

bool extract_request(const json::Value& obj, CoverRequest* req,
                     std::string* error) {
  bool have_algo = false, have_n = false;
  for (const auto& [key, val] : obj.object) {
    std::uint64_t u = 0;
    if (key == "algo" || key == "algorithm") {
      if (val.type != json::Value::Type::kString) {
        *error = "field 'algo' must be a string";
        return false;
      }
      req->algorithm = val.string;
      have_algo = true;
    } else if (key == "n") {
      if (!to_uint(val, std::numeric_limits<std::uint32_t>::max(), &u, error,
                   key))
        return false;
      req->n = static_cast<std::uint32_t>(u);
      have_n = true;
    } else if (key == "budget") {
      if (!to_uint(val, std::numeric_limits<std::uint64_t>::max(), &u, error,
                   key))
        return false;
      req->budget = u;
    } else if (key == "lambda") {
      if (!to_uint(val, std::numeric_limits<std::uint32_t>::max(), &u, error,
                   key))
        return false;
      req->lambda = static_cast<std::uint32_t>(u);
    } else if (key == "threads") {
      if (!to_uint(val, 4096, &u, error, key)) return false;
      req->threads = static_cast<std::size_t>(u);
    } else if (key == "max_nodes") {
      if (!to_uint(val, std::numeric_limits<std::uint64_t>::max(), &u, error,
                   key))
        return false;
      req->solver.max_nodes = u;
    } else if (key == "max_cycle_len") {
      if (!to_uint(val, std::numeric_limits<std::uint32_t>::max(), &u, error,
                   key))
        return false;
      req->solver.max_cycle_len = static_cast<std::uint32_t>(u);
    } else if (key == "deadline_ms") {
      // Capped at ~49 days: effectively unbounded, but small enough that
      // the absolute steady_clock deadline can never overflow.
      if (!to_uint(val, std::numeric_limits<std::uint32_t>::max(), &u, error,
                   key))
        return false;
      req->deadline_ms = u;
    } else if (key == "validate") {
      if (val.type != json::Value::Type::kBool) {
        *error = "field 'validate' must be a boolean";
        return false;
      }
      req->validate = val.boolean;
    } else if (key == "demand") {
      if (val.type != json::Value::Type::kArray) {
        *error = "field 'demand' must be an array of [u,v] pairs";
        return false;
      }
      for (const json::Value& pair : val.array) {
        if (pair.type != json::Value::Type::kArray ||
            pair.array.size() != 2) {
          *error = "field 'demand' must be an array of [u,v] pairs";
          return false;
        }
        std::uint64_t u0 = 0, v0 = 0;
        if (!to_uint(pair.array[0], std::numeric_limits<std::uint32_t>::max(),
                     &u0, error, key) ||
            !to_uint(pair.array[1], std::numeric_limits<std::uint32_t>::max(),
                     &v0, error, key))
          return false;
        req->demand.push_back({static_cast<std::uint32_t>(u0),
                               static_cast<std::uint32_t>(v0)});
      }
    } else {
      *error = "unknown field '" + key + "'";
      return false;
    }
  }
  if (!have_algo) {
    *error = "missing required field 'algo'";
    return false;
  }
  if (!have_n) {
    *error = "missing required field 'n'";
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Control-verb table
// ---------------------------------------------------------------------------

/// The built-in verbs, sorted by name (the unknown-verb error lists them
/// in table order).
constexpr ServeVerb kVerbs[] = {
    {"clear", "empty the store",
     [](const ServeVerbContext& ctx) {
       ctx.engine.cache().clear();
       json::JsonWriter w;
       w.begin_object()
           .key("id").value(ctx.id)
           .key("op").value_string("clear")
           .key("ok").value(true)
           .end_object();
       return w.take();
     }},
    {"metrics", "report every engine metric (cache, serve, solver)",
     [](const ServeVerbContext& ctx) {
       json::JsonWriter w;
       w.begin_object()
           .key("id").value(ctx.id)
           .key("op").value_string("metrics")
           .key("ok").value(true)
           .key("metrics").begin_object();
       for (const auto& [name, value] : ctx.engine.metrics().snapshot())
         w.key(name).value(value);
       w.end_object().end_object();
       return w.take();
     }},
    {"save", "snapshot the store to the configured --cache-file",
     [](const ServeVerbContext& ctx) -> std::string {
       if (ctx.config.cache_file.empty())
         return serve_error_line(ctx.id, "save: no --cache-file configured");
       try {
         save_snapshot_file(ctx.config.cache_file, ctx.engine.cache());
         json::JsonWriter w;
         w.begin_object()
             .key("id").value(ctx.id)
             .key("op").value_string("save")
             .key("ok").value(true)
             .key("entries")
             .value(static_cast<std::uint64_t>(ctx.engine.cache().size()))
             .key("file").value_string(ctx.config.cache_file)
             .end_object();
         return w.take();
       } catch (const std::exception& e) {
         // Disk failures (ENOSPC, EIO, a failed rename) come back as a
         // structured save verdict, not a bare error line: the client
         // learns both that its snapshot did NOT land and which file was
         // involved.
         json::JsonWriter w;
         w.begin_object()
             .key("id").value(ctx.id)
             .key("op").value_string("save")
             .key("ok").value(false)
             .key("error").value_string(e.what())
             .key("file").value_string(ctx.config.cache_file)
             .end_object();
         return w.take();
       }
     }},
    {"stats", "report cache size/capacity/shards and hit counters",
     [](const ServeVerbContext& ctx) {
       return serve_stats_line(ctx.id, ctx.engine.cache());
     }},
};

static_assert(std::ranges::adjacent_find(kVerbs, std::ranges::greater_equal{},
                                         &ServeVerb::name) ==
                  std::ranges::end(kVerbs),
              "kVerbs must be sorted by name without duplicates");

}  // namespace

const ServeVerb* ServeVerbRegistry::find(std::string_view name) const {
  for (const ServeVerb& verb : kVerbs)
    if (verb.name == name) return &verb;
  return nullptr;
}

std::vector<std::string> ServeVerbRegistry::names() const {
  std::vector<std::string> out;
  for (const ServeVerb& verb : kVerbs) out.emplace_back(verb.name);
  return out;
}

std::size_t ServeVerbRegistry::size() const { return std::size(kVerbs); }

const ServeVerbRegistry& ServeVerbRegistry::global() {
  static const ServeVerbRegistry reg;
  return reg;
}

// ---------------------------------------------------------------------------
// Parsing and rendering
// ---------------------------------------------------------------------------

bool parse_serve_line(const std::string& line, ServeCommand* cmd,
                      std::string* error) {
  error->clear();
  json::Value root;
  json::Reader reader(line);
  if (!reader.parse(&root, error)) return false;
  if (root.type != json::Value::Type::kObject) {
    *error = "each line must be a JSON object";
    return false;
  }
  for (const auto& [key, val] : root.object) {
    if (key != "op") continue;
    if (val.type != json::Value::Type::kString) {
      *error = "field 'op' must be a string";
      return false;
    }
    if (root.object.size() != 1) {
      *error = "control verbs take no other fields";
      return false;
    }
    const ServeVerb* verb = ServeVerbRegistry::global().find(val.string);
    if (!verb) {
      *error = "unknown control verb '" + val.string + "' (valid: ";
      const std::vector<std::string> names =
          ServeVerbRegistry::global().names();
      for (std::size_t i = 0; i < names.size(); ++i)
        *error += (i ? ", " : "") + names[i];
      *error += ")";
      return false;
    }
    cmd->verb = verb;
    return true;
  }
  cmd->verb = nullptr;
  cmd->req = CoverRequest{};
  return extract_request(root, &cmd->req, error);
}

namespace {

/// Append `cover` as `[[v,v,v],[v,v,v,v],...]`, the bytes a
/// begin_array/value/end_array per vertex writes, in one pass: the
/// string grows once to a bound (10 digits and a separator per vertex,
/// brackets and a separator per cycle) and is cut back to what was
/// written.
void append_cover(std::string* out, const covering::RingCover& cover) {
  std::size_t bound = 2;
  for (const covering::Cycle& c : cover.cycles) bound += 3 + 11 * c.size();
  const std::size_t start = out->size();
  out->resize(start + bound);
  char* p = out->data() + start;
  *p++ = '[';
  for (std::size_t i = 0; i < cover.cycles.size(); ++i) {
    const covering::Cycle& c = cover.cycles[i];
    if (i) *p++ = ',';
    *p++ = '[';
    for (std::size_t j = 0; j < c.size(); ++j) {
      if (j) *p++ = ',';
      p = std::to_chars(p, p + 10, c[j]).ptr;
    }
    *p++ = ']';
  }
  *p++ = ']';
  out->resize(static_cast<std::size_t>(p - out->data()));
}

/// Core renderer behind serve_response_line: appends the response object
/// (no newline) to `w`, so hot loops can reuse one writer — and its
/// buffer — across responses. `cache_hit`/`nodes` are taken as
/// parameters rather than read off `resp` so the zero-copy cache path
/// can render a stored entry with the overrides a hit applies.
void render_response_line(json::JsonWriter& w, std::uint64_t id,
                          const CoverResponse& resp, bool cache_hit,
                          std::uint64_t nodes) {
  // ~12 bytes per cover vertex ("nn," with brackets) on top of the fixed
  // fields: one right-sized allocation instead of log2(size) regrowths.
  std::size_t vertices = 0;
  for (const covering::Cycle& c : resp.cover.cycles) vertices += c.size();
  w.reserve(w.str().size() + 160 + resp.error.size() + 12 * vertices);
  w.begin_object()
      .key("id").value(id)
      .key("ok").value(resp.ok)
      .key("algo").value_string(resp.algorithm)
      .key("n").value(static_cast<std::uint64_t>(resp.n));
  if (!resp.ok) {
    w.key("error").value_string(resp.error).end_object();
    return;
  }
  w.key("found").value(resp.found)
      .key("exhausted").value(resp.exhausted)
      .key("nodes").value(nodes)
      .key("cache_hit").value(cache_hit);
  // Degradation flags render only when raised, keeping the bytes of
  // every ordinary response identical to pre-deadline builds (the
  // cross-transport byte-compare tests pin this).
  if (resp.timed_out) w.key("timed_out").value(true);
  if (resp.degraded) w.key("degraded").value(true);
  if (resp.shed) w.key("shed").value(true);
  if (resp.validated) w.key("valid").value(resp.valid);
  if (resp.found) append_cover(&w.key("cover").value_buffer(), resp.cover);
  w.end_object();
}

void render_response_line(json::JsonWriter& w, std::uint64_t id,
                          const CoverResponse& resp) {
  render_response_line(w, id, resp, resp.cache_hit, resp.nodes);
}

void render_error_line(json::JsonWriter& w, std::uint64_t id,
                       const std::string& error) {
  w.begin_object()
      .key("id").value(id)
      .key("ok").value(false)
      .key("error").value_string(error)
      .end_object();
}

/// The in-band answer for a request whose deadline expired while it was
/// queued: ok (the protocol held up its end), nothing found, nothing
/// searched, shed:true. Solving it anyway would burn the engine on an
/// answer the client has already given up on.
CoverResponse shed_response(const CoverRequest& req) {
  CoverResponse resp;
  resp.ok = true;
  resp.algorithm = req.algorithm;
  resp.n = req.n;
  resp.shed = true;
  return resp;
}

}  // namespace

std::string serve_response_line(std::uint64_t id, const CoverResponse& resp) {
  json::JsonWriter w;
  render_response_line(w, id, resp);
  return w.take();
}

std::string serve_error_line(std::uint64_t id, const std::string& error) {
  json::JsonWriter w;
  render_error_line(w, id, error);
  return w.take();
}

std::string serve_stats_line(std::uint64_t id, const CoverCache& cache) {
  const CoverCache::Stats s = cache.stats();
  json::JsonWriter w;
  w.begin_object()
      .key("id").value(id)
      .key("op").value_string("stats")
      .key("ok").value(true)
      .key("size").value(static_cast<std::uint64_t>(cache.size()))
      .key("capacity").value(static_cast<std::uint64_t>(cache.capacity()))
      .key("shards").value(static_cast<std::uint64_t>(cache.shard_count()))
      .key("hits").value(s.hits)
      .key("misses").value(s.misses)
      .key("evictions").value(s.evictions)
      .end_object();
  return w.take();
}

LineReader::LineReader(ServeStream& io, std::size_t max_line)
    : io_(io),
      max_(max_line ? max_line : std::numeric_limits<std::size_t>::max()) {}

LineReader::Result LineReader::next(std::string* line) {
  line->clear();
  bool too_long = false;
  for (;;) {
    while (pos_ < len_) {
      const char c = buf_[pos_++];
      if (c == '\n') {
        if (too_long) return Result::kTooLong;
        if (!line->empty() && line->back() == '\r') line->pop_back();
        return Result::kLine;
      }
      if (!too_long) {
        line->push_back(c);
        if (line->size() > max_) {
          too_long = true;
          line->clear();
        }
      }
    }
    pos_ = len_ = 0;
    const std::ptrdiff_t r = io_.read_some(buf_, sizeof(buf_));
    if (r <= 0) {
      // End of stream: a partial final line (no trailing newline) is
      // still a line, as with std::getline; the next call sees an
      // empty buffer and reports EOF.
      if (too_long) return Result::kTooLong;
      if (!line->empty()) {
        if (line->back() == '\r') line->pop_back();
        return Result::kLine;
      }
      return Result::kEof;
    }
    len_ = static_cast<std::size_t>(r);
  }
}

namespace {

/// Wraps the session's transport to account every payload byte that
/// crosses the ServeStream seam, so byte-level throughput is visible in
/// /metrics for stdio, TCP, HTTP and shm alike.
class CountingStream final : public ServeStream {
 public:
  CountingStream(ServeStream& inner, Counter& bytes_read,
                 Counter& bytes_written)
      : inner_(inner), bytes_read_(bytes_read), bytes_written_(bytes_written) {}

  std::ptrdiff_t read_some(char* buf, std::size_t n) override {
    const std::ptrdiff_t r = inner_.read_some(buf, n);
    if (r > 0) bytes_read_.add(static_cast<std::uint64_t>(r));
    return r;
  }

  bool write_all(const char* data, std::size_t n) override {
    const bool ok = inner_.write_all(data, n);
    if (ok) bytes_written_.add(n);
    return ok;
  }

  bool flush() override { return inner_.flush(); }

 private:
  ServeStream& inner_;
  Counter& bytes_read_;
  Counter& bytes_written_;
};

/// ServeStream over an istream/ostream pair (the stdio transport).
class IostreamServeStream final : public ServeStream {
 public:
  IostreamServeStream(std::istream& in, std::ostream& out)
      : in_(in), out_(out) {}

  std::ptrdiff_t read_some(char* buf, std::size_t n) override {
    // Block for one byte, then drain whatever is already buffered
    // without blocking again. A full read(n) would stall an interactive
    // client (a coprocess writing one line and waiting for the answer)
    // until n bytes or EOF; this delivers every line as it arrives.
    if (n == 0 || !in_.good()) return 0;
    const int first = in_.get();
    if (first == std::char_traits<char>::eof()) return 0;
    buf[0] = static_cast<char>(first);
    std::ptrdiff_t got = 1;
    if (n > 1)
      got += static_cast<std::ptrdiff_t>(
          in_.readsome(buf + 1, static_cast<std::streamsize>(n - 1)));
    return got;
  }

  bool write_all(const char* data, std::size_t n) override {
    out_.write(data, static_cast<std::streamsize>(n));
    return static_cast<bool>(out_);
  }

  bool flush() override {
    out_.flush();
    return static_cast<bool>(out_);
  }

 private:
  std::istream& in_;
  std::ostream& out_;
};

}  // namespace

int serve_session(ServeStream& raw_io, Engine& engine,
                  const ServeConfig& config) {
  /// One input line awaiting its answer: a compute request, a control
  /// verb (always flushed alone) or a preformatted parse failure.
  struct Pending {
    std::uint64_t id = 0;
    bool is_request = false;
    CoverRequest req;
    std::string error;  ///< preformatted parse failure when !is_request
    const ServeVerb* verb = nullptr;  ///< set for a control verb
    bool shed = false;  ///< deadline expired while queued (set at flush)
  };

  // Session metrics: resolved once (one map lookup each), updated with
  // relaxed atomics on the hot path. Every transport shares these.
  MetricsRegistry& metrics = engine.metrics();
  Counter& m_sessions = metrics.counter("ccov_serve_sessions_total", "");
  Gauge& m_active = metrics.gauge("ccov_serve_sessions_active", "");
  Counter& m_requests = metrics.counter("ccov_serve_requests_total", "");
  Counter& m_verbs = metrics.counter("ccov_serve_verbs_total", "");
  Counter& m_errors = metrics.counter("ccov_serve_errors_total", "");
  Counter& m_shed = metrics.counter("ccov_requests_shed_total", "");
  Gauge& m_depth = metrics.gauge("ccov_serve_pipeline_depth", "");
  Counter& m_bytes_read = metrics.counter("ccov_serve_bytes_read_total", "");
  Counter& m_bytes_written =
      metrics.counter("ccov_serve_bytes_written_total", "");
  CountingStream io(raw_io, m_bytes_read, m_bytes_written);
  m_sessions.add(1);
  m_active.add(1);

  const std::size_t batch = std::max<std::size_t>(1, config.batch);
  BatchRunner runner(engine, {.jobs = config.jobs});

  // Answers one flushed batch in input order and writes it. One thread
  // answers every flush of a session (the reader when inline, else the
  // pipeline worker), so one writer and its buffer serve them all.
  json::JsonWriter w;
  const auto answer = [&](std::vector<Pending>& work) {
    // Each line is counted here, by the thread that answers it, before
    // any verb of the batch runs: a `metrics` verb then reports exactly
    // the lines before it (itself included), however far the reader
    // thread has read ahead. Deadline-aware load shedding is decided
    // when the batch starts (after any queue wait behind earlier
    // flushes) and before the cache probe: an expired request is
    // answered in-band without solving.
    for (Pending& p : work) {
      (p.is_request ? m_requests : p.verb ? m_verbs : m_errors).add(1);
      if (p.is_request && p.req.deadline.expired()) {
        p.shed = true;
        m_shed.add(1);
      }
    }
    w.clear();
    // A lone request the store holds in its own frame renders straight
    // out of the cache with the overrides a hit applies (cache_hit =
    // true, nodes = 0), skipping the cover deep copy. Otherwise it runs
    // on the engine with the key the probe already built.
    const Pending& front = work.front();
    if (work.size() == 1 && front.is_request && !front.shed) {
      const auto render_hit = [&](const CoverResponse& hit, std::uint64_t) {
        render_response_line(w, front.id, hit, /*cache_hit=*/true,
                             /*nodes=*/0);
      };
      const CanonicalKey ck = canonical_request_key(front.req);
      if (!engine.run_cached(front.req, ck, render_hit))
        render_response_line(w, front.id, engine.run(front.req, ck));
      w.value_raw("\n");  // top level: appended verbatim
    } else {
      std::vector<CoverRequest> requests;
      for (const Pending& p : work)
        if (p.is_request && !p.shed) requests.push_back(p.req);
      const std::vector<CoverResponse> responses = runner.run(requests);
      std::size_t k = 0;
      for (const Pending& p : work) {
        if (p.verb)
          w.value_raw(p.verb->run({p.id, engine, config}));
        else if (!p.is_request)
          render_error_line(w, p.id, p.error);
        else if (p.shed)
          render_response_line(w, p.id, shed_response(p.req));
        else
          render_response_line(w, p.id, responses[k++]);
        w.value_raw("\n");
      }
    }
    const std::string& out = w.str();
    return io.write_all(out.data(), out.size()) && io.flush();
  };

  // Pipeline-depth bookkeeping: the gauge rises on enqueue and falls when
  // a job finishes. Jobs a dying pipeline drops never run, so the
  // enqueued/completed counts reconcile the gauge after the pipeline is
  // destroyed (both outlive it by declaration order).
  std::atomic<std::size_t> jobs_completed{0};
  std::size_t jobs_enqueued = 0;
  {
    // Sessions that batch or fan out (jobs > 1 || batch > 1) are
    // double-buffered: one worker answers flushes strictly in order while
    // this thread reads and parses the next batch. Interactive sessions
    // have nothing to overlap and the thread handoff would only add
    // latency, so they answer inline and start no worker. Flushes run in
    // input order either way, which keeps cache-state evolution — and
    // therefore every output byte — identical; a flush returns false when
    // the peer is gone and the session tears down quietly.
    std::vector<Pending> pending;
    std::size_t pending_requests = 0;
    std::optional<util::OrderedPipeline> pipeline;
    if (config.jobs != 1 || batch != 1) pipeline.emplace(/*depth=*/2);

    const auto flush = [&]() -> bool {
      if (pending.empty()) return true;
      pending_requests = 0;
      if (!pipeline) {
        const bool ok = answer(pending);
        pending.clear();
        return ok;
      }
      m_depth.add(1);
      ++jobs_enqueued;
      const bool queued = pipeline->enqueue(
          [&answer, &jobs_completed, &m_depth,
           work = std::move(pending)]() mutable {
            const bool ok = answer(work);
            jobs_completed.fetch_add(1, std::memory_order_relaxed);
            m_depth.add(-1);
            return ok;
          });
      pending.clear();
      if (!queued) {
        // The pipeline refused the job (already dead): it will never run.
        m_depth.add(-1);
        --jobs_enqueued;
      }
      return queued;
    };

    // Fix the absolute deadline the moment a request is accepted (queue
    // wait counts against it) and attach the server's cancel token.
    const auto accept_request = [&config](CoverRequest* req) {
      if (req->deadline_ms == 0) req->deadline_ms = config.default_deadline_ms;
      if (req->deadline_ms > 0)
        req->deadline = util::Deadline::after_ms(
            static_cast<std::int64_t>(req->deadline_ms));
      req->cancel = config.cancel;
    };

    LineReader reader(io, config.max_line_bytes);
    std::uint64_t id = 0;
    std::string line;
    bool alive = true;
    while (alive) {
      // Shutdown check between lines: a cancelled server stops accepting
      // instead of blocking on the next read — the bounded-shutdown
      // guarantee for transports whose reads cannot be woken externally.
      if (config.cancel != nullptr && config.cancel->cancelled()) break;
      const LineReader::Result r = reader.next(&line);
      if (r == LineReader::Result::kEof) break;
      if (r == LineReader::Result::kTooLong) {
        pending.push_back(
            {id++, false, {},
             "parse: line exceeds max line length (" +
                 std::to_string(config.max_line_bytes) + " bytes)"});
        if (pending.size() >= batch) alive = flush();
        continue;
      }
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      ServeCommand cmd;
      std::string error;
      if (!parse_serve_line(line, &cmd, &error)) {
        pending.push_back({id++, false, {}, "parse: " + error});
        if (pending.size() >= batch) alive = flush();
        continue;
      }
      if (cmd.is_request()) {
        pending.push_back({id++, true, std::move(cmd.req), {}});
        accept_request(&pending.back().req);
        if (++pending_requests >= batch) alive = flush();
        continue;
      }
      // Control verbs flush the requests before them, then answer as a
      // flush of their own: flushes run in order, so whatever the handler
      // observes (cache stats, metrics) reflects exactly the requests that
      // preceded it in the stream.
      alive = flush();
      if (alive) {
        pending.push_back({id++, false, {}, {}, cmd.verb});
        alive = flush();
      }
    }
    if (alive) {
      flush();
      if (pipeline) pipeline->drain();
    }
  }  // ~OrderedPipeline joins the worker: no job runs past this point.
  m_depth.add(-static_cast<std::int64_t>(
      jobs_enqueued - jobs_completed.load(std::memory_order_relaxed)));
  m_active.add(-1);
  return 0;
}

int serve_loop(std::istream& in, std::ostream& out, Engine& engine,
               const ServeConfig& config) {
  IostreamServeStream io(in, out);
  return serve_session(io, engine, config);
}

}  // namespace ccov::engine
