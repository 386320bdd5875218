#include "ccov/engine/http.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace ccov::engine::net {

namespace {

// ---------------------------------------------------------------------------
// Request head parsing (HttpRequest/find_head_end/parse_head are declared
// in http.hpp so tests and the fuzz harnesses reach them socket-free)
// ---------------------------------------------------------------------------

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

}  // namespace

bool find_head_end(const std::string& buf, std::size_t* head_end,
                   std::size_t* body_start) {
  const std::size_t crlf = buf.find("\r\n\r\n");
  const std::size_t lflf = buf.find("\n\n");
  if (crlf != std::string::npos && (lflf == std::string::npos || crlf < lflf)) {
    *head_end = crlf;
    *body_start = crlf + 4;
    return true;
  }
  if (lflf != std::string::npos) {
    *head_end = lflf;
    *body_start = lflf + 2;
    return true;
  }
  return false;
}

bool parse_head(const std::string& head, HttpRequest* req, std::string* error) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos <= head.size()) {
    std::size_t nl = head.find('\n', pos);
    std::string line = head.substr(pos, nl == std::string::npos
                                            ? std::string::npos
                                            : nl - pos);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    lines.push_back(std::move(line));
    if (nl == std::string::npos) break;
    pos = nl + 1;
  }
  if (lines.empty() || lines[0].empty()) {
    *error = "empty request line";
    return false;
  }
  // Request line: METHOD SP TARGET SP VERSION.
  const std::string& rl = lines[0];
  const std::size_t sp1 = rl.find(' ');
  const std::size_t sp2 = rl.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1) {
    *error = "malformed request line";
    return false;
  }
  req->method = rl.substr(0, sp1);
  req->target = trim(rl.substr(sp1 + 1, sp2 - sp1 - 1));
  req->version = rl.substr(sp2 + 1);
  if (req->method.empty() || req->target.empty() ||
      req->version.rfind("HTTP/", 0) != 0) {
    *error = "malformed request line";
    return false;
  }
  req->keep_alive = req->version != "HTTP/1.0";
  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    const std::size_t colon = lines[i].find(':');
    if (colon == std::string::npos) {
      *error = "malformed header line";
      return false;
    }
    const std::string key = lower(trim(lines[i].substr(0, colon)));
    const std::string value = trim(lines[i].substr(colon + 1));
    if (key == "content-length") {
      if (value.empty()) {
        *error = "malformed Content-Length";
        return false;
      }
      std::uint64_t v = 0;
      for (const char c : value) {
        if (!std::isdigit(static_cast<unsigned char>(c)) ||
            v > (UINT64_MAX - 9) / 10) {
          *error = "malformed Content-Length";
          return false;
        }
        v = v * 10 + static_cast<std::uint64_t>(c - '0');
      }
      if (req->has_content_length && req->content_length != v) {
        *error = "conflicting Content-Length";
        return false;
      }
      req->has_content_length = true;
      req->content_length = v;
    } else if (key == "transfer-encoding") {
      if (lower(value).find("chunked") != std::string::npos)
        req->chunked = true;
    } else if (key == "expect") {
      if (lower(value) == "100-continue") req->expect_continue = true;
    } else if (key == "connection") {
      const std::string v = lower(value);
      if (v.find("close") != std::string::npos) req->keep_alive = false;
      else if (v.find("keep-alive") != std::string::npos)
        req->keep_alive = true;
    }
  }
  return true;
}

namespace {

/// Longest accepted request head (request line + headers).
constexpr std::size_t kMaxHeaderBytes = 64 << 10;

enum class HeadRead { kOk, kEof, kPartial, kTooLarge, kError };

/// Accumulate socket bytes into `buf` until a full request head is
/// present. `buf` may already hold pipelined bytes from the previous
/// request — they are consumed first and no extra read happens if a
/// head is already complete.
HeadRead read_head(SocketStream& sock, std::string* buf,
                   std::size_t* head_end, std::size_t* body_start) {
  for (;;) {
    // Leading blank lines between pipelined requests are ignored
    // (RFC 9112 §2.2).
    while (!buf->empty() && (buf->front() == '\r' || buf->front() == '\n'))
      buf->erase(0, 1);
    if (find_head_end(*buf, head_end, body_start)) return HeadRead::kOk;
    if (buf->size() > kMaxHeaderBytes) return HeadRead::kTooLarge;
    char tmp[4096];
    const std::ptrdiff_t r = sock.read_some(tmp, sizeof(tmp));
    if (r < 0) return HeadRead::kError;
    if (r == 0) return buf->empty() ? HeadRead::kEof : HeadRead::kPartial;
    buf->append(tmp, static_cast<std::size_t>(r));
  }
}

// ---------------------------------------------------------------------------
// Response writing
// ---------------------------------------------------------------------------

const char* status_text(int code) {
  switch (code) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 411: return "Length Required";
    case 413: return "Content Too Large";
    case 431: return "Request Header Fields Too Large";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 505: return "HTTP Version Not Supported";
    default: return "Unknown";
  }
}

using Headers = std::vector<std::pair<std::string, std::string>>;

/// A fixed-body response: status line, Content-Type/Length, Connection,
/// extra headers, body — one write.
bool write_response(SocketStream& sock, int code, const std::string& type,
                    const std::string& body, bool keep_alive,
                    const Headers& extra = {}) {
  std::string out = "HTTP/1.1 " + std::to_string(code) + " " +
                    status_text(code) + "\r\n";
  out += "Content-Type: " + type + "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += std::string("Connection: ") + (keep_alive ? "keep-alive" : "close") +
         "\r\n";
  for (const auto& [k, v] : extra) out += k + ": " + v + "\r\n";
  out += "\r\n";
  out += body;
  return sock.write_all(out.data(), out.size());
}

// ---------------------------------------------------------------------------
// Body transport: the ServeStream an HTTP batch request runs through
// ---------------------------------------------------------------------------

/// Frames serve_session inside one HTTP exchange. The read side hands
/// out exactly Content-Length bytes — pipelined bytes already buffered
/// first, then socket reads capped at the remainder, so the next
/// request on the connection is never consumed. The write side wraps
/// every write_all into one HTTP chunk (when chunked framing is on), so
/// each flushed batch of JSONL lines leaves as soon as the session
/// writes it. The payload bytes inside the chunks are exactly the
/// session's stdio output.
class HttpBodyStream final : public ServeStream {
 public:
  HttpBodyStream(SocketStream& sock, std::string* carry,
                 std::uint64_t content_length, bool chunked)
      : sock_(sock),
        carry_(carry),
        remaining_(content_length),
        chunked_(chunked) {}

  std::ptrdiff_t read_some(char* buf, std::size_t n) override {
    if (remaining_ == 0 || n == 0) return 0;
    if (!carry_->empty()) {
      const std::size_t k = std::min<std::uint64_t>(
          std::min<std::uint64_t>(n, carry_->size()), remaining_);
      std::memcpy(buf, carry_->data(), k);
      carry_->erase(0, k);
      remaining_ -= k;
      return static_cast<std::ptrdiff_t>(k);
    }
    const std::size_t want =
        static_cast<std::size_t>(std::min<std::uint64_t>(n, remaining_));
    const std::ptrdiff_t r = sock_.read_some(buf, want);
    if (r <= 0) {
      // The peer vanished (or shutdown fired) before delivering the
      // promised Content-Length: the connection is unusable afterwards.
      truncated_ = true;
      remaining_ = 0;
      return r;
    }
    remaining_ -= static_cast<std::uint64_t>(r);
    return r;
  }

  bool write_all(const char* data, std::size_t n) override {
    if (n == 0) return true;
    if (!chunked_) return sock_.write_all(data, n);
    char size_hex[32];
    const int len = std::snprintf(size_hex, sizeof(size_hex), "%zx",
                                  static_cast<std::size_t>(n));
    std::string frame;
    frame.reserve(static_cast<std::size_t>(len) + n + 4);
    frame.append(size_hex, static_cast<std::size_t>(len));
    frame += "\r\n";
    frame.append(data, n);
    frame += "\r\n";
    return sock_.write_all(frame.data(), frame.size());
  }

  /// True when the socket ended before Content-Length bytes arrived.
  bool truncated() const { return truncated_; }

 private:
  SocketStream& sock_;
  std::string* carry_;
  std::uint64_t remaining_;
  bool chunked_;
  bool truncated_ = false;
};

const char kEndpointsBody[] =
    "not found\n"
    "endpoints:\n"
    "  POST /v1/batch  (JSONL serve protocol)\n"
    "  GET  /metrics   (Prometheus text format)\n"
    "  GET  /healthz\n";

}  // namespace

// ---------------------------------------------------------------------------
// HttpServer
// ---------------------------------------------------------------------------

HttpServer::HttpServer(Engine& engine, ServeConfig config, ListenConfig listen,
                       std::size_t max_body_bytes)
    : engine_(engine),
      config_(std::move(config)),
      max_body_bytes_(max_body_bytes),
      server_(listen),
      requests_(engine.metrics().counter(
          "ccov_http_requests_total",
          "HTTP requests parsed by the HTTP front end")),
      errors_(engine.metrics().counter(
          "ccov_http_errors_total",
          "HTTP requests answered with a 4xx or 5xx status")),
      connections_(engine.metrics().counter("ccov_http_connections_total",
                                            "HTTP connections accepted")) {}

int HttpServer::run() {
  return server_.run(
      [this](int fd, int wake_fd) { handle_connection(fd, wake_fd); },
      [this](int fd, int wake_fd) {
        SocketStream sock(fd, wake_fd);
        errors_.add(1);
        write_response(sock, 503, "text/plain; charset=utf-8",
                       "server busy: too many clients\n",
                       /*keep_alive=*/false, {{"Retry-After", "1"}});
      });
}

void HttpServer::handle_connection(int client_fd, int wake_fd) {
  connections_.add(1);
  SocketStream sock(client_fd, wake_fd);
  std::string buf;  // unconsumed bytes carried between pipelined requests
  for (;;) {
    std::size_t head_end = 0, body_start = 0;
    const HeadRead hr = read_head(sock, &buf, &head_end, &body_start);
    if (hr == HeadRead::kEof || hr == HeadRead::kError) return;
    if (hr == HeadRead::kTooLarge) {
      errors_.add(1);
      write_response(sock, 431, "text/plain; charset=utf-8",
                     "request head exceeds " +
                         std::to_string(kMaxHeaderBytes) + " bytes\n",
                     /*keep_alive=*/false);
      return;
    }
    if (hr == HeadRead::kPartial) {
      errors_.add(1);
      write_response(sock, 400, "text/plain; charset=utf-8",
                     "truncated request head\n", /*keep_alive=*/false);
      return;
    }
    HttpRequest req;
    std::string error;
    if (!parse_head(buf.substr(0, head_end), &req, &error)) {
      errors_.add(1);
      write_response(sock, 400, "text/plain; charset=utf-8", error + "\n",
                     /*keep_alive=*/false);
      return;
    }
    buf.erase(0, body_start);
    requests_.add(1);

    if (req.version != "HTTP/1.1" && req.version != "HTTP/1.0") {
      errors_.add(1);
      write_response(sock, 505, "text/plain; charset=utf-8",
                     "only HTTP/1.0 and HTTP/1.1 are supported\n",
                     /*keep_alive=*/false);
      return;
    }
    if (req.chunked) {
      errors_.add(1);
      write_response(sock, 501, "text/plain; charset=utf-8",
                     "chunked request bodies are not supported; "
                     "send Content-Length\n",
                     /*keep_alive=*/false);
      return;
    }

    if (req.method == "POST" && req.target == "/v1/batch") {
      if (!req.has_content_length) {
        errors_.add(1);
        write_response(sock, 411, "text/plain; charset=utf-8",
                       "POST /v1/batch requires Content-Length\n",
                       /*keep_alive=*/false);
        return;
      }
      if (req.content_length > max_body_bytes_) {
        // Refused before reading one body byte; the unread body makes
        // the connection unusable, so it closes.
        errors_.add(1);
        write_response(sock, 413, "text/plain; charset=utf-8",
                       "body exceeds " +
                           std::to_string(max_body_bytes_) +
                           " bytes\n",
                       /*keep_alive=*/false);
        return;
      }
      if (req.expect_continue) {
        const char cont[] = "HTTP/1.1 100 Continue\r\n\r\n";
        if (!sock.write_all(cont, sizeof(cont) - 1)) return;
      }
      // HTTP/1.0 clients get an unframed body and a close; HTTP/1.1
      // gets chunked framing so batches stream out as they flush and
      // the connection can keep going.
      const bool use_chunked = req.version == "HTTP/1.1";
      if (!use_chunked) req.keep_alive = false;
      std::string head = "HTTP/1.1 200 OK\r\n";
      head += "Content-Type: application/x-ndjson\r\n";
      if (use_chunked) head += "Transfer-Encoding: chunked\r\n";
      head += std::string("Connection: ") +
              (req.keep_alive ? "keep-alive" : "close") + "\r\n\r\n";
      if (!sock.write_all(head.data(), head.size())) return;
      HttpBodyStream body(sock, &buf, req.content_length, use_chunked);
      serve_session(body, engine_, config_);
      if (body.truncated()) return;
      if (use_chunked) {
        const char last[] = "0\r\n\r\n";
        if (!sock.write_all(last, sizeof(last) - 1)) return;
      }
      if (!req.keep_alive) return;
      continue;
    }

    // Every remaining route carries no request body; a body we will not
    // read would desynchronize the connection, so it closes afterwards.
    if (req.has_content_length && req.content_length > 0)
      req.keep_alive = false;

    if (req.method == "GET" && req.target == "/metrics") {
      if (!write_response(sock, 200,
                          "text/plain; version=0.0.4; charset=utf-8",
                          engine_.metrics().render_prometheus(),
                          req.keep_alive))
        return;
    } else if (req.method == "GET" && req.target == "/healthz") {
      if (!write_response(sock, 200, "text/plain; charset=utf-8", "ok\n",
                          req.keep_alive))
        return;
    } else if (req.target == "/v1/batch" || req.target == "/metrics" ||
               req.target == "/healthz") {
      errors_.add(1);
      const std::string allow = req.target == "/v1/batch" ? "POST" : "GET";
      if (!write_response(sock, 405, "text/plain; charset=utf-8",
                          "method not allowed; use " + allow + " " +
                              req.target + "\n",
                          req.keep_alive, {{"Allow", allow}}))
        return;
    } else if (req.method != "GET" && req.method != "POST") {
      errors_.add(1);
      if (!write_response(sock, 501, "text/plain; charset=utf-8",
                          "method '" + req.method + "' not implemented\n",
                          req.keep_alive))
        return;
    } else {
      errors_.add(1);
      if (!write_response(sock, 404, "text/plain; charset=utf-8",
                          kEndpointsBody, req.keep_alive))
        return;
    }
    if (!req.keep_alive) return;
  }
}

}  // namespace ccov::engine::net
