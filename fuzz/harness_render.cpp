#include "harnesses.hpp"

#include <cstdlib>
#include <string>

#include "ccov/engine/serve.hpp"
#include "reference_render.hpp"

namespace eng = ccov::engine;

namespace {

std::uint32_t read_u32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | p[3];
}

}  // namespace

/// Differential check of the one-pass cover renderer. Byte 0 holds the
/// flags ok, found, exhausted, validated, valid, cache_hit, timed_out
/// and degraded (bit 0 up), byte 1 bit 0 shed; bytes 2-5 are n and
/// bytes 6-9 the id and node count (big-endian). When !ok the rest is
/// the error text. Otherwise the rest is the cover: a length byte (mod
/// 10) per cycle, then one byte per vertex, or, when its top bit is set,
/// the next four bytes as a big-endian vertex. Aborts when
/// serve_response_line differs from the per-value JsonWriter rendering
/// in tests/reference_render.hpp.
int ccov_fuzz_render(const std::uint8_t* data, std::size_t size) {
  if (size < 10) return 0;
  eng::CoverResponse r;
  r.ok = data[0] & 1;
  r.found = data[0] & 2;
  r.exhausted = data[0] & 4;
  r.validated = data[0] & 8;
  r.valid = data[0] & 16;
  r.cache_hit = data[0] & 32;
  r.timed_out = data[0] & 64;
  r.degraded = data[0] & 128;
  r.shed = data[1] & 1;
  r.algorithm = "construct";
  r.n = read_u32(data + 2);
  r.nodes = read_u32(data + 6);
  const std::uint8_t* p = data + 10;
  const std::uint8_t* end = data + size;
  if (!r.ok) {
    r.error.assign(p, end);
  } else {
    r.cover.n = r.n;
    ccov::covering::Cycle c;
    while (p < end) {
      c.clear();
      for (std::size_t len = *p++ % 10; len > 0 && p < end; --len) {
        if (!(*p & 0x80)) {
          c.push_back(*p++);
        } else if (end - p > 4) {
          c.push_back(read_u32(p + 1));
          p += 5;
        } else {
          p = end;
        }
      }
      r.cover.add(c);
    }
  }
  if (eng::serve_response_line(r.nodes, r) !=
      eng::reference::serve_response_line(r.nodes, r))
    std::abort();
  return 0;
}
