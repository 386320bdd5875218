#pragma once
/// \file reference_render.hpp
/// The serve response line as the library rendered it before it wrote
/// the cover array in one pass: every field and every cover vertex
/// through its own JsonWriter call (begin_array/value/end_array).
/// ccov::engine::serve_response_line must reproduce it byte for byte;
/// the differential test in render_test.cpp and the fuzz_render harness
/// compare against it.

#include <cstdint>
#include <string>

#include "ccov/engine/request.hpp"
#include "ccov/util/json.hpp"

namespace ccov::engine::reference {

inline std::string serve_response_line(std::uint64_t id,
                                       const CoverResponse& resp) {
  util::json::JsonWriter w;
  w.begin_object()
      .key("id").value(id)
      .key("ok").value(resp.ok)
      .key("algo").value_string(resp.algorithm)
      .key("n").value(static_cast<std::uint64_t>(resp.n));
  if (!resp.ok) {
    w.key("error").value_string(resp.error).end_object();
    return w.take();
  }
  w.key("found").value(resp.found)
      .key("exhausted").value(resp.exhausted)
      .key("nodes").value(resp.nodes)
      .key("cache_hit").value(resp.cache_hit);
  if (resp.timed_out) w.key("timed_out").value(true);
  if (resp.degraded) w.key("degraded").value(true);
  if (resp.shed) w.key("shed").value(true);
  if (resp.validated) w.key("valid").value(resp.valid);
  if (resp.found) {
    w.key("cover").begin_array();
    for (const covering::Cycle& c : resp.cover.cycles) {
      w.begin_array();
      for (std::size_t j = 0; j < c.size(); ++j)
        w.value(static_cast<std::uint64_t>(c[j]));
      w.end_array();
    }
    w.end_array();
  }
  w.end_object();
  return w.take();
}

}  // namespace ccov::engine::reference
