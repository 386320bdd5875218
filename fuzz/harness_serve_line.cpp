#include "harnesses.hpp"

#include <cstdlib>
#include <string>

#include "ccov/engine/serve.hpp"
#include "reference_parse.hpp"

namespace eng = ccov::engine;

/// Differential check of the serve-line parser: the input bytes are one
/// line. Aborts when parse_serve_line differs from the DOM parser kept in
/// tests/reference_parse.hpp in its return value, error text, verb or any
/// CoverRequest field.
int ccov_fuzz_serve_line(const std::uint8_t* data, std::size_t size) {
  const std::string line(reinterpret_cast<const char*>(data), size);
  if (eng::reference::parse_outcome(eng::parse_serve_line, line) !=
      eng::reference::parse_outcome(eng::reference::parse_serve_line, line))
    std::abort();
  return 0;
}
