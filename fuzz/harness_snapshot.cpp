#include "harnesses.hpp"

#include <cstdlib>
#include <string>

#include "reference_store.hpp"

/// Differential: the chunked decoder (store.cpp) against the per-field
/// istream decoder it replaced (tests/reference_store.hpp). Both must
/// accept and reject the same streams with the same error text and
/// leave equal entries behind. The loader must reject hostile sizes
/// *before* sizing any allocation, so a corrupt count or length is a
/// clean rejection here, never a bad_alloc.
int ccov_fuzz_snapshot(const std::uint8_t* data, std::size_t size) {
  const std::string bytes(reinterpret_cast<const char*>(data), size);
  if (!ccov::engine::reference::loads_agree(bytes)) std::abort();
  return 0;
}
