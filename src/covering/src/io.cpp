#include "ccov/covering/io.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace ccov::covering {

void write_cover(std::ostream& os, const RingCover& cover) {
  os << "drc-cover v1\n";
  os << "n " << cover.n << "\n";
  os << "cycles " << cover.size() << "\n";
  for (const auto c : cover.cycles()) {
    os << c.size();
    for (Vertex v : c) os << ' ' << v;
    os << '\n';
  }
}

RingCover read_cover(std::istream& is) {
  std::string magic, version;
  if (!(is >> magic >> version) || magic != "drc-cover" || version != "v1")
    throw std::runtime_error("read_cover: bad header");
  std::string key;
  RingCover cover;
  std::size_t count = 0;
  if (!(is >> key >> cover.n) || key != "n")
    throw std::runtime_error("read_cover: missing ring size");
  if (!(is >> key >> count) || key != "cycles")
    throw std::runtime_error("read_cover: missing cycle count");
  // Trust the header's count only so far: a tampered file cannot size an
  // allocation before its cycles are read.
  cover.offsets.reserve(std::min<std::size_t>(count, std::size_t{1} << 16));
  Cycle c;
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t k = 0;
    if (!(is >> k) || k < 3)
      throw std::runtime_error("read_cover: bad cycle length");
    c.resize(k);
    for (std::size_t j = 0; j < k; ++j)
      if (!(is >> c[j]))
        throw std::runtime_error("read_cover: truncated cycle");
    cover.add(c);
  }
  return cover;
}

void save_cover(const std::string& path, const RingCover& cover) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_cover: cannot open " + path);
  write_cover(out, cover);
  if (!out) throw std::runtime_error("save_cover: write failed " + path);
}

RingCover load_cover(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_cover: cannot open " + path);
  return read_cover(in);
}

}  // namespace ccov::covering
