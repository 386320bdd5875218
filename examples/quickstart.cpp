// Quickstart: build an optimal DRC-covering of K_n over the ring C_n,
// validate it, and print it.
//
//   ./quickstart [--n 9]

#include <iostream>

#include "ccov/covering/bounds.hpp"
#include "ccov/covering/construct.hpp"
#include "ccov/util/cli.hpp"

int main(int argc, char** argv) try {
  const ccov::util::Cli cli(argc, argv);
  const auto n = static_cast<std::uint32_t>(cli.get_int("n", 9));

  using namespace ccov::covering;
  std::cout << "All-to-all instance K_" << n << " on ring C_" << n << "\n"
            << "rho(" << n << ") = " << rho(n)
            << " (minimum number of protected sub-networks)\n\n";

  const RingCover cover = build_optimal_cover(n);
  std::cout << summary(cover) << "\n\ncycles:\n";
  for (const auto c : cover.cycles()) std::cout << "  " << to_string(c) << "\n";

  const auto rep = validate_cover(cover);
  std::cout << "\nvalidation: " << (rep.ok ? "OK" : rep.error)
            << " (duplicate coverage slots: " << rep.duplicate_coverage
            << ")\n";
  return rep.ok ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "quickstart: " << e.what() << "\n";
  return 1;
}
