#pragma once

// Shared plumbing for the experiment binaries: --csv output, titled
// sections, and a tiny argument parser. Every binary runs with no arguments
// and prints the paper-shaped tables to stdout.

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/wmsn.hpp"
#include "util/csv.hpp"
#include "util/parse.hpp"
#include "util/require.hpp"

namespace wmsn::bench {

/// A count flag's value, parsed strictly: a bad one ("abc", "-1", more than
/// an unsigned holds) prints one line and exits 2 instead of aborting or
/// wrapping.
inline unsigned parseUintFlag(const std::string& flag,
                              const std::string& text) {
  try {
    const std::uint64_t v = parseUint(flag, text);
    if (v > std::numeric_limits<unsigned>::max())
      throw PreconditionError(flag + ": out of range: '" + text + "'");
    return static_cast<unsigned>(v);
  } catch (const PreconditionError& e) {
    std::cerr << e.what() << "\n";
    std::exit(2);
  }
}

struct BenchArgs {
  std::optional<std::string> csvPath;
  unsigned threads = 0;  ///< 0 = hardware concurrency
};

inline BenchArgs parseArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--csv" && i + 1 < argc) {
      args.csvPath = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      args.threads = parseUintFlag(arg, argv[++i]);
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: " << argv[0]
                << " [--csv <path>] [--threads <n>]\n";
      std::exit(0);
    }
  }
  return args;
}

inline void banner(const std::string& experimentId, const std::string& title,
                   const std::string& paperClaim) {
  std::cout << "================================================================\n"
            << experimentId << " — " << title << "\n"
            << "paper: " << paperClaim << "\n"
            << "================================================================\n\n";
}

inline void maybeWriteCsv(const BenchArgs& args, const CsvWriter& csv) {
  if (!args.csvPath) return;
  csv.writeFile(*args.csvPath);
  std::cout << "(csv written to " << *args.csvPath << ")\n";
}

}  // namespace wmsn::bench
