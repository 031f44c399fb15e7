#include "util/parse.hpp"

#include <cmath>

#include "util/require.hpp"

namespace wmsn {

std::uint64_t parseUint(const std::string& what, const std::string& text) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos)
    throw PreconditionError(what + ": not a non-negative integer: '" + text +
                            "'");
  try {
    return std::stoull(text);
  } catch (const std::out_of_range&) {
    throw PreconditionError(what + ": out of range: '" + text + "'");
  }
}

double parseDouble(const std::string& what, const std::string& text) {
  try {
    std::size_t used = 0;
    const double v = std::stod(text, &used);
    if (used == text.size() && std::isfinite(v)) return v;
  } catch (const std::exception&) {
    // invalid_argument / out_of_range: reported below like trailing junk.
  }
  throw PreconditionError(what + ": not a number: '" + text + "'");
}

}  // namespace wmsn
