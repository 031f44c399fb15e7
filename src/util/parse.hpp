#pragma once

#include <cstdint>
#include <string>

namespace wmsn {

/// Strict parsers for numbers a user typed: CLI flag values and campaign spec
/// values. All of `text` must be the number — no sign on an unsigned value,
/// no trailing characters, nothing out of range, no inf/nan. On failure both
/// throw PreconditionError("<what>: <reason>: '<text>'"), one line a front
/// end can print before exiting 2.
std::uint64_t parseUint(const std::string& what, const std::string& text);
double parseDouble(const std::string& what, const std::string& text);

}  // namespace wmsn
