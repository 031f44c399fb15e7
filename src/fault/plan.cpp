#include "fault/plan.hpp"

#include <cctype>
#include <limits>

#include "util/parse.hpp"
#include "util/require.hpp"

namespace wmsn::fault {

std::string toString(FaultTargetKind kind) {
  switch (kind) {
    case FaultTargetKind::kSensor: return "sensor";
    case FaultTargetKind::kGateway: return "gateway";
  }
  return "unknown";
}

double GilbertElliottParams::steadyStateLoss() const {
  const double denom = pGoodToBad + pBadToGood;
  if (denom <= 0.0) return lossGood;
  const double piBad = pGoodToBad / denom;
  return piBad * lossBad + (1.0 - piBad) * lossGood;
}

namespace {

/// A 32-bit field of a fault event: digits only (the caller scanned them),
/// and no value past what the field holds.
std::uint32_t parseField(const std::string& item, const char* field,
                         const std::string& digits) {
  const std::string what = "fault event '" + item + "' " + field;
  const std::uint64_t value = parseUint(what, digits);
  if (value > std::numeric_limits<std::uint32_t>::max())
    throw PreconditionError(what + ": out of range: '" + digits + "'");
  return static_cast<std::uint32_t>(value);
}

FaultEvent parseEvent(const std::string& item) {
  FaultEvent event;
  std::size_t pos = 0;
  if (item.rfind("gw", 0) == 0) {
    event.target = FaultTargetKind::kGateway;
    pos = 2;
  } else if (!item.empty() && item[0] == 's') {
    event.target = FaultTargetKind::kSensor;
    pos = 1;
  } else {
    throw PreconditionError("fault event '" + item +
                            "': expected 's<n>' or 'gw<n>' target");
  }

  std::size_t digits = 0;
  while (pos + digits < item.size() &&
         std::isdigit(static_cast<unsigned char>(item[pos + digits])))
    ++digits;
  WMSN_REQUIRE_MSG(digits > 0,
                   "fault event '" + item + "': missing target ordinal");
  event.ordinal = parseField(item, "ordinal", item.substr(pos, digits));
  pos += digits;

  if (pos < item.size() && item[pos] == '+') {
    event.recover = true;
    ++pos;
  }
  WMSN_REQUIRE_MSG(pos < item.size() && item[pos] == '@',
                   "fault event '" + item + "': expected '@<round>'");
  ++pos;
  WMSN_REQUIRE_MSG(pos < item.size(),
                   "fault event '" + item + "': missing round");
  for (std::size_t i = pos; i < item.size(); ++i)
    WMSN_REQUIRE_MSG(std::isdigit(static_cast<unsigned char>(item[i])),
                     "fault event '" + item + "': malformed round");
  event.round = parseField(item, "round", item.substr(pos));
  return event;
}

}  // namespace

std::vector<FaultEvent> parseFaultPlan(const std::string& spec) {
  std::vector<FaultEvent> events;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(start, end - start);
    if (!item.empty()) events.push_back(parseEvent(item));
    if (end == spec.size()) break;
    start = end + 1;
  }
  WMSN_REQUIRE_MSG(!events.empty(),
                   "fault plan '" + spec + "' contains no events");
  return events;
}

}  // namespace wmsn::fault
