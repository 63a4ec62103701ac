#include "fabric/fault_plan.h"

#include <cstdlib>
#include <limits>
#include <sstream>

#include "calib/calibration.h"
#include "common/parse.h"
#include "fabric/topology.h"

namespace tca::fabric {

const char* to_string(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::kLinkDown: return "flap";
    case FaultEvent::Kind::kLinkUp: return "up";
    case FaultEvent::Kind::kBerBurst: return "ber";
    case FaultEvent::Kind::kStuckDoorbell: return "stuck";
  }
  return "?";
}

FaultPlan& FaultPlan::flap(std::uint32_t cable, TimePs at, TimePs duration) {
  events.push_back({.kind = FaultEvent::Kind::kLinkDown,
                    .at = at,
                    .duration = duration,
                    .cable = cable});
  return *this;
}

FaultPlan& FaultPlan::cut(std::uint32_t cable, TimePs at) {
  events.push_back(
      {.kind = FaultEvent::Kind::kLinkDown, .at = at, .cable = cable});
  return *this;
}

FaultPlan& FaultPlan::up(std::uint32_t cable, TimePs at) {
  events.push_back(
      {.kind = FaultEvent::Kind::kLinkUp, .at = at, .cable = cable});
  return *this;
}

FaultPlan& FaultPlan::ber_burst(std::uint32_t cable, TimePs at,
                                TimePs duration, double rate) {
  events.push_back({.kind = FaultEvent::Kind::kBerBurst,
                    .at = at,
                    .duration = duration,
                    .cable = cable,
                    .ber = rate});
  return *this;
}

FaultPlan& FaultPlan::stuck_doorbell(std::uint32_t node, int channel,
                                     TimePs at, TimePs duration) {
  events.push_back({.kind = FaultEvent::Kind::kStuckDoorbell,
                    .at = at,
                    .duration = duration,
                    .node = node,
                    .channel = channel});
  return *this;
}

namespace {

Status parse_error(std::string_view spec, const std::string& why) {
  return {ErrorCode::kInvalidArgument,
          "fault plan \"" + std::string(spec) + "\": " + why};
}

/// Parses "5us" / "100ns" / "1ms" / "2s" / bare picoseconds.
bool parse_time(std::string_view v, TimePs* out) {
  char* end = nullptr;
  const std::string s(v);
  const double num = std::strtod(s.c_str(), &end);
  if (end == s.c_str()) return false;
  const std::string_view suffix(end);
  double scale = 1;  // bare = ps
  if (suffix == "ps") scale = 1;
  else if (suffix == "ns") scale = 1e3;
  else if (suffix == "us") scale = 1e6;
  else if (suffix == "ms") scale = 1e9;
  else if (suffix == "s") scale = 1e12;
  else if (!suffix.empty()) return false;
  *out = static_cast<TimePs>(num * scale);
  return *out >= 0;
}

bool parse_double(std::string_view v, double* out) {
  char* end = nullptr;
  const std::string s(v);
  *out = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size() && *out >= 0;
}

/// Key bits for the per-kind allowed sets and duplicate detection.
enum KeyBit : unsigned {
  kKeyCable = 1u << 0,
  kKeyNode = 1u << 1,
  kKeyCh = 1u << 2,
  kKeyAt = 1u << 3,
  kKeyFor = 1u << 4,
  kKeyRate = 1u << 5,
};

unsigned allowed_keys(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::kLinkDown: return kKeyCable | kKeyAt | kKeyFor;
    case FaultEvent::Kind::kLinkUp: return kKeyCable | kKeyAt;
    case FaultEvent::Kind::kBerBurst:
      return kKeyCable | kKeyAt | kKeyFor | kKeyRate;
    case FaultEvent::Kind::kStuckDoorbell:
      return kKeyNode | kKeyCh | kKeyAt | kKeyFor;
  }
  return 0;
}

}  // namespace

Result<FaultPlan> FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t semi = spec.find(';', pos);
    if (semi == std::string_view::npos) semi = spec.size();
    const std::string_view item = spec.substr(pos, semi - pos);
    pos = semi + 1;
    if (item.empty()) continue;

    const std::size_t colon = item.find(':');
    if (colon == std::string_view::npos) {
      return parse_error(spec, "missing ':' in \"" + std::string(item) + "\"");
    }
    const std::string_view kind_name = item.substr(0, colon);

    FaultEvent e;
    if (kind_name == "flap" || kind_name == "cut") {
      e.kind = FaultEvent::Kind::kLinkDown;
    } else if (kind_name == "up") {
      e.kind = FaultEvent::Kind::kLinkUp;
    } else if (kind_name == "ber") {
      e.kind = FaultEvent::Kind::kBerBurst;
    } else if (kind_name == "stuck") {
      e.kind = FaultEvent::Kind::kStuckDoorbell;
    } else {
      return parse_error(spec,
                         "unknown kind \"" + std::string(kind_name) + "\"");
    }

    const unsigned allowed = allowed_keys(e.kind);
    unsigned seen = 0;
    std::size_t kpos = colon + 1;
    while (kpos < item.size()) {
      std::size_t comma = item.find(',', kpos);
      if (comma == std::string_view::npos) comma = item.size();
      const std::string_view kv = item.substr(kpos, comma - kpos);
      kpos = comma + 1;
      const std::size_t eq = kv.find('=');
      if (eq == std::string_view::npos) {
        return parse_error(spec, "missing '=' in \"" + std::string(kv) + "\"");
      }
      const std::string_view key = kv.substr(0, eq);
      const std::string_view value = kv.substr(eq + 1);
      unsigned bit = 0;
      bool ok = true;
      if (key == "cable") {
        bit = kKeyCable;
        ok = parse_unsigned(value, &e.cable);
      } else if (key == "node") {
        bit = kKeyNode;
        ok = parse_unsigned(value, &e.node);
      } else if (key == "ch") {
        bit = kKeyCh;
        std::uint32_t ch = 0;
        ok = parse_unsigned(value, &ch) &&
             ch <= static_cast<std::uint32_t>(std::numeric_limits<int>::max());
        e.channel = static_cast<int>(ch);
      } else if (key == "at") {
        bit = kKeyAt;
        ok = parse_time(value, &e.at);
      } else if (key == "for") {
        bit = kKeyFor;
        ok = parse_time(value, &e.duration);
      } else if (key == "rate") {
        bit = kKeyRate;
        ok = parse_double(value, &e.ber);
      } else {
        return parse_error(spec, "unknown key \"" + std::string(key) + "\"");
      }
      if ((allowed & bit) == 0) {
        return parse_error(spec, "key \"" + std::string(key) +
                                     "\" is not valid for \"" +
                                     std::string(kind_name) + "\"");
      }
      if ((seen & bit) != 0) {
        return parse_error(spec, "duplicate key \"" + std::string(key) +
                                     "\" in \"" + std::string(item) + "\"");
      }
      seen |= bit;
      if (!ok) {
        return parse_error(spec, "bad value \"" + std::string(value) +
                                     "\" for " + std::string(key));
      }
    }

    if (e.kind == FaultEvent::Kind::kBerBurst &&
        (e.ber <= 0 || e.duration <= 0)) {
      return parse_error(spec, "ber needs rate>0 and for>0");
    }
    if (e.kind == FaultEvent::Kind::kStuckDoorbell && e.duration <= 0) {
      return parse_error(spec, "stuck needs for>0");
    }
    plan.events.push_back(e);
  }
  return plan;
}

std::string to_string(const FaultEvent& e) {
  std::ostringstream out;
  out << to_string(e.kind) << ":at=" << e.at << "ps";
  switch (e.kind) {
    case FaultEvent::Kind::kLinkDown:
    case FaultEvent::Kind::kLinkUp:
      out << ",cable=" << e.cable;
      break;
    case FaultEvent::Kind::kBerBurst:
      out << ",cable=" << e.cable << ",rate=" << e.ber;
      break;
    case FaultEvent::Kind::kStuckDoorbell:
      out << ",node=" << e.node << ",ch=" << e.channel;
      break;
  }
  // kLinkUp has no duration key (parse rejects "for" on "up"); a stray
  // duration on such an event must not leak into the canonical form.
  if (e.duration > 0 && e.kind != FaultEvent::Kind::kLinkUp) {
    out << ",for=" << e.duration << "ps";
  }
  return out.str();
}

std::string FaultPlan::to_string() const {
  std::string out;
  for (const FaultEvent& e : events) {
    if (!out.empty()) out += ';';
    out += fabric::to_string(e);
  }
  return out;
}

Status FaultPlan::validate(const TopologySpec& topo) const {
  const std::uint32_t cables = topo.cable_count();
  const std::uint32_t nodes = topo.node_count();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& e = events[i];
    const auto fail = [&](const std::string& why) {
      return Status{ErrorCode::kInvalidArgument,
                    "fault plan event " + std::to_string(i) + " (" +
                        fabric::to_string(e) + "): " + why};
    };
    if (e.at < 0) return fail("event time must be >= 0");
    if (e.duration < 0) return fail("duration must be >= 0");
    switch (e.kind) {
      case FaultEvent::Kind::kLinkDown:
      case FaultEvent::Kind::kLinkUp:
      case FaultEvent::Kind::kBerBurst:
        if (e.cable >= cables) {
          return fail("cable " + std::to_string(e.cable) +
                      " out of range: topology " + topo.to_string() +
                      " has " + std::to_string(cables) + " cables");
        }
        break;
      case FaultEvent::Kind::kStuckDoorbell:
        if (e.node >= nodes) {
          return fail("node " + std::to_string(e.node) +
                      " out of range: topology " + topo.to_string() +
                      " has " + std::to_string(nodes) + " nodes");
        }
        if (e.channel < 0 || e.channel >= calib::kDmaChannels) {
          return fail("channel " + std::to_string(e.channel) +
                      " out of range: DMAC has " +
                      std::to_string(calib::kDmaChannels) + " channels");
        }
        break;
    }
    if (e.kind == FaultEvent::Kind::kBerBurst &&
        (e.ber <= 0 || e.ber > 1 || e.duration <= 0)) {
      return fail("ber burst needs rate in (0, 1] and for > 0");
    }
    if (e.kind == FaultEvent::Kind::kStuckDoorbell && e.duration <= 0) {
      return fail("stuck doorbell needs for > 0");
    }
  }
  return Status::ok();
}

}  // namespace tca::fabric
