#include "proto/messages.hpp"

namespace harp::proto {

const char* to_string(MsgType t) {
  switch (t) {
    case MsgType::kPostIntf:
      return "POST-intf";
    case MsgType::kPutIntf:
      return "PUT-intf";
    case MsgType::kPostPart:
      return "POST-part";
    case MsgType::kPutPart:
      return "PUT-part";
    case MsgType::kCellAssign:
      return "cell-assign";
    case MsgType::kReject:
      return "reject";
  }
  return "?";
}

PartItem to_part_item(int layer, Direction dir, const core::Partition& p) {
  return PartItem{static_cast<std::uint8_t>(layer), dir,
                  static_cast<std::uint16_t>(p.comp.slots),
                  static_cast<std::uint8_t>(p.comp.channels),
                  static_cast<std::uint16_t>(p.slot),
                  static_cast<std::uint8_t>(p.channel)};
}

core::Partition from_part_item(const PartItem& item) {
  return core::Partition{{item.slots, item.channels},
                         item.slot,
                         item.channel};
}

std::size_t MessageStats::total() const {
  std::size_t n = 0;
  for (const auto& [type, c] : count) n += c;
  return n;
}

std::size_t MessageStats::total_bytes() const {
  std::size_t n = 0;
  for (const auto& [type, b] : bytes) n += b;
  return n;
}

std::size_t MessageStats::harp_overhead() const {
  std::size_t n = 0;
  for (const auto& [type, c] : count) {
    if (counts_as_harp_overhead(type)) n += c;
  }
  return n;
}

void MessageStats::clear() {
  count.clear();
  bytes.clear();
}

}  // namespace harp::proto
