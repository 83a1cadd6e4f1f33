// HARP wire messages (paper Table I + Sec. VI-A).
//
// HARP is an application-layer protocol; the testbed carries it over CoAP
// with two URIs (intf, part) and two methods (POST for the static phase,
// PUT for dynamic adjustment). We model each handler as a typed message:
//   POST intf  -> MsgType::kPostIntf  child reports its interface
//   PUT  intf  -> MsgType::kPutIntf   child reports an updated interface
//   POST part  -> MsgType::kPostPart  parent grants initial partitions
//   PUT  part  -> MsgType::kPutPart   parent grants an updated partition
// plus two auxiliary messages a running network needs: cell assignments
// (schedule updates to a child; data-plane, not counted as HARP overhead)
// and rejection notices for denied adjustment requests.
#pragma once

#include <cstdint>
#include <map>
#include <variant>
#include <vector>

#include "common/types.hpp"
#include "harp/resource.hpp"

namespace harp::proto {

enum class MsgType : std::uint8_t {
  kPostIntf = 0,
  kPutIntf = 1,
  kPostPart = 2,
  kPutPart = 3,
  kCellAssign = 4,
  kReject = 5,
};

const char* to_string(MsgType t);

/// True for the messages Table II's "Msg." column counts (interface and
/// partition exchanges); cell assignments and rejections ride along with
/// normal data traffic in the paper's accounting.
inline bool counts_as_harp_overhead(MsgType t) {
  return t == MsgType::kPostIntf || t == MsgType::kPutIntf ||
         t == MsgType::kPostPart || t == MsgType::kPutPart;
}

/// One (layer, direction) component of a reported interface.
struct IntfItem {
  std::uint8_t layer{0};
  Direction dir{Direction::kUp};
  std::uint16_t slots{0};
  std::uint8_t channels{0};
};

/// POST/PUT intf payload: the sender's subtree interface (or, for PUT, the
/// updated components only).
struct IntfPayload {
  std::vector<IntfItem> items;
};

/// One granted partition.
struct PartItem {
  std::uint8_t layer{0};
  Direction dir{Direction::kUp};
  std::uint16_t slots{0};
  std::uint8_t channels{0};
  std::uint16_t slot{0};     // t: starting slot in the slotframe
  std::uint8_t channel{0};   // c: lowest channel index
};

/// POST/PUT part payload: partitions for the receiver's subtree.
struct PartPayload {
  std::vector<PartItem> items;
};

/// One scheduled cell for the receiver's link to the sender.
struct CellItem {
  Direction dir{Direction::kUp};
  std::uint16_t slot{0};
  std::uint8_t channel{0};
};

/// Cell assignment for the receiving child's link (replaces prior cells
/// of the given directions).
struct CellAssignPayload {
  std::vector<CellItem> items;
  std::uint8_t dirs_replaced{0};  // bit 0: up, bit 1: down
};

/// Adjustment denial, unwinding a pending PUT-intf.
struct RejectPayload {
  std::uint8_t layer{0};
  Direction dir{Direction::kUp};
};

struct Message {
  MsgType type{MsgType::kPostIntf};
  NodeId src{kNoNode};
  NodeId dst{kNoNode};
  std::variant<IntfPayload, PartPayload, CellAssignPayload, RejectPayload>
      payload{IntfPayload{}};
};

/// Messages by type with their encoded sizes (rt::Channel counts what
/// its senders hand it, through the real codec, so the bytes match what
/// the radio would carry).
struct MessageStats {
  std::map<MsgType, std::size_t> count;
  std::map<MsgType, std::size_t> bytes;
  std::size_t total() const;
  std::size_t total_bytes() const;
  /// Messages Table II counts (POST/PUT intf/part only).
  std::size_t harp_overhead() const;
  void clear();
};

/// Converts between the resource model and wire items.
PartItem to_part_item(int layer, Direction dir, const core::Partition& p);
core::Partition from_part_item(const PartItem& item);

}  // namespace harp::proto
