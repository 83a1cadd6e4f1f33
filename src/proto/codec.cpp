#include "proto/codec.hpp"

#include "common/error.hpp"

namespace harp::proto {
namespace {

// Wire layout:
//   u8  type | u32 src | u32 dst | u16 item_count   (11-byte header)
// followed by item_count records whose layout depends on type:
//   intf  : u8 layer | u8 dir | u16 slots | u8 channels            (5 B)
//   part  : u8 layer | u8 dir | u16 slots | u8 channels
//           | u16 slot | u8 channel                                (8 B)
//   cells : u8 dir | u16 slot | u8 channel                         (4 B)
//           (cell messages additionally carry a u8 dirs_replaced
//            immediately after the header)
//   reject: u8 layer | u8 dir                                      (2 B)

class Writer {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v & 0xff));
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v & 0xffff));
    u16(static_cast<std::uint16_t>(v >> 16));
  }
  std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  std::vector<std::uint8_t> out_;
};

class Reader {
 public:
  explicit Reader(const std::vector<std::uint8_t>& bytes) : bytes_(bytes) {}
  std::uint8_t u8() {
    need(1);
    return bytes_[pos_++];
  }
  std::uint16_t u16() {
    need(2);
    const std::uint16_t v = static_cast<std::uint16_t>(
        bytes_[pos_] | (static_cast<std::uint16_t>(bytes_[pos_ + 1]) << 8));
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    const std::uint32_t lo = u16();
    return lo | (static_cast<std::uint32_t>(u16()) << 16);
  }
  bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  void need(std::size_t n) const {
    if (pos_ + n > bytes_.size()) throw Error("truncated HARP message");
  }
  const std::vector<std::uint8_t>& bytes_;
  std::size_t pos_ = 0;
};

Direction dir_from(std::uint8_t v) {
  if (v > 1) throw Error("bad direction byte");
  return v == 0 ? Direction::kUp : Direction::kDown;
}

std::uint8_t dir_to(Direction d) { return d == Direction::kUp ? 0 : 1; }

std::size_t item_count(const Message& msg) {
  return std::visit(
      [](const auto& p) -> std::size_t {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, RejectPayload>) {
          return 1;
        } else {
          return p.items.size();
        }
      },
      msg.payload);
}

}  // namespace

std::vector<std::uint8_t> encode(const Message& msg) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(msg.type));
  w.u32(msg.src);
  w.u32(msg.dst);
  w.u16(static_cast<std::uint16_t>(item_count(msg)));

  switch (msg.type) {
    case MsgType::kPostIntf:
    case MsgType::kPutIntf: {
      const auto& p = std::get<IntfPayload>(msg.payload);
      for (const IntfItem& it : p.items) {
        w.u8(it.layer);
        w.u8(dir_to(it.dir));
        w.u16(it.slots);
        w.u8(it.channels);
      }
      break;
    }
    case MsgType::kPostPart:
    case MsgType::kPutPart: {
      const auto& p = std::get<PartPayload>(msg.payload);
      for (const PartItem& it : p.items) {
        w.u8(it.layer);
        w.u8(dir_to(it.dir));
        w.u16(it.slots);
        w.u8(it.channels);
        w.u16(it.slot);
        w.u8(it.channel);
      }
      break;
    }
    case MsgType::kCellAssign: {
      const auto& p = std::get<CellAssignPayload>(msg.payload);
      w.u8(p.dirs_replaced);
      for (const CellItem& it : p.items) {
        w.u8(dir_to(it.dir));
        w.u16(it.slot);
        w.u8(it.channel);
      }
      break;
    }
    case MsgType::kReject: {
      const auto& p = std::get<RejectPayload>(msg.payload);
      w.u8(p.layer);
      w.u8(dir_to(p.dir));
      break;
    }
  }
  return w.take();
}

Message decode(const std::vector<std::uint8_t>& bytes) {
  Reader r(bytes);
  Message msg;
  const std::uint8_t type = r.u8();
  if (type > static_cast<std::uint8_t>(MsgType::kReject)) {
    throw Error("unknown HARP message type " + std::to_string(type));
  }
  msg.type = static_cast<MsgType>(type);
  msg.src = r.u32();
  msg.dst = r.u32();
  const std::uint16_t count = r.u16();

  switch (msg.type) {
    case MsgType::kPostIntf:
    case MsgType::kPutIntf: {
      IntfPayload p;
      p.items.reserve(count);
      for (std::uint16_t i = 0; i < count; ++i) {
        IntfItem it;
        it.layer = r.u8();
        it.dir = dir_from(r.u8());
        it.slots = r.u16();
        it.channels = r.u8();
        p.items.push_back(it);
      }
      msg.payload = std::move(p);
      break;
    }
    case MsgType::kPostPart:
    case MsgType::kPutPart: {
      PartPayload p;
      p.items.reserve(count);
      for (std::uint16_t i = 0; i < count; ++i) {
        PartItem it;
        it.layer = r.u8();
        it.dir = dir_from(r.u8());
        it.slots = r.u16();
        it.channels = r.u8();
        it.slot = r.u16();
        it.channel = r.u8();
        p.items.push_back(it);
      }
      msg.payload = std::move(p);
      break;
    }
    case MsgType::kCellAssign: {
      CellAssignPayload p;
      p.dirs_replaced = r.u8();
      p.items.reserve(count);
      for (std::uint16_t i = 0; i < count; ++i) {
        CellItem it;
        it.dir = dir_from(r.u8());
        it.slot = r.u16();
        it.channel = r.u8();
        p.items.push_back(it);
      }
      msg.payload = std::move(p);
      break;
    }
    case MsgType::kReject: {
      // encode() always writes 1: any other count has no canonical form.
      if (count != 1) throw Error("REJECT item_count must be 1");
      RejectPayload p;
      p.layer = r.u8();
      p.dir = dir_from(r.u8());
      msg.payload = p;
      break;
    }
  }
  if (!r.exhausted()) throw Error("trailing bytes in HARP message");
  return msg;
}

std::size_t encoded_size(const Message& msg) {
  constexpr std::size_t kHeader = 1 + 4 + 4 + 2;
  switch (msg.type) {
    case MsgType::kPostIntf:
    case MsgType::kPutIntf:
      return kHeader + 5 * item_count(msg);
    case MsgType::kPostPart:
    case MsgType::kPutPart:
      return kHeader + 8 * item_count(msg);
    case MsgType::kCellAssign:
      return kHeader + 1 + 4 * item_count(msg);
    case MsgType::kReject:
      return kHeader + 2;
  }
  return kHeader;
}

bool fits_single_frame(const Message& msg) {
  // 127-byte 802.15.4 MTU minus MAC/6LoWPAN/UDP/CoAP overhead leaves
  // roughly 81 bytes for the HARP payload.
  return encoded_size(msg) <= 81;
}

}  // namespace harp::proto
