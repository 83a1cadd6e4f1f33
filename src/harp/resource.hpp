// Resource components, interfaces and partitions (paper Defs. 1-2, Sec. IV).
//
// A resource COMPONENT C_{i,l} = [n^s, n^c] abstracts the cells needed by
// all the links of subtree G_{V_i} at layer l as an n^s-slots-by-n^c-channels
// rectangle. A resource INTERFACE I_i is the per-layer collection of
// components for one subtree — the compact summary a node reports to its
// parent. A PARTITION P_{i,l} = [C_{i,l}, t, c] pins a component to a
// concrete location in the slotframe.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "packing/rect.hpp"

namespace harp::core {

/// Definition 1: rectangular resource requirement of one subtree at one
/// layer. `slots` is the time dimension (n^s), `channels` the frequency
/// dimension (n^c). A default-constructed component is empty (no demand).
struct ResourceComponent {
  int slots{0};
  int channels{0};

  bool empty() const { return slots <= 0 || channels <= 0; }
  std::int64_t cells() const {
    return empty() ? 0
                   : static_cast<std::int64_t>(slots) * channels;
  }

  /// The packing-plane view used throughout: x/width = slots,
  /// y/height = channels.
  packing::Rect as_rect(std::uint64_t id) const {
    return {slots, channels, id};
  }

  friend auto operator<=>(const ResourceComponent&,
                          const ResourceComponent&) = default;
};

inline std::string to_string(const ResourceComponent& c) {
  return "[" + std::to_string(c.slots) + "," + std::to_string(c.channels) +
         "]";
}

/// A component placed in the slotframe: occupies slots
/// [slot, slot + comp.slots) x channels [channel, channel + comp.channels).
struct Partition {
  ResourceComponent comp;
  SlotId slot{0};
  ChannelId channel{0};

  bool empty() const { return comp.empty(); }
  SlotId end_slot() const { return slot + static_cast<SlotId>(comp.slots); }
  ChannelId end_channel() const {
    return channel + static_cast<ChannelId>(comp.channels);
  }

  bool contains(Cell cell) const {
    return !empty() && cell.slot >= slot && cell.slot < end_slot() &&
           cell.channel >= channel && cell.channel < end_channel();
  }

  bool overlaps(const Partition& o) const {
    return !empty() && !o.empty() && slot < o.end_slot() &&
           o.slot < end_slot() && channel < o.end_channel() &&
           o.channel < end_channel();
  }

  friend auto operator<=>(const Partition&, const Partition&) = default;
};

/// The partition of the child placed at `pl` inside its parent's
/// partition `base` (Sec. IV-C carve): `comp` is the child's component,
/// which must match the placement's size.
inline Partition child_partition(const Partition& base,
                                 const packing::Placement& pl,
                                 ResourceComponent comp) {
  HARP_ASSERT(comp.slots == pl.w && comp.channels == pl.h);
  return Partition{comp, base.slot + static_cast<SlotId>(pl.x),
                   base.channel + static_cast<ChannelId>(pl.y)};
}

inline std::string to_string(const Partition& p) {
  return to_string(p.comp) + "@(" + std::to_string(p.slot) + "," +
         std::to_string(p.channel) + ")";
}

/// Definition 2 plus composition layouts: for every node, the component it
/// reports per layer, and — for composed layers — where each direct
/// subtree's component sits inside the composite (relative slot/channel
/// offsets; placement id = child node id). The layout is what lets a
/// parent later carve its partition into child partitions (Sec. IV-C) and
/// is also the state Alg. 2 rearranges.
///
/// Storage is copy-on-write at two levels:
///   * per node — each node's per-layer interface lives behind a
///     shared_ptr, so the compose memo shares whole node interfaces with
///     the engine's live sets at zero copy cost (a still-valid node is
///     never copied);
///   * per set — the whole node table is itself shared, so copying an
///     InterfaceSet (engine save/restore snapshots, the memo's pristine
///     last result) is O(1) and an unchanged-node regeneration writes
///     nothing at all.
/// Any mutation first clones whatever is shared (the table, then the
/// node), which preserves value semantics and keeps cached snapshots
/// immutable after the live state drifts (dynamic adjustments).
class InterfaceSet {
 public:
  /// One layer of a node's interface.
  struct LayerIf {
    ResourceComponent comp;
    std::vector<packing::Placement> layout;

    friend bool operator==(const LayerIf&, const LayerIf&) = default;
  };
  /// One node's interface: layer -> entry as a flat array sorted by
  /// layer. Interfaces hold a handful of layers (own link layer plus the
  /// composed layers below), so a contiguous array beats a node-per-entry
  /// tree on every axis that matters here: ordered iteration for free,
  /// linear scans that stay inside a couple of cache lines, and — through
  /// the inline small buffer — zero allocations of its own for the
  /// typical interface, whose entries live right next to the shared_ptr
  /// control block make_shared puts in front (docs/KERNELS.md "Interface
  /// layout"). A null node pointer and an empty interface both mean "no
  /// interface".
  class NodeInterface {
   public:
    using value_type = std::pair<int, LayerIf>;
    using const_iterator = const value_type*;
    using iterator = value_type*;

    NodeInterface() = default;
    NodeInterface(const NodeInterface& o) { copy_from(o); }
    NodeInterface(NodeInterface&& o) noexcept { steal(o); }
    NodeInterface& operator=(const NodeInterface& o) {
      if (this != &o) {
        destroy();
        copy_from(o);
      }
      return *this;
    }
    NodeInterface& operator=(NodeInterface&& o) noexcept {
      if (this != &o) {
        destroy();
        steal(o);
      }
      return *this;
    }
    ~NodeInterface() { destroy(); }

    const_iterator begin() const { return data_; }
    const_iterator end() const { return data_ + size_; }
    iterator begin() { return data_; }
    iterator end() { return data_ + size_; }
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    const_iterator find(int layer) const {
      const_iterator it = begin();
      while (it != end() && it->first != layer) ++it;
      return it;
    }
    iterator find(int layer) {
      iterator it = begin();
      while (it != end() && it->first != layer) ++it;
      return it;
    }
    bool contains(int layer) const { return find(layer) != end(); }

    /// The entry for `layer`, inserted at its sorted position if absent
    /// (callers touch layers in arbitrary order during adjustments).
    LayerIf& operator[](int layer) {
      std::uint32_t i = 0;
      while (i < size_ && data_[i].first < layer) ++i;
      if (i == size_ || data_[i].first != layer) {
        insert_at(i, value_type{layer, LayerIf{}});
      }
      return data_[i].second;
    }

    /// Pre-sizes for a known layer count (derivation knows its exact
    /// upper bound), so a deep interface spills to the heap at most once.
    void reserve(std::size_t n) {
      if (n > cap_) grow(n);
    }

    /// Appends an entry known to follow every existing layer — the bulk
    /// build of derivation, where layers arrive ascending.
    LayerIf& append(int layer, LayerIf entry) {
      HARP_ASSERT(size_ == 0 || data_[size_ - 1].first < layer);
      if (size_ == cap_) grow(size_ + 1);
      new (data_ + size_) value_type{layer, std::move(entry)};
      return data_[size_++].second;
    }

    void erase(int layer) {
      const iterator it = find(layer);
      if (it == end()) return;
      for (iterator j = it; j + 1 != end(); ++j) *j = std::move(*(j + 1));
      data_[--size_].~value_type();
    }

    friend bool operator==(const NodeInterface& a, const NodeInterface& b) {
      if (a.size_ != b.size_) return false;
      for (std::uint32_t i = 0; i < a.size_; ++i) {
        if (a.data_[i] != b.data_[i]) return false;
      }
      return true;
    }

   private:
    /// Inline capacity 4 covers nearly every node (deep subtrees span few
    /// layers); only nodes near the gateway of a deep tree spill.
    static constexpr std::uint32_t kInline = 4;

    value_type* inline_ptr() {
      return reinterpret_cast<value_type*>(inline_);
    }
    bool is_inline() const {
      return data_ == reinterpret_cast<const value_type*>(inline_);
    }

    void destroy() {
      for (std::uint32_t i = 0; i < size_; ++i) data_[i].~value_type();
      if (!is_inline()) {
        ::operator delete(data_, std::align_val_t{alignof(value_type)});
      }
      data_ = inline_ptr();
      size_ = 0;
      cap_ = kInline;
    }

    void copy_from(const NodeInterface& o) {
      if (o.size_ > cap_) grow(o.size_);
      for (std::uint32_t i = 0; i < o.size_; ++i) {
        new (data_ + i) value_type(o.data_[i]);
      }
      size_ = o.size_;
    }

    /// Takes o's storage (heap) or contents (inline); o ends up empty but
    /// valid either way.
    void steal(NodeInterface& o) noexcept {
      if (o.is_inline()) {
        for (std::uint32_t i = 0; i < o.size_; ++i) {
          new (data_ + i) value_type(std::move(o.data_[i]));
          o.data_[i].~value_type();
        }
        size_ = o.size_;
      } else {
        data_ = o.data_;
        size_ = o.size_;
        cap_ = o.cap_;
        o.data_ = o.inline_ptr();
        o.cap_ = kInline;
      }
      o.size_ = 0;
    }

    void grow(std::uint32_t need) {
      std::uint32_t cap = cap_ * 2 > need ? cap_ * 2 : need;
      auto* fresh = static_cast<value_type*>(::operator new(
          cap * sizeof(value_type), std::align_val_t{alignof(value_type)}));
      for (std::uint32_t i = 0; i < size_; ++i) {
        new (fresh + i) value_type(std::move(data_[i]));
        data_[i].~value_type();
      }
      if (!is_inline()) {
        ::operator delete(data_, std::align_val_t{alignof(value_type)});
      }
      data_ = fresh;
      cap_ = cap;
    }

    void insert_at(std::uint32_t i, value_type v) {
      if (size_ == cap_) grow(size_ + 1);
      if (i == size_) {
        new (data_ + i) value_type(std::move(v));
      } else {
        new (data_ + size_) value_type(std::move(data_[size_ - 1]));
        for (std::uint32_t j = size_ - 1; j > i; --j) {
          data_[j] = std::move(data_[j - 1]);
        }
        data_[i] = std::move(v);
      }
      ++size_;
    }

    value_type* data_{reinterpret_cast<value_type*>(inline_)};
    std::uint32_t size_{0};
    std::uint32_t cap_{kInline};
    alignas(value_type) std::byte inline_[kInline * sizeof(value_type)];
  };

  InterfaceSet() = default;
  explicit InterfaceSet(std::size_t num_nodes);

  std::size_t num_nodes() const { return store_ ? store_->nodes.size() : 0; }

  /// Grows the set for newly joined nodes (empty interfaces).
  void resize(std::size_t num_nodes);

  /// C_{node,layer}; empty component when the subtree has no demand there.
  ResourceComponent component(NodeId node, int layer) const;
  void set_component(NodeId node, int layer, ResourceComponent c);

  /// Relative placements of the direct subtrees' components inside
  /// C_{node,layer} (x = slot offset, y = channel offset, id = child).
  /// Empty for own-layer components (their interior is a schedule, not
  /// sub-partitions).
  const std::vector<packing::Placement>& layout(NodeId node, int layer) const;
  void set_layout(NodeId node, int layer,
                  std::vector<packing::Placement> layout);

  /// Drops `child`'s placement from every layout of `node`: a departed
  /// subtree frees its rectangle, and its siblings keep theirs.
  void erase_placement(NodeId node, NodeId child);

  /// Layers at which `node` reports a non-empty component, ascending.
  std::vector<int> layers(NodeId node) const;

  /// Sum of cells over one node's interface.
  std::int64_t interface_cells(NodeId node) const;

  /// Borrowed read-only view of the node's interface map, or nullptr when
  /// the node carries none. Never allocates — the composition hot path
  /// walks children's maps through it (docs/KERNELS.md "Gather"). The
  /// pointer is invalidated by any mutation of this set.
  const NodeInterface* peek(NodeId node) const {
    HARP_ASSERT(node < num_nodes());
    return store_->nodes[node].get();
  }

  /// Replaces the node's whole interface with a shared snapshot — O(1),
  /// no copy. Later mutations of this set clone before writing, so the
  /// snapshot's owner never observes them.
  void set_node_interface(NodeId node,
                          std::shared_ptr<const NodeInterface> interface);

  /// True when the node carries any interface storage at all (an
  /// O(1) check; an empty map also counts as no interface content).
  bool has_interface(NodeId node) const;

  /// Drops the node's interface entirely (equivalent to a node that was
  /// never derived). Incremental regeneration clears a stale node before
  /// re-deriving it so no layer of the old snapshot survives.
  void clear_node(NodeId node);

  /// Deep equality (components and layouts, not pointer identity). The
  /// audit layer compares snapshots against post-rollback state to prove
  /// an undo was lossless.
  friend bool operator==(const InterfaceSet& a, const InterfaceSet& b);

 private:
  /// The shared node table. Copying an InterfaceSet copies only the
  /// pointer; mutable_store() clones the table on first write.
  struct Store {
    std::vector<std::shared_ptr<NodeInterface>> nodes;
  };

  /// The table for writing: allocated if absent, cloned first if shared.
  Store& mutable_store();

  /// The node's interface for writing: allocated if absent, cloned first
  /// if shared (copy-on-write at both levels).
  NodeInterface& mutable_node(NodeId node);

  std::shared_ptr<Store> store_;

  static const std::vector<packing::Placement> kEmptyLayout;
};

}  // namespace harp::core
