#include "harp/adjustment.hpp"

#include <algorithm>
#include <cstdlib>
#include <optional>

#include "common/error.hpp"
#include "obs/obs.hpp"
#include "packing/maxrects.hpp"
#include "packing/skyline.hpp"

namespace harp::core {
namespace {

using packing::Dim;
using packing::FixedBinPacker;
using packing::Placement;
using packing::Rect;

/// Packs `loose` into the box around the `fixed` obstacles. Tries MaxRects
/// first; when nothing is fixed (full repack) also tries the bounded
/// best-fit skyline in both orientations, mirroring Alg. 2 line 15.
std::optional<std::vector<Placement>> pack_around(
    const ResourceComponent& box, const std::vector<Placement>& fixed,
    const std::vector<Rect>& loose) {
  FixedBinPacker bin(box.slots, box.channels);
  for (const Placement& f : fixed) bin.block(f);
  if (auto placed = bin.try_pack(loose)) return placed;

  if (fixed.empty()) {
    // Full repack (Alg. 2 line 15). Rects are (w = slots, h = channels).
    // Strip laid along the slot axis, channel usage bounded: placements
    // come out directly in (x = slot, y = channel) coordinates.
    if (auto r = packing::pack_strip_bounded(loose, box.slots, box.channels)) {
      return r->placements;
    }
    // Strip laid along the channel axis: transpose in, transpose out.
    std::vector<Rect> transposed = loose;
    for (auto& t : transposed) std::swap(t.w, t.h);
    if (auto r =
            packing::pack_strip_bounded(transposed, box.channels, box.slots)) {
      return packing::transpose(r->placements);
    }
  }
  return std::nullopt;
}

Dim manhattan(const Placement& a, const Placement& b) {
  // Distance between rectangle centers, doubled to stay integral.
  const Dim ax = 2 * a.x + a.w, ay = 2 * a.y + a.h;
  const Dim bx = 2 * b.x + b.w, by = 2 * b.y + b.h;
  return std::abs(ax - bx) + std::abs(ay - by);
}

}  // namespace

namespace {

/// The zero-disruption candidate: the grown component stays at its
/// current position, extended toward `side` in slots and upward in
/// channels. Returns the placement when it fits the box without touching
/// any fixed sibling.
std::optional<Placement> in_place_candidate(
    const ResourceComponent& box, const std::vector<Placement>& fixed,
    const Placement& reference, const ResourceComponent& updated,
    NodeId child_j, GrowSide side) {
  const Dim x = side == GrowSide::kRight
                    ? reference.x
                    : reference.x + reference.w - updated.slots;
  const Placement cand{x, reference.y, updated.slots, updated.channels,
                       static_cast<std::uint64_t>(child_j)};
  if (cand.x < 0 || !cand.inside(box.slots, box.channels)) {
    return std::nullopt;
  }
  for (const Placement& f : fixed) {
    if (cand.overlaps(f)) return std::nullopt;
  }
  return cand;
}

}  // namespace

AdjustOutcome adjust_partition_layout(
    const ResourceComponent& box,
    const std::vector<packing::Placement>& current_layout, NodeId child_j,
    const ResourceComponent& updated, GrowSide side) {
  if (updated.empty()) {
    throw InvalidArgument("updated component must be non-empty");
  }
  HARP_OBS_SCOPE("harp.adjust.layout_ns");
  static const obs::InstrumentId kLayoutCalls =
      obs::intern_counter("harp.adjust.layout_calls");
  obs::MetricsRegistry::global().counter(kLayoutCalls).inc();
  AdjustOutcome out;
  if (updated.slots > box.slots || updated.channels > box.channels) {
    return out;  // cannot possibly fit
  }

  // Reference position for "closest partition first": j's current
  // placement, or the box origin for a brand-new subtree.
  Placement reference{0, 0, updated.slots, updated.channels,
                      static_cast<std::uint64_t>(child_j)};
  bool has_reference = false;
  std::vector<Placement> fixed;
  for (const Placement& p : current_layout) {
    if (p.id == static_cast<std::uint64_t>(child_j)) {
      reference = p;
      has_reference = true;
    } else {
      fixed.push_back(p);
    }
  }

  // Zero-move fast path: extend in place into adjacent idle cells.
  if (has_reference) {
    if (auto cand =
            in_place_candidate(box, fixed, reference, updated, child_j, side)) {
      out.success = true;
      out.layout = fixed;
      out.layout.push_back(*cand);
      return out;
    }
  }

  std::vector<Rect> loose{updated.as_rect(child_j)};

  const auto finish = [&](std::vector<Placement> placed,
                          const std::vector<Placement>& kept) {
    out.success = true;
    out.layout = kept;
    out.layout.insert(out.layout.end(), placed.begin(), placed.end());
    for (const Placement& p : placed) {
      if (p.id != static_cast<std::uint64_t>(child_j)) {
        out.moved.push_back(static_cast<NodeId>(p.id));
      }
    }
    std::sort(out.moved.begin(), out.moved.end());
    return out;
  };

  if (auto placed = pack_around(box, fixed, loose)) {
    return finish(std::move(*placed), fixed);
  }

  while (!fixed.empty()) {
    // One round of Alg. 2 line 11 with one-step lookahead: probe each
    // still-fixed partition (nearest to j first — neighboring idle areas
    // coalesce into larger holes) as the next one to free. Take the first
    // probe that makes the packing feasible; if none does, permanently
    // free the nearest and continue with a larger loose set.
    std::vector<std::size_t> order(fixed.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const Dim da = manhattan(fixed[a], reference);
      const Dim db = manhattan(fixed[b], reference);
      if (da != db) return da < db;
      return fixed[a].id < fixed[b].id;
    });

    for (std::size_t idx : order) {
      std::vector<Placement> kept;
      kept.reserve(fixed.size() - 1);
      for (std::size_t i = 0; i < fixed.size(); ++i) {
        if (i != idx) kept.push_back(fixed[i]);
      }
      std::vector<Rect> probe = loose;
      probe.push_back({fixed[idx].w, fixed[idx].h, fixed[idx].id});
      if (auto placed = pack_around(box, kept, probe)) {
        return finish(std::move(*placed), kept);
      }
    }

    const std::size_t closest = order.front();
    static const obs::InstrumentId kEvictions =
        obs::intern_counter("harp.adjust.evictions");
    obs::MetricsRegistry::global().counter(kEvictions).inc();
    loose.push_back({fixed[closest].w, fixed[closest].h, fixed[closest].id});
    fixed.erase(fixed.begin() + static_cast<std::ptrdiff_t>(closest));
  }
  return out;  // infeasible even with a full repack
}

bool feasibility_test(const ResourceComponent& box,
                      const std::vector<packing::Placement>& current_layout,
                      NodeId child_j, const ResourceComponent& updated) {
  return adjust_partition_layout(box, current_layout, child_j, updated)
      .success;
}

namespace {

std::vector<Placement> mirror_x(std::vector<Placement> layout, Dim width) {
  for (Placement& p : layout) p.x = width - (p.x + p.w);
  return layout;
}

/// Right-growth worker for grow_composite_anchored: extends the box and
/// places the grown child without moving any fixed sibling.
std::optional<GrownComposite> grow_right(
    const ResourceComponent& box, const std::vector<Placement>& fixed,
    const std::optional<Placement>& reference,
    const ResourceComponent& updated, NodeId child_j, int max_channels) {
  const auto try_box = [&](int slots,
                           int channels) -> std::optional<GrownComposite> {
    if (updated.slots > slots || updated.channels > channels) {
      return std::nullopt;
    }
    if (reference) {
      if (auto cand = in_place_candidate({slots, channels}, fixed, *reference,
                                         updated, child_j, GrowSide::kRight)) {
        GrownComposite out{{slots, channels}, fixed};
        out.layout.push_back(*cand);
        return out;
      }
    }
    packing::FixedBinPacker bin(slots, channels);
    for (const Placement& f : fixed) bin.block(f);
    if (auto placed = bin.insert(updated.as_rect(child_j))) {
      GrownComposite out{{slots, channels}, fixed};
      out.layout.push_back(*placed);
      return out;
    }
    return std::nullopt;
  };

  // Channels first (slots are the scarcer resource, Sec. IV-B)...
  for (int c = std::max(box.channels, 1); c <= max_channels; ++c) {
    if (auto got = try_box(box.slots, c)) return got;
  }
  // ...then slots, keeping the channel count as small as possible.
  const int channels =
      std::min(std::max(box.channels, updated.channels), max_channels);
  for (int s = box.slots + 1; s <= box.slots + updated.slots; ++s) {
    if (auto got = try_box(s, channels)) return got;
  }
  return std::nullopt;
}

}  // namespace

std::optional<GrownComposite> grow_composite_anchored(
    const ResourceComponent& box,
    const std::vector<packing::Placement>& current_layout, NodeId child_j,
    const ResourceComponent& updated, int max_channels, GrowSide side) {
  if (updated.empty()) {
    throw InvalidArgument("updated component must be non-empty");
  }
  HARP_OBS_SCOPE("harp.adjust.grow_ns");
  if (box.empty()) return std::nullopt;  // nothing to anchor: compose fresh
  if (updated.channels > max_channels) return std::nullopt;

  std::optional<Placement> reference;
  std::vector<Placement> fixed;
  for (const Placement& p : current_layout) {
    if (p.id == static_cast<std::uint64_t>(child_j)) {
      reference = p;
    } else {
      fixed.push_back(p);
    }
  }

  if (side == GrowSide::kRight) {
    return grow_right(box, fixed, reference, updated, child_j, max_channels);
  }

  // Left growth = mirror, grow right, mirror back. A sibling anchored in
  // mirrored coordinates comes back shifted right by exactly the slot
  // growth, so its ABSOLUTE position is unchanged once the partition's
  // start moves left by the same amount.
  std::optional<Placement> mirrored_ref;
  if (reference) {
    mirrored_ref = mirror_x({*reference}, box.slots).front();
  }
  auto grown = grow_right(box, mirror_x(fixed, box.slots), mirrored_ref,
                          updated, child_j, max_channels);
  if (!grown) return std::nullopt;
  grown->layout = mirror_x(std::move(grown->layout), grown->box.slots);
  return grown;
}

std::optional<HopStep> adjust_hop(
    const ResourceComponent& box,
    const std::vector<packing::Placement>& current_layout, NodeId requester,
    const ResourceComponent& updated, GrowSide side, int max_channels) {
  if (box.empty()) return std::nullopt;
  AdjustOutcome fit =
      adjust_partition_layout(box, current_layout, requester, updated, side);
  if (fit.success) return HopStep{true, box, std::move(fit.layout)};
  // The box must grow. Anchored growth keeps every sibling placement
  // fixed, so the escalation's blast radius stays on this branch.
  if (auto grown = grow_composite_anchored(box, current_layout, requester,
                                           updated, max_channels, side)) {
    return HopStep{false, grown->box, std::move(grown->layout)};
  }
  return std::nullopt;
}

HopStep recompose_hop(const std::vector<ChildComponent>& children,
                      int max_channels) {
  Composition composed = compose_components(children, max_channels);
  HARP_ASSERT(!composed.composite.empty());
  return HopStep{false, composed.composite, std::move(composed.layout)};
}

}  // namespace harp::core
