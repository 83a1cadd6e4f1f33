#include "harp/compose.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace harp::core {

void compose_components_into(std::span<const ChildComponent> children,
                             int num_channels, ComposeScratch& scratch,
                             Composition& out) {
  HARP_OBS_SCOPE("harp.engine.compose_ns");
  if (num_channels <= 0) {
    throw InvalidArgument("num_channels must be positive");
  }

  out.composite = {};
  out.layout.clear();

  std::vector<packing::Rect>& rects = scratch.rects;
  rects.clear();
  bool all_single_channel = true;
  packing::Dim max_slots = 0;
  for (const ChildComponent& cc : children) {
    if (cc.comp.empty()) continue;
    if (cc.comp.channels > num_channels) {
      throw InfeasibleError("component " + to_string(cc.comp) + " of child " +
                            std::to_string(cc.child) + " exceeds " +
                            std::to_string(num_channels) + " channels");
    }
    // Pass-1 orientation: width = channels, height = slots.
    rects.push_back({cc.comp.channels, cc.comp.slots,
                     static_cast<std::uint64_t>(cc.child)});
    all_single_channel &= cc.comp.channels == 1;
    max_slots = std::max<packing::Dim>(max_slots, cc.comp.slots);
  }
  if (rects.empty()) return;

  if (rects.size() == 1) {
    // Single child: the composite IS the child's component at the origin.
    // Exactly what the double mapping below computes for one rectangle
    // (pass 2 wins with the component's own channel count), skipping both
    // packing passes — the dominant case in practice, since most interior
    // nodes contribute one subtree per layer.
    const packing::Rect& r = rects.front();
    out.composite = {static_cast<int>(r.h), static_cast<int>(r.w)};
    out.layout.push_back({0, 0, r.h, r.w, r.id});
    return;
  }

  // All-width-1 shortcut (docs/KERNELS.md "Double mapping"): when every
  // part occupies a single channel and there are at most M of them, pass 1
  // is fully predictable — with unit widths nothing ever fails to fit, so
  // every rect lands at height 0 and min_slots is simply the tallest rect;
  // and with >= 2 rects the second placement goes against the right strip
  // wall, so pass 1 spans exactly M channels. Pass 2 stacks at most one
  // unit-height row per rect (<= n <= M channels), so it always wins the
  // comparison below. Skip pass 1 entirely and take pass 2's result.
  const bool unit_channels =
      all_single_channel &&
      rects.size() <= static_cast<std::size_t>(num_channels);
  packing::Dim min_slots;
  if (unit_channels) {
    min_slots = max_slots;
  } else {
    // Pass 1: fixed width of M channels, minimize height = slots.
    packing::pack_strip_into(rects, num_channels, scratch.pack, scratch.pass1);
    min_slots = scratch.pass1.height;
  }

  // Pass 2: fixed width of n_s^min slots, minimize height = channels.
  // Transpose every rectangle: width = slots, height = channels.
  for (auto& r : rects) std::swap(r.w, r.h);
  packing::pack_strip_into(rects, min_slots, scratch.pack, scratch.pass2);

  if (unit_channels) {
    out.composite = {static_cast<int>(min_slots),
                     static_cast<int>(scratch.pass2.height)};
    out.layout = scratch.pass2.placements;
    return;
  }

  // The transposed pass-1 layout is itself a packing into min_slots slots;
  // its channel usage is the widest placement edge. Being a heuristic,
  // pass 2 is not guaranteed to beat it (or even to stay within M
  // channels), so keep whichever uses fewer channels.
  packing::Dim pass1_channels = 0;
  for (const auto& p : scratch.pass1.placements) {
    pass1_channels = std::max(pass1_channels, p.right());
  }
  if (scratch.pass2.height <= pass1_channels) {
    out.composite = {static_cast<int>(min_slots),
                     static_cast<int>(scratch.pass2.height)};
    // Already (x=slot, y=channel) oriented.
    out.layout = scratch.pass2.placements;
  } else {
    out.composite = {static_cast<int>(min_slots),
                     static_cast<int>(pass1_channels)};
    out.layout.resize(scratch.pass1.placements.size());
    for (std::size_t i = 0; i < out.layout.size(); ++i) {
      const packing::Placement& p = scratch.pass1.placements[i];
      out.layout[i] = {p.y, p.x, p.h, p.w, p.id};
    }
  }
}

Composition compose_components(const std::vector<ChildComponent>& children,
                               int num_channels) {
  // Per-thread scratch: engines on distinct threads (trial workers, fleet
  // shards) each reuse their own buffers.
  thread_local ComposeScratch scratch;
  Composition out;
  compose_components_into(children, num_channels, scratch, out);
  return out;
}

ResourceComponent monolithic_bound(
    const std::vector<ResourceComponent>& comps) {
  ResourceComponent out;
  for (const ResourceComponent& c : comps) {
    if (c.empty()) continue;
    out.slots += c.slots;
    out.channels = std::max(out.channels, c.channels);
  }
  return out;
}

}  // namespace harp::core
