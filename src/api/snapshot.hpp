// Checkpoint/restore over the Renamer contract: api::save captures a
// structure's logical hold set into a ckpt::Image; api::restore adopts
// an image into a freshly built structure — possibly one with a
// *different* configuration (more shards, bigger capacity, different
// inner structure), which is what makes live re-sharding migration a
// save + rebuild + restore (src/ckpt/any_renamer.hpp drives exactly
// that inside svc::Server::migrate).
//
// The contract restore depends on is name identity: an adopted name
// keeps its numeric value, decomposed by the *target's* geometry. A
// holder that got name 37 before a migration frees name 37 after it —
// traces that span the boundary replay cleanly through
// stress::check_trace. The flip side: an image only fits targets where
// every held name still routes to a real slot (name < total_slots and,
// for sharded targets, the per-shard local bound); restore rejects a
// misfit with ckpt::ImageError before or while adopting, never UB.
//
// Trait surface:
//   has_adopt_held_v<T>  T::adopt_held(uint64_t) exists — the structure
//                        can re-seed one held slot by name.
//   has_snapshot_v<T>    full Renamer + adoption: save *and* restore
//                        apply. SplitterRenamer has no adoption path
//                        (a fresh grid walk would re-issue adopted
//                        cells), so it and sharded:splitter are
//                        non-restorable by construction; svc clients
//                        snapshot on the server side.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "api/renamer.hpp"
#include "ckpt/image.hpp"

namespace la::api {

template <typename T, typename = void>
struct has_adopt_held : std::false_type {};

template <typename T>
struct has_adopt_held<
    T, std::void_t<decltype(std::declval<T&>().adopt_held(std::uint64_t{}))>>
    : std::true_type {};

template <typename T>
inline constexpr bool has_adopt_held_v = has_adopt_held<T>::value;

template <typename T>
inline constexpr bool has_snapshot_v = is_renamer_v<T> && has_adopt_held_v<T>;

// Optional shard-geometry surface (the scale layer); recorded in the
// image for diagnostics and early misfit rejection.
template <typename T, typename = void>
struct has_shard_geometry : std::false_type {};

template <typename T>
struct has_shard_geometry<
    T, std::void_t<decltype(std::declval<const T&>().num_shards()),
                   decltype(std::declval<const T&>().shard_stride())>>
    : std::true_type {};

template <typename T>
inline constexpr bool has_shard_geometry_v = has_shard_geometry<T>::value;

// Capture the structure's logical hold set. Exact at quiescence; under
// concurrent churn it is the same racy snapshot collect() gives — a
// migration path must quiesce writers first (svc::Server::migrate
// parks its worker before calling this). `structure_tag` is the
// registry key recorded in the image for provenance.
template <typename Structure>
ckpt::Image save(const Structure& structure, std::string structure_tag = {}) {
  static_assert(is_renamer_v<Structure>,
                "api::save requires the Renamer contract");
  ckpt::Image image;
  image.structure = std::move(structure_tag);
  image.capacity = structure.capacity();
  image.total_slots = structure.total_slots();
  if constexpr (has_shard_geometry_v<Structure>) {
    image.shards = structure.num_shards();
    image.shard_stride = structure.shard_stride();
  }
  structure.collect(image.held);
  std::sort(image.held.begin(), image.held.end());
  return image;
}

// Adopt every held name of `image` into `structure`, which must be
// freshly built (empty). Throws ckpt::ImageError when the image cannot
// fit the target — too many holds for its capacity, a name that does
// not route to any slot, a duplicate, a shard gate overflow — and
// leaves the target in an unspecified partially adopted state on
// failure (rebuild it; nothing was shared yet by precondition).
template <typename Structure>
void restore(Structure& structure, const ckpt::Image& image) {
  static_assert(has_snapshot_v<Structure>,
                "api::restore requires a Renamer with an adoption path "
                "(has_snapshot_v)");
  if (image.held.size() > structure.capacity()) {
    throw ckpt::ImageError(
        "ckpt: image holds " + std::to_string(image.held.size()) +
        " names, target capacity is " +
        std::to_string(structure.capacity()));
  }
  const std::uint64_t bound = structure.total_slots();
  const std::uint64_t* prev = nullptr;
  for (const std::uint64_t& name : image.held) {
    if (name >= bound) {
      throw ckpt::ImageError("ckpt: held name " + std::to_string(name) +
                             " outside target total_slots " +
                             std::to_string(bound));
    }
    if (prev != nullptr && name <= *prev) {
      throw ckpt::ImageError("ckpt: held name " + std::to_string(name) +
                             " duplicate or unsorted in image");
    }
    prev = &name;
  }
  std::vector<std::uint64_t> existing;
  if (structure.collect(existing) != 0) {
    throw ckpt::ImageError("ckpt: restore target is not empty (" +
                           std::to_string(existing.size()) +
                           " names already held)");
  }
  try {
    for (const std::uint64_t name : image.held) structure.adopt_held(name);
  } catch (const std::logic_error& e) {
    // out_of_range (per-shard local bound), length_error (gate
    // overflow), duplicate-grant logic errors: all mean the image does
    // not fit this target configuration.
    throw ckpt::ImageError(std::string("ckpt: restore failed: ") + e.what());
  }
}

}  // namespace la::api
