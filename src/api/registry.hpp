// String-keyed registry of every renaming structure in the library, and
// the visit() dispatcher that instantiates the concrete type and invokes
// a generic callable on it.
//
// Each entry is a small factory struct: a canonical name, display label,
// aliases, a one-line summary, a concrete `Structure` type, and
// make(config) -> unique_ptr<Structure>. visit() resolves a name-or-alias
// and walks the compile-time entry list — so dispatch costs one string
// compare per entry, after which the callable is instantiated against
// the concrete type and the inner loop is fully monomorphic (no virtual
// calls, same codegen as naming the type directly). Adding a structure =
// one entry struct + one line in the Entries tuple; the runtime metadata
// (registered_structures, accepted-name lists, error messages) is
// generated from the same tuple, so it cannot drift.
//
// The registry holds 10 entries: the seven flat structures (the paper's
// comparison set and its ablations), two `sharded:<name>` entries and
// one `svc:sharded:level`. Every visit() site compiles its callable once
// per distinct Structure type — 9, since `id` is a RandomArray over a
// larger array — so the layered entries are only the combinations whose
// code paths differ: ShardedEntry<Base> wraps a flat entry as ShardedRenamer
// over S instances of it (each holding ceil(capacity / S) of the
// contention bound), and the two kept bases span the ways the sharded
// layer behaves across inners (see the static_asserts under Entries).
// Other combinations still compose by hand; they just have no name here.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "api/renamer.hpp"
#include "api/snapshot.hpp"
#include "api/splitter_renamer.hpp"
#include "arrays/bitmap_array.hpp"
#include "arrays/linear_probing_array.hpp"
#include "arrays/random_array.hpp"
#include "arrays/sequential_scan_array.hpp"
#include "core/level_array.hpp"
#include "scale/sharded.hpp"
#include "svc/service.hpp"

namespace la::api {

struct StructureInfo {
  std::string_view name;   // canonical registry key (what visit() resolves to)
  std::string_view label;  // display label for tables
  std::vector<std::string_view> aliases;
  std::string_view summary;
};

// Runtime metadata, generated from the Entries tuple below.
const std::vector<StructureInfo>& registered_structures();
std::vector<std::string> registered_names();
// Canonical key for a name or alias; throws std::invalid_argument listing
// every accepted spelling.
std::string resolve_structure(const std::string& name_or_alias);
std::string_view structure_label(std::string_view canonical);
std::string accepted_names_text();

namespace detail {

// How visit_at() runs a callable against an entry: build via the
// entry's make() and hand the reference over. The structure lives for
// the duration of the call — entries only provide metadata + make().
template <typename Entry, typename Fn>
decltype(auto) with_made(const RenamerConfig& c, Fn&& fn) {
  auto array = Entry::make(c);
  return fn(*array);
}

struct LevelEntry {
  static constexpr std::string_view kName = "level";
  static constexpr std::string_view kLabel = "LevelArray";
  static constexpr std::array<std::string_view, 1> kAliases = {"levelarray"};
  static constexpr std::string_view kSummary =
      "the paper's algorithm: doubly-exponential batches over L = 2n TAS "
      "slots";
  using Structure = core::LevelArray;
  static std::unique_ptr<Structure> make(const RenamerConfig& c) {
    core::LevelArrayConfig config;
    config.capacity = c.capacity;
    config.size_multiplier = c.size_factor;
    if (!c.probes_per_batch.empty()) {
      config.probes_per_batch = c.probes_per_batch;
    }
    return std::make_unique<Structure>(config);
  }
};

struct RandomEntry {
  static constexpr std::string_view kName = "random";
  static constexpr std::string_view kLabel = "Random";
  static constexpr std::array<std::string_view, 1> kAliases = {"randomarray"};
  static constexpr std::string_view kSummary =
      "uniform random probes over the whole array (comparison #1)";
  using Structure = arrays::RandomArray;
  static std::unique_ptr<Structure> make(const RenamerConfig& c) {
    return std::make_unique<Structure>(c.total_slots(), c.capacity);
  }
};

struct LinearEntry {
  static constexpr std::string_view kName = "linear";
  static constexpr std::string_view kLabel = "LinearProbing";
  static constexpr std::array<std::string_view, 1> kAliases =
      {"linearprobing"};
  static constexpr std::string_view kSummary =
      "random start then sequential scan (comparison #2)";
  using Structure = arrays::LinearProbingArray;
  static std::unique_ptr<Structure> make(const RenamerConfig& c) {
    return std::make_unique<Structure>(c.total_slots(), c.capacity);
  }
};

struct SequentialEntry {
  static constexpr std::string_view kName = "seq";
  static constexpr std::string_view kLabel = "SequentialScan";
  static constexpr std::array<std::string_view, 2> kAliases =
      {"sequential", "sequentialscan"};
  static constexpr std::string_view kSummary =
      "deterministic first-fit scan from slot 0 (strawman)";
  using Structure = arrays::SequentialScanArray;
  static std::unique_ptr<Structure> make(const RenamerConfig& c) {
    return std::make_unique<Structure>(c.total_slots(), c.capacity);
  }
};

struct BitmapEntry {
  static constexpr std::string_view kName = "bitmap";
  static constexpr std::string_view kLabel = "BitmapActivity";
  static constexpr std::array<std::string_view, 2> kAliases =
      {"bitmaparray", "bit"};
  static constexpr std::string_view kSummary =
      "bit-per-slot layout ablation: random probing over packed words";
  using Structure = arrays::BitmapActivityArray;
  static std::unique_ptr<Structure> make(const RenamerConfig& c) {
    return std::make_unique<Structure>(c.total_slots(), c.capacity);
  }
};

struct IdEntry {
  static constexpr std::string_view kName = "id";
  static constexpr std::string_view kLabel = "IdIndexed";
  static constexpr std::array<std::string_view, 2> kAliases =
      {"idindexed", "idarray"};
  static constexpr std::string_view kSummary =
      "footnote-1 strawman: array indexed by id, sized by the id space N";
  // A RandomArray over the id space: an arrival draws random ids until
  // one is unclaimed, so Get is ~1 probe (the id space is sized far above
  // the contention bound) while Collect and memory scale with N.
  using Structure = arrays::RandomArray;
  static std::unique_ptr<Structure> make(const RenamerConfig& c) {
    return std::make_unique<Structure>(c.id_space(), c.capacity);
  }
};

struct SplitterEntry {
  static constexpr std::string_view kName = "splitter";
  static constexpr std::string_view kLabel = "SplitterGrid";
  static constexpr std::array<std::string_view, 3> kAliases =
      {"ma", "moir-anderson", "splittergrid"};
  static constexpr std::string_view kSummary =
      "deterministic Moir-Anderson splitter grid behind the long-lived "
      "recycling facade";
  using Structure = SplitterRenamer;
  static std::unique_ptr<Structure> make(const RenamerConfig& c) {
    return std::make_unique<Structure>(c.capacity);
  }
};

// --- sharded variants ---------------------------------------------------

// Compile-time "prefix + base name" so the sharded entries' registry keys
// live in static storage like every hand-written kName.
template <std::size_t N>
struct NameBuffer {
  char data[N] = {};
  std::size_t len = 0;
  constexpr std::string_view view() const { return {data, len}; }
};

template <std::size_t N>
constexpr NameBuffer<N> concat_names(std::string_view a, std::string_view b) {
  NameBuffer<N> out{};
  for (const char c : a) out.data[out.len++] = c;
  for (const char c : b) out.data[out.len++] = c;
  return out;
}

template <typename Base>
struct ShardedEntry {
  static constexpr auto kNameBuf = concat_names<24>("sharded:", Base::kName);
  static constexpr std::string_view kName = kNameBuf.view();
  static constexpr auto kLabelBuf = concat_names<32>("Sharded/", Base::kLabel);
  static constexpr std::string_view kLabel = kLabelBuf.view();
  static constexpr auto kAliasBuf = concat_names<24>("sharded-", Base::kName);
  static constexpr std::array<std::string_view, 1> kAliases = {
      kAliasBuf.view()};
  static constexpr std::string_view kSummary =
      "scale layer: thread-affine shards of the base structure with "
      "per-thread free-name caches";
  using Structure = scale::ShardedRenamer<typename Base::Structure>;

  static std::unique_ptr<Structure> make(const RenamerConfig& c) {
    scale::ShardedConfig sharded;
    sharded.shards = c.shards == 0 ? 1 : c.shards;
    sharded.cache_capacity = c.name_cache_capacity;
    RenamerConfig inner = c;
    inner.capacity =
        (c.capacity + sharded.shards - 1) / sharded.shards;
    if (inner.capacity == 0) inner.capacity = 1;
    return std::make_unique<Structure>(
        sharded, [&inner](std::uint32_t) { return Base::make(inner); });
  }
};

// --- service variant ----------------------------------------------------

// `svc:sharded:level`: the full rename-service daemon stack, in-process
// (svc::ServiceRenamer owns segment + sharded structure + server, and
// is the client the harness talks to). Every op round-trips
// the real shared-memory wire protocol, so the whole harness suite
// doubles as a daemon soak. One entry covers the svc code: Server and
// Client never branch on the inner structure.
struct SvcEntry {
  static constexpr std::string_view kName = "svc:sharded:level";
  static constexpr std::string_view kLabel = "Svc/Sharded/LevelArray";
  static constexpr std::array<std::string_view, 1> kAliases = {
      "svc-sharded-level"};
  static constexpr std::string_view kSummary =
      "svc layer: rename-service daemon over sharded:level, driven "
      "through shared-memory SPSC rings";
  using Sharded = ShardedEntry<LevelEntry>;
  using Structure = svc::ServiceRenamer<Sharded::Structure>;

  static std::unique_ptr<Structure> make(const RenamerConfig& c) {
    return std::make_unique<Structure>(svc::SegmentConfig{},
                                       [&c] { return Sharded::make(c); });
  }
};

using Entries =
    std::tuple<LevelEntry, RandomEntry, LinearEntry, SequentialEntry,
               BitmapEntry, IdEntry, SplitterEntry,
               // native get_batch + adopt_held inner; the default shape
               ShardedEntry<LevelEntry>,
               // api fallback batch loop + adopt_held; the migration target
               ShardedEntry<LinearEntry>,
               // the daemon wire protocol over sharded:level
               SvcEntry>;

// The kept sharded bases span the two inner kinds ShardedRenamer
// treats differently (native batch ops or the api fallback loop), both
// adoptable; dropping one leaves a layer path with no entry.
static_assert(has_batch_ops_v<LevelEntry::Structure> &&
              has_adopt_held_v<LevelEntry::Structure>);
static_assert(!has_batch_ops_v<LinearEntry::Structure> &&
              has_adopt_held_v<LinearEntry::Structure>);

inline constexpr std::size_t kEntryCount = std::tuple_size_v<Entries>;

// Every registered structure must satisfy the static Renamer contract.
static_assert(is_renamer_v<core::LevelArray>);
static_assert(is_renamer_v<arrays::RandomArray>);
static_assert(is_renamer_v<arrays::LinearProbingArray>);
static_assert(is_renamer_v<arrays::SequentialScanArray>);
static_assert(is_renamer_v<arrays::BitmapActivityArray>);
static_assert(is_renamer_v<SplitterRenamer>);
static_assert(is_renamer_v<scale::ShardedRenamer<core::LevelArray>>);
static_assert(is_renamer_v<scale::ShardedRenamer<arrays::LinearProbingArray>>);
// The batch surface is the LevelArray's alone: per-shard batches are not
// the paper's Fig. 3 object, and the harnesses would otherwise compute
// nonsense balance metrics on the sharded wrapper.
static_assert(has_batch_surface_v<core::LevelArray>);
static_assert(!has_batch_surface_v<scale::ShardedRenamer<core::LevelArray>>);
// The batch fast path: the paper's structure and the scale layer carry
// native get_batch/free_batch; everything else rides the api fallback
// loop (so batched harness traffic covers every registry entry).
static_assert(has_batch_ops_v<core::LevelArray>);
static_assert(has_batch_ops_v<scale::ShardedRenamer<core::LevelArray>>);
static_assert(
    has_batch_ops_v<scale::ShardedRenamer<arrays::LinearProbingArray>>);
static_assert(!has_batch_ops_v<arrays::RandomArray>);  // fallback-served
// free_batch stays on the LevelArray alone, so test_sharded's
// batch-fallback check still drives the api per-name loop.
static_assert(!has_native_free_batch_v<arrays::RandomArray>);
// The service wrapper satisfies the full contract (get over the wire)
// and carries the native batch surface — one slot ferries up to
// svc::kMaxBatch names, so batched harness traffic amortizes the ring
// round trip exactly like it amortizes the gate RMW.
static_assert(
    is_renamer_v<svc::ServiceRenamer<scale::ShardedRenamer<core::LevelArray>>>);
static_assert(
    has_batch_ops_v<
        svc::ServiceRenamer<scale::ShardedRenamer<core::LevelArray>>>);
static_assert(
    !has_batch_surface_v<
        svc::ServiceRenamer<scale::ShardedRenamer<core::LevelArray>>>);
// Checkpoint/restore (src/api/snapshot.hpp): the core, every flat array
// but the splitter, and both sharded entries can save *and* restore.
// SplitterRenamer has no adoption path (a fresh grid walk would re-issue
// adopted cells), so it is save-only; svc clients snapshot on the server
// side, not over the wire.
static_assert(has_snapshot_v<core::LevelArray>);
static_assert(has_snapshot_v<arrays::RandomArray>);
static_assert(has_snapshot_v<arrays::LinearProbingArray>);
static_assert(has_snapshot_v<arrays::SequentialScanArray>);
static_assert(has_snapshot_v<arrays::BitmapActivityArray>);
static_assert(has_snapshot_v<scale::ShardedRenamer<core::LevelArray>>);
static_assert(has_snapshot_v<scale::ShardedRenamer<arrays::LinearProbingArray>>);
static_assert(!has_snapshot_v<SplitterRenamer>);
static_assert(
    !has_snapshot_v<
        svc::ServiceRenamer<scale::ShardedRenamer<core::LevelArray>>>);

// The callable's result type must not depend on the structure; anchor the
// deduction on the first entry's type.
template <typename Fn>
using VisitResult = std::invoke_result_t<Fn&, core::LevelArray&>;

template <std::size_t I, typename Fn>
VisitResult<Fn> visit_at(std::string_view canonical, const RenamerConfig& cfg,
                         Fn&& fn) {
  if constexpr (I < kEntryCount) {
    using Entry = std::tuple_element_t<I, Entries>;
    if (canonical == Entry::kName) {
      return with_made<Entry>(cfg, std::forward<Fn>(fn));
    }
    return visit_at<I + 1>(canonical, cfg, std::forward<Fn>(fn));
  } else {
    throw std::invalid_argument("unknown structure: " +
                                std::string(canonical) + " (expected " +
                                accepted_names_text() + ")");
  }
}

}  // namespace detail

// Instantiate the structure registered under `name_or_alias` from `cfg`
// and invoke fn(structure&), returning fn's result. The structure lives
// on the stack for the duration of the call.
template <typename Fn>
detail::VisitResult<Fn> visit(const std::string& name_or_alias,
                              const RenamerConfig& cfg, Fn&& fn) {
  return detail::visit_at<0>(resolve_structure(name_or_alias), cfg,
                             std::forward<Fn>(fn));
}

}  // namespace la::api
