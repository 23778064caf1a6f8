// slot_scan — the word-wise scan engine behind every full-array read in
// this library. The paper's layout argument (§1, §5) is that dense
// one-byte TAS cells make Collect a sequential cache-friendly scan; the
// engine cashes that in by reading 8 slots per load instead of one
// std::atomic<uint8_t> at a time, then finding the held/clear bytes with
// branch-free SWAR masks. The full-range reads (count_held, for_each_held)
// fold each 64-slot block — eight word loads — into one 64-bit held
// bitmap: a multiply gathers each word's eight lane markers into a byte,
// and the bytes are shifted into place. Counting is then one popcount per
// 64 slots, and collecting is the ctz / clear-lowest-bit loop over the
// bitmap, which branches once per held slot plus once per block instead
// of once per word (the per-word branch mispredicts at any mixed load).
//
// append_held, the one collect body, dispatches once per call. On x86-64
// hosts whose CPU has AVX-512F/BW it runs a vector body: one 64-byte load
// and one byte test give a block's held bitmap, and eight 8-lane
// compresses turn that bitmap into ascending indices, stored straight
// into the output. Once the scan is word-wide, extracting the indices is
// most of a Collect's cost (a 25%-held array spends more time in the ctz
// loop's per-name push_back than in the loads), and the compress removes
// that loop. Everywhere else append_held runs the word body. The library
// is built with no -march flag, so the vector body carries its own target
// attribute and the CPU is checked at run time; builds that define
// LA_SLOT_SCAN_BYTEWISE_WORDS (TSan, the model checker, big-endian hosts)
// compile the dispatch out. count_held, for_each_held, find_first_clear
// and claim_clear are word-engine only.
//
// Snapshot semantics are the same documented racy snapshot as the
// per-byte relaxed loads these scans replace, in every body: each byte is
// read exactly once, a concurrent acquire/release may or may not be
// visible, and no value other than a real cell state can be observed
// (bytes cannot tear); indices come out ascending. Under ThreadSanitizer
// the word load is compiled as eight relaxed per-byte atomic loads so
// instrumentation sees the same access pattern it can reason about; the
// plain-memory fast paths are for real builds.
//
// Three primitives over a dense TasCell range (count_held, for_each_held
// with its append_held collect body, find_first_clear), the multi-claim
// engine behind the batch Get paths, per-byte reference implementations
// (the ablation baseline for collect_cost --scan=byte and the oracle for
// the parity tests), plus the bit-domain sibling the
// BitmapActivityArray's packed-word layout scans with.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "sync/tas_cell.hpp"

#if defined(LEVELARRAY_VERIFY)
// Under the model checker a TasCell is a verify::atom (not 1 byte), so
// the memcpy word load is meaningless — and the bytewise path is the
// point anyway: every held() read becomes a scheduled yield point.
#define LA_SLOT_SCAN_BYTEWISE_WORDS 1
#elif defined(__SANITIZE_THREAD__)
#define LA_SLOT_SCAN_BYTEWISE_WORDS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LA_SLOT_SCAN_BYTEWISE_WORDS 1
#endif
#endif
// The mask arithmetic maps slot i+k to byte lane k counted from the
// least-significant end (ctz >> 3), which is the memcpy'd layout only on
// little-endian hosts; elsewhere assemble the word explicitly so the
// lane order stays right instead of silently collecting wrong indices.
#if !defined(LA_SLOT_SCAN_BYTEWISE_WORDS) &&          \
    defined(__BYTE_ORDER__) && defined(__ORDER_LITTLE_ENDIAN__) && \
    __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#define LA_SLOT_SCAN_BYTEWISE_WORDS 1
#endif
// The vector append_held body: x86-64 only, and never where the word load
// itself is bytewise (that build exists to keep every read instrumented).
#if !defined(LA_SLOT_SCAN_BYTEWISE_WORDS) && defined(__x86_64__) && \
    defined(__GNUC__)
#define LA_SLOT_SCAN_AVX512 1
#include <immintrin.h>
#endif

namespace la::core::slot_scan {

namespace detail {

inline constexpr std::uint64_t kOnes = 0x0101010101010101ull;
inline constexpr std::uint64_t kHigh = 0x8080808080808080ull;

// 8-slot snapshot starting at cells[i] (no alignment requirement).
inline std::uint64_t load_word(const sync::TasCell* cells, std::uint64_t i) {
#if defined(LA_SLOT_SCAN_BYTEWISE_WORDS)
  // TSan cannot model a plain 8-byte load racing with per-byte atomics
  // (and big-endian hosts need explicit lane order); read the same
  // snapshot through the cells so it stays instrumented and ordered.
  std::uint64_t word = 0;
  for (unsigned b = 0; b < 8; ++b) {
    word |= static_cast<std::uint64_t>(cells[i + b].held() ? 1 : 0) << (8 * b);
  }
  return word;
#else
  static_assert(sizeof(sync::TasCell) == 1,
                "word scans require dense 1-byte slots");
  std::uint64_t word;
  std::memcpy(&word, reinterpret_cast<const unsigned char*>(cells) + i,
              sizeof(word));
  return word;
#endif
}

// 0x80 at every nonzero byte of w, 0 elsewhere. This is the borrow-free
// SWAR form: every byte of (w | kHigh) is >= 0x80, so subtracting kOnes
// never borrows across byte lanes and each lane is classified
// independently — unlike the classic (w - kOnes) & ~w & kHigh zero test,
// which is only exact up to the first zero byte. Per lane: the subtract
// leaves the high bit set iff the low 7 bits are nonzero, and w's own
// high bit covers the 0x80 case.
inline constexpr std::uint64_t held_mask(std::uint64_t w) {
  return (w | ((w | kHigh) - kOnes)) & kHigh;
}

inline constexpr std::uint64_t clear_mask(std::uint64_t w) {
  return held_mask(w) ^ kHigh;
}

// 64-slot held bitmap of cells[i..i+64): bit k set iff slot i+k is held.
// Caller guarantees i + 64 <= n. Per word, m >> 7 leaves lane k's marker
// at bit 8k; the multiplier has bits 7 + 7j, so lane k lands at bit
// 56 + k exactly when j = 7 - k, and no two partial products share a bit
// (no carries), which makes the top byte the word's 8-bit held mask.
inline std::uint64_t held_bits(const sync::TasCell* cells, std::uint64_t i) {
  std::uint64_t bits = 0;
  for (unsigned w = 0; w < 8; ++w) {
    const std::uint64_t m = held_mask(load_word(cells, i + 8 * w));
    bits |= (((m >> 7) * 0x0102040810204080ull) >> 56) << (8 * w);
  }
  return bits;
}

}  // namespace detail

// --- per-byte reference engine ------------------------------------------

inline std::uint64_t count_held_bytewise(const sync::TasCell* cells,
                                         std::uint64_t n) {
  std::uint64_t count = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (cells[i].held()) ++count;
  }
  return count;
}

template <typename Fn>
void for_each_held_bytewise(const sync::TasCell* cells, std::uint64_t n,
                            Fn&& fn) {
  for (std::uint64_t i = 0; i < n; ++i) {
    if (cells[i].held()) fn(i);
  }
}

// Index of the first clear slot, or n if every slot is held.
inline std::uint64_t find_first_clear_bytewise(const sync::TasCell* cells,
                                               std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    if (!cells[i].held()) return i;
  }
  return n;
}

// --- word engine --------------------------------------------------------

inline std::uint64_t count_held(const sync::TasCell* cells, std::uint64_t n) {
  std::uint64_t count = 0;
  std::uint64_t i = 0;
  for (; i + 64 <= n; i += 64) {
    count += static_cast<std::uint64_t>(
        __builtin_popcountll(detail::held_bits(cells, i)));
  }
  for (; i < n; ++i) {
    if (cells[i].held()) ++count;
  }
  return count;
}

// Calls fn(index) for every held slot, in ascending index order.
template <typename Fn>
void for_each_held(const sync::TasCell* cells, std::uint64_t n, Fn&& fn) {
  std::uint64_t i = 0;
  for (; i + 64 <= n; i += 64) {
    std::uint64_t bits = detail::held_bits(cells, i);
    while (bits != 0) {
      fn(i + static_cast<std::uint64_t>(__builtin_ctzll(bits)));
      bits &= bits - 1;
    }
  }
  for (; i < n; ++i) {
    if (cells[i].held()) fn(i);
  }
}

// Word body of append_held: the for_each_held bitmap walk, one push_back
// per held slot. Appends base + index for every held slot, ascending.
inline std::size_t append_held_words(const sync::TasCell* cells,
                                     std::uint64_t n,
                                     std::vector<std::uint64_t>& out,
                                     std::uint64_t base = 0) {
  const std::size_t before = out.size();
  for_each_held(cells, n, [&](std::uint64_t i) { out.push_back(base + i); });
  return out.size() - before;
}

#if defined(LA_SLOT_SCAN_AVX512)
// Does this CPU run append_held_avx512? Checked once per process;
// __builtin_cpu_init makes the check safe from a static initializer.
inline bool avx512_supported() {
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512bw") &&
           __builtin_cpu_supports("popcnt");
  }();
  return supported;
}

// Vector body of append_held; call only where avx512_supported(). Same
// output as append_held_words. Works in chunks of up to 64 blocks of 64
// slots: the first pass reads each block once (one load, one byte test)
// into a held bitmap and counts the chunk's held slots; then out grows
// once, by that count plus 8 entries of slack, and the second pass
// compresses each bitmap byte's lanes out of an 8-lane index vector and
// stores all 8 lanes unaligned at the running end — the slack absorbs
// the lanes past it, and the final resize trims it. Each group's store
// offset is a popcount of the bitmap's lower bits, so the eight stores of
// a block do not wait on each other; an empty block stores nothing.
__attribute__((target("avx512f,avx512bw,popcnt"))) inline std::size_t
append_held_avx512(const sync::TasCell* cells, std::uint64_t n,
                   std::vector<std::uint64_t>& out, std::uint64_t base = 0) {
  static_assert(sizeof(sync::TasCell) == 1,
                "vector scans require dense 1-byte slots");
  constexpr std::uint64_t kChunkBlocks = 64;
  const auto* bytes = reinterpret_cast<const unsigned char*>(cells);
  const std::size_t before = out.size();
  __m512i lanes[8];
  for (int g = 0; g < 8; ++g) {
    lanes[g] = _mm512_add_epi64(_mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0),
                                _mm512_set1_epi64(8 * g));
  }
  std::uint64_t bits[kChunkBlocks] = {};
  std::uint64_t i = 0;
  while (n - i >= 64) {
    const std::uint64_t blocks = std::min(kChunkBlocks, (n - i) / 64);
    std::size_t held = 0;
    for (std::uint64_t b = 0; b < blocks; ++b) {
      const __m512i v = _mm512_loadu_si512(bytes + i + 64 * b);
      bits[b] = _mm512_test_epi8_mask(v, v);
      held += static_cast<std::size_t>(_mm_popcnt_u64(bits[b]));
    }
    const std::size_t at = out.size();
    out.resize(at + held + 8);
    std::uint64_t* dst = out.data() + at;
    for (std::uint64_t b = 0; b < blocks; ++b) {
      const std::uint64_t m = bits[b];
      if (m == 0) continue;  // sparse stretches: LevelArray's upper batches
      const __m512i block =
          _mm512_set1_epi64(static_cast<long long>(base + i + 64 * b));
      for (int g = 0; g < 8; ++g) {
        const std::uint64_t below = (std::uint64_t{1} << (8 * g)) - 1;
        _mm512_storeu_si512(
            dst + _mm_popcnt_u64(m & below),
            _mm512_maskz_compress_epi64(static_cast<__mmask8>(m >> (8 * g)),
                                        _mm512_add_epi64(block, lanes[g])));
      }
      dst += _mm_popcnt_u64(m);
    }
    out.resize(at + held);
    i += 64 * blocks;
  }
  for (; i < n; ++i) {
    if (cells[i].held()) out.push_back(base + i);
  }
  return out.size() - before;
}
#endif

// Appends base + index for every held slot to out, ascending; returns how
// many it appended (out's existing contents are kept). The one collect
// body every dense TasCell structure shares: the vector body where the
// CPU has it, the word body elsewhere.
inline std::size_t append_held(const sync::TasCell* cells, std::uint64_t n,
                               std::vector<std::uint64_t>& out,
                               std::uint64_t base = 0) {
#if defined(LA_SLOT_SCAN_AVX512)
  if (avx512_supported()) return append_held_avx512(cells, n, out, base);
#endif
  return append_held_words(cells, n, out, base);
}

// Which append_held body runs in this build on this CPU: "avx512",
// "words", or "bytes" where the word load is itself bytewise.
inline const char* append_held_kernel() {
#if defined(LA_SLOT_SCAN_AVX512)
  if (avx512_supported()) return "avx512";
#endif
#if defined(LA_SLOT_SCAN_BYTEWISE_WORDS)
  return "bytes";
#else
  return "words";
#endif
}

// Index of the first clear slot, or n if every slot is held.
inline std::uint64_t find_first_clear(const sync::TasCell* cells,
                                      std::uint64_t n) {
  std::uint64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t mask =
        detail::clear_mask(detail::load_word(cells, i));
    if (mask != 0) {
      return i + (static_cast<std::uint64_t>(__builtin_ctzll(mask)) >> 3);
    }
  }
  for (; i < n; ++i) {
    if (!cells[i].held()) return i;
  }
  return n;
}

// --- multi-claim engine -------------------------------------------------

// Snapshot held-mask of the 8 slots at cells[base..base+8): 0x80 at each
// held lane (lane = slot - base). Caller guarantees base + 8 <= n. The
// batch-free paths use it to verify a whole run of same-word names with
// one load instead of one held() read per name.
inline std::uint64_t held_lanes(const sync::TasCell* cells,
                                std::uint64_t base) {
  return detail::held_mask(detail::load_word(cells, base));
}

// Claim up to `want` clear slots in [begin, end), invoking fn(slot) per
// claimed slot and returning how many were claimed. One SWAR load yields
// a word's whole clear-mask and the claimer TASes several bits out of it
// before moving on — the amortization behind the batch Get paths, where
// the per-byte engines would re-walk the range per name. `n` bounds the
// cells array itself (word loads stop short of it; the tail goes
// per-byte), and lanes past `end` are masked off so a window clipped at
// a batch boundary never claims a neighbor's slot. A lane that flips
// held between the snapshot and the TAS is simply skipped: the mask is a
// hint, the TAS is the claim.
template <typename Fn>
std::size_t claim_clear(sync::TasCell* cells, std::uint64_t begin,
                        std::uint64_t end, std::uint64_t n, std::size_t want,
                        Fn&& fn) {
  std::size_t claimed = 0;
  std::uint64_t i = begin;
  for (; i + 8 <= n && i < end && claimed < want; i += 8) {
    std::uint64_t mask = detail::clear_mask(detail::load_word(cells, i));
    if (end - i < 8) {
      mask &= (std::uint64_t{1} << (8 * (end - i))) - 1;
    }
    while (mask != 0 && claimed < want) {
      const std::uint64_t slot =
          i + (static_cast<std::uint64_t>(__builtin_ctzll(mask)) >> 3);
      mask &= mask - 1;
      if (cells[slot].try_acquire()) {
        fn(slot);
        ++claimed;
      }
    }
  }
  for (; i < end && claimed < want; ++i) {
    if (cells[i].try_acquire()) {
      fn(i);
      ++claimed;
    }
  }
  return claimed;
}

// --- bit-domain sibling -------------------------------------------------

// Same contract as for_each_held for the bit-per-slot layout: fn(index)
// for every set bit across `words`, ascending. The caller guarantees bits
// past its logical slot count are never set (the BitmapActivityArray
// invariant), so no bound beyond the word count is needed.
template <typename Fn>
void for_each_set_bit(const la::detail::atomic<std::uint64_t>* words,
                      std::uint64_t word_count, Fn&& fn) {
  for (std::uint64_t w = 0; w < word_count; ++w) {
    std::uint64_t bits = words[w].load(std::memory_order_relaxed);
    while (bits != 0) {
      fn(w * 64 + static_cast<std::uint64_t>(__builtin_ctzll(bits)));
      bits &= bits - 1;
    }
  }
}

}  // namespace la::core::slot_scan
