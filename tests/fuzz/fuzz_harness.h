#ifndef SKETCHLINK_TESTS_FUZZ_FUZZ_HARNESS_H_
#define SKETCHLINK_TESTS_FUZZ_FUZZ_HARNESS_H_

// Shared fuzz bodies. Each FuzzXxx function is the single source of truth
// for one target: the libFuzzer entry points (built only under
// -DSKETCHLINK_FUZZ=ON, which needs clang's -fsanitize=fuzzer) and the
// tier-1 fuzz_smoke_test (plain gtest, random byte strings, runs on every
// toolchain) both call it. A body must be total: any input either passes
// its invariant checks or aborts — there is no "reject" path, so the smoke
// run exercises exactly what the fuzzer would.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/coding.h"
#include "common/interner.h"
#include "common/pool.h"
#include "text/normalize.h"

namespace sketchlink::fuzz {

namespace internal {

inline void Check(bool ok, const char* what) {
  if (!ok) {
    // Both libFuzzer and the smoke test treat an abort as a crash with the
    // offending input preserved (libFuzzer writes the reproducer; the smoke
    // test logs the seed).
    std::abort();
  }
  (void)what;
}

}  // namespace internal

/// text/normalize.cc: every transform must be total over arbitrary bytes and
/// the documented output invariants must hold.
inline void FuzzNormalize(const uint8_t* data, size_t size) {
  const std::string_view input(reinterpret_cast<const char*>(data), size);

  const std::string upper = text::ToUpperAscii(input);
  const std::string lower = text::ToLowerAscii(input);
  internal::Check(upper.size() == size, "ToUpperAscii preserves length");
  internal::Check(lower.size() == size, "ToLowerAscii preserves length");
  internal::Check(text::ToUpperAscii(lower) == upper,
                  "upper(lower(x)) == upper(x)");

  const std::string_view trimmed = text::Trim(input);
  internal::Check(trimmed.size() <= size, "Trim never grows");
  internal::Check(text::Trim(trimmed) == trimmed, "Trim is idempotent");

  const std::string normalized = text::NormalizeField(input);
  // Output alphabet: [A-Z0-9 '-], no leading/trailing/double spaces.
  for (const char c : normalized) {
    const bool ok = (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
                    c == ' ' || c == '\'' || c == '-';
    internal::Check(ok, "NormalizeField output alphabet");
  }
  internal::Check(normalized.find("  ") == std::string::npos,
                  "no double spaces");
  internal::Check(normalized.empty() || (normalized.front() != ' ' &&
                                         normalized.back() != ' '),
                  "no edge spaces");
  internal::Check(text::NormalizeField(normalized) == normalized,
                  "NormalizeField is idempotent");
  internal::Check(text::IsNormalized(input) == (normalized == input),
                  "IsNormalized(s) == (NormalizeField(s) == s)");
  internal::Check(text::IsNormalized(normalized),
                  "IsNormalized(NormalizeField(s))");

  // Prefix helpers must stay in bounds for any (s, n) / (s, fraction).
  if (size > 0) {
    const size_t n = data[0];
    internal::Check(text::Prefix(input, n).size() <= input.size(),
                    "Prefix bounded");
    const double fraction =
        static_cast<double>(1 + data[0] % 100) / 100.0;  // (0, 1]
    internal::Check(text::FractionPrefix(input, fraction).size() <=
                        input.size(),
                    "FractionPrefix bounded");
  }
}

/// common/coding.cc: decoders must be total over arbitrary bytes (never read
/// out of bounds, never loop), and every value they accept must re-encode /
/// re-decode to itself.
inline void FuzzCoding(const uint8_t* data, size_t size) {
  const std::string_view input(reinterpret_cast<const char*>(data), size);

  // Decode a stream of varint32s until the input rejects; every accepted
  // value must round-trip.
  {
    std::string_view rest = input;
    uint32_t value = 0;
    while (GetVarint32(&rest, &value)) {
      std::string encoded;
      PutVarint32(&encoded, value);
      std::string_view reread = encoded;
      uint32_t back = 0;
      internal::Check(GetVarint32(&reread, &back) && back == value &&
                          reread.empty(),
                      "varint32 round-trip");
      internal::Check(VarintLength(value) ==
                          static_cast<int>(encoded.size()),
                      "VarintLength matches encoding");
    }
  }
  {
    std::string_view rest = input;
    uint64_t value = 0;
    while (GetVarint64(&rest, &value)) {
      std::string encoded;
      PutVarint64(&encoded, value);
      std::string_view reread = encoded;
      uint64_t back = 0;
      internal::Check(GetVarint64(&reread, &back) && back == value &&
                          reread.empty(),
                      "varint64 round-trip");
    }
  }
  // Length-prefixed strings: accepted slices must lie inside the input and
  // round-trip exactly.
  {
    std::string_view rest = input;
    std::string_view value;
    while (GetLengthPrefixed(&rest, &value)) {
      internal::Check(value.size() <= size, "length-prefixed in bounds");
      std::string encoded;
      PutLengthPrefixed(&encoded, value);
      std::string_view reread = encoded;
      std::string_view back;
      internal::Check(GetLengthPrefixed(&reread, &back) && back == value &&
                          reread.empty(),
                      "length-prefixed round-trip");
    }
  }
  // Fixed-width readers and the CRC must accept anything long enough.
  if (size >= 4) {
    std::string_view rest = input;
    uint32_t v32 = 0;
    internal::Check(GetFixed32(&rest, &v32), "GetFixed32 on >= 4 bytes");
    std::string encoded;
    PutFixed32(&encoded, v32);
    internal::Check(DecodeFixed32(encoded.data()) == v32,
                    "fixed32 round-trip");
  }
  if (size >= 8) {
    std::string_view rest = input;
    uint64_t v64 = 0;
    internal::Check(GetFixed64(&rest, &v64), "GetFixed64 on >= 8 bytes");
    std::string encoded;
    PutFixed64(&encoded, v64);
    internal::Check(DecodeFixed64(encoded.data()) == v64,
                    "fixed64 round-trip");
  }
  const uint32_t crc = Crc32c(input);
  internal::Check(Crc32cExtend(Crc32cExtend(0, input), std::string_view()) ==
                      Crc32cExtend(0, input),
                  "Crc32cExtend with empty tail is identity");
  (void)crc;
}

/// common/{arena,pool,interner}.h: the input is an op program over the
/// memory subsystem. Invariants checked on every path: arena views are
/// byte-stable until Reset; Scope rewinds accounting exactly; pool nodes
/// round-trip their values across free/reuse and live() balances; interner
/// ids never remap and always round-trip through View/Find. Built with
/// ASan (the libFuzzer target always is), the Reset/rewind poisoning also
/// turns any internal use-after-reset into a crash.
inline void FuzzMemory(const uint8_t* data, size_t size) {
  Arena arena(/*block_bytes=*/512);
  Pool<uint64_t> pool(/*nodes_per_slab=*/8);
  StringInterner interner;

  std::vector<std::pair<std::string, std::string_view>> live;  // arena views
  std::vector<std::pair<uint64_t*, uint64_t>> nodes;           // pool nodes
  std::vector<std::pair<std::string, StringInterner::Id>> ids;

  size_t i = 0;
  auto next = [&]() -> uint8_t { return i < size ? data[i++] : 0; };
  while (i < size) {
    switch (next() % 7) {
      case 0: {  // arena string copy
        std::string s(next() % 100, 'x');
        for (auto& c : s) c = static_cast<char>('a' + next() % 26);
        std::string_view view = arena.CopyString(s);
        internal::Check(view == s, "CopyString round-trip");
        live.emplace_back(std::move(s), view);
        break;
      }
      case 1: {  // aligned raw allocation, must be writable
        const size_t align = size_t{1} << (next() % 5);
        auto* p = static_cast<unsigned char*>(
            arena.Allocate(1 + next() % 64, align));
        internal::Check(reinterpret_cast<uintptr_t>(p) % align == 0,
                        "arena alignment");
        p[0] = 0xAB;
        internal::Check(p[0] == 0xAB, "arena bytes writable");
        break;
      }
      case 2: {  // full reset: all live views verified first, then dropped
        for (const auto& [s, view] : live) {
          internal::Check(view == s, "view stable before Reset");
        }
        live.clear();
        arena.Reset();
        internal::Check(arena.bytes_allocated() == 0, "Reset zeroes usage");
        break;
      }
      case 3: {  // scoped scratch: exact rewind, outer views untouched
        const size_t before = arena.bytes_allocated();
        {
          Arena::Scope scope(&arena);
          const std::string s(1 + next() % 32, 'q');
          internal::Check(arena.CopyString(s) == s, "scope-local copy");
        }
        internal::Check(arena.bytes_allocated() == before, "Scope rewind");
        break;
      }
      case 4: {  // pool New
        const uint64_t value = next() * 2654435761ULL + i;
        nodes.emplace_back(pool.New(value), value);
        break;
      }
      case 5: {  // pool Free of a random live node
        if (nodes.empty()) break;
        const size_t idx = next() % nodes.size();
        internal::Check(*nodes[idx].first == nodes[idx].second,
                        "pool node holds its value");
        pool.Free(nodes[idx].first);
        nodes.erase(nodes.begin() + static_cast<ptrdiff_t>(idx));
        break;
      }
      case 6: {  // intern from a small key universe (forces duplicates)
        std::string key = "k" + std::to_string(next() % 64);
        const StringInterner::Id id = interner.Intern(key);
        internal::Check(id != StringInterner::kInvalidId, "Intern succeeds");
        internal::Check(interner.View(id) == key, "View round-trip");
        internal::Check(interner.Find(key) == id, "Find after Intern");
        for (const auto& [k, seen] : ids) {
          if (k == key) internal::Check(seen == id, "id never remaps");
        }
        ids.emplace_back(std::move(key), id);
        break;
      }
    }
  }

  for (const auto& [s, view] : live) {
    internal::Check(view == s, "view stable at end");
  }
  for (const auto& [p, value] : nodes) {
    internal::Check(*p == value, "pool node stable at end");
    pool.Free(p);
  }
  internal::Check(pool.live() == 0, "pool live accounting balances");
  for (const auto& [key, id] : ids) {
    internal::Check(interner.Find(key) == id, "interner ids stable at end");
  }
}

}  // namespace sketchlink::fuzz

#endif  // SKETCHLINK_TESTS_FUZZ_FUZZ_HARNESS_H_
