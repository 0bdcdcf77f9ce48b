#include "simd/bit_profile.h"

#include <algorithm>

#include "common/memory_tracker.h"
#include "text/qgram.h"

namespace sketchlink::simd {

namespace {

/// Packs a gram of len <= 7 bytes: bytes left-aligned big-endian in the
/// high 7 bytes, length in the low byte. Injective over grams up to 7
/// bytes, and numeric order equals lexicographic byte order (a shorter
/// prefix sorts before its extensions via the length byte).
uint64_t PackGram(const char* data, size_t len) {
  uint64_t value = 0;
  for (size_t i = 0; i < len; ++i) {
    value |= static_cast<uint64_t>(static_cast<unsigned char>(data[i]))
             << (8 * (7 - i));
  }
  return value | static_cast<uint64_t>(len);
}

/// FNV-1a over a wide gram, for the signature of the string fallback.
uint64_t HashWideGram(const std::string& gram) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : gram) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

size_t BitProfile::HeapBytes() const {
  size_t bytes = grams.capacity() * sizeof(uint64_t) +
                 counts.capacity() * sizeof(uint32_t) +
                 wide.capacity() * sizeof(std::string);
  for (const std::string& gram : wide) bytes += StringHeapBytes(gram);
  return bytes;
}

BitProfile MakeBitProfile(std::string_view s, size_t q, bool pad) {
  BitProfile profile;
  if (q == 0) return profile;  // QGrams convention: no grams at all

  if (q > 7) {
    // Wide grams cannot be packed unambiguously; keep the sorted string
    // multiset and let the shared scalar merge handle it.
    profile.packed = false;
    profile.wide = text::QGrams(s, q, pad);
    std::sort(profile.wide.begin(), profile.wide.end());
    profile.total = static_cast<uint32_t>(profile.wide.size());
    for (size_t i = 0; i < profile.wide.size(); ++i) {
      if (i == 0 || profile.wide[i] != profile.wide[i - 1]) {
        ++profile.distinct;
        profile.signature |= SignatureBit(HashWideGram(profile.wide[i]));
      }
    }
    return profile;
  }

  // Mirror the QGrams tokenization without materializing gram strings:
  // q-1 '#' sentinels, the text, q-1 '$' sentinels.
  std::string padded;
  if (pad) {
    padded.assign(q - 1, '#');
    padded.append(s);
    padded.append(q - 1, '$');
  } else {
    padded.assign(s);
  }

  std::vector<uint64_t> values;
  if (padded.size() < q) {
    // QGrams keeps the whole (short) string as a single gram.
    if (!padded.empty()) values.push_back(PackGram(padded.data(), padded.size()));
  } else {
    values.reserve(padded.size() - q + 1);
    for (size_t i = 0; i + q <= padded.size(); ++i) {
      values.push_back(PackGram(padded.data() + i, q));
    }
  }
  std::sort(values.begin(), values.end());

  profile.total = static_cast<uint32_t>(values.size());
  profile.grams.reserve(values.size());
  profile.counts.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0 && values[i] == values[i - 1]) {
      ++profile.counts.back();
      continue;
    }
    profile.grams.push_back(values[i]);
    profile.counts.push_back(1);
    profile.signature |= SignatureBit(values[i]);
  }
  profile.distinct = static_cast<uint32_t>(profile.grams.size());
  return profile;
}

}  // namespace sketchlink::simd
