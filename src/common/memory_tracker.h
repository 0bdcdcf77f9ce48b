#ifndef SKETCHLINK_COMMON_MEMORY_TRACKER_H_
#define SKETCHLINK_COMMON_MEMORY_TRACKER_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace sketchlink {

// Byte-accounting helpers. The paper's Figure 6b compares the resident
// footprint of SkipBloom against a plain hash map; rather than scraping the
// allocator, every summarization structure in this library reports its own
// footprint via ApproximateMemoryUsage(), built from these helpers.

/// Approximate heap footprint of a std::string, counting the SSO buffer as
/// part of the object (callers add sizeof(std::string) separately only when
/// the string is not embedded in an already-counted object).
inline size_t StringHeapBytes(const std::string& s) {
  // libstdc++ SSO capacity is 15; anything longer owns a heap buffer of
  // capacity() + 1 bytes.
  return s.capacity() > 15 ? s.capacity() + 1 : 0;
}

/// Full footprint of a standalone std::string (object + heap).
inline size_t StringFootprint(const std::string& s) {
  return sizeof(std::string) + StringHeapBytes(s);
}

/// Formats a byte count as a human-readable string ("1.4 GB", "312 KB").
std::string FormatBytes(uint64_t bytes);

}  // namespace sketchlink

#endif  // SKETCHLINK_COMMON_MEMORY_TRACKER_H_
