#ifndef SKETCHLINK_TEXT_NORMALIZE_H_
#define SKETCHLINK_TEXT_NORMALIZE_H_

#include <string>
#include <string_view>

namespace sketchlink::text {

/// ASCII-uppercases `s` in place-semantics (returns a copy).
std::string ToUpperAscii(std::string_view s);

/// ASCII-lowercases `s`.
std::string ToLowerAscii(std::string_view s);

/// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// Canonical field normalization applied before blocking and matching:
/// trim, uppercase, collapse runs of whitespace to single spaces, and drop
/// characters outside [A-Z0-9 '-]. Mirrors the preprocessing every record
/// linkage pipeline applies before key generation. Whitespace and case are
/// the "C" locale's (std::isspace / std::toupper there), whatever the
/// process locale.
std::string NormalizeField(std::string_view s);

/// Appends NormalizeField(s) to `*out` without a temporary string, so a
/// reused buffer makes repeated normalization allocation-free once warm.
/// Byte-for-byte identical to the returning form.
void NormalizeFieldTo(std::string_view s, std::string* out);

/// True when NormalizeField(s) == s: every byte is in [A-Z0-9 '-], and
/// spaces stand alone between two other bytes. One pass, no allocation;
/// RecordStore asks it of every field at insert so verification can score
/// stored fields without normalizing them again.
bool IsNormalized(std::string_view s);

/// Returns the first `n` characters of `s` (the whole string if shorter).
/// Blocking keys such as "surname[50%]" and "assay[6]" (paper Table 1) are
/// built from prefixes.
std::string_view Prefix(std::string_view s, size_t n);

/// Returns the first ceil(fraction * size) characters; fraction in (0, 1].
/// Implements the paper's "field[50%]" blocking-key notation.
std::string_view FractionPrefix(std::string_view s, double fraction);

}  // namespace sketchlink::text

#endif  // SKETCHLINK_TEXT_NORMALIZE_H_
