#ifndef P2PDT_COMMON_STRING_UTIL_H_
#define P2PDT_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace p2pdt {

/// Splits `s` on any occurrence of `delim`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

/// Splits `s` on runs of ASCII whitespace, dropping empty fields.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// ASCII lowercase copy.
std::string ToLower(std::string_view s);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// True when `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True when `s` ends with `suffix`.
bool EndsWith(std::string_view s, std::string_view suffix);

/// Formats a byte count as a human-readable string ("1.5 MiB").
std::string HumanBytes(double bytes);

/// Replaces the file at `path` with `body` (binary, truncating). IOError
/// when the file cannot be opened or the write does not complete.
Status WriteStringToFile(const std::string& path, std::string_view body);

}  // namespace p2pdt

#endif  // P2PDT_COMMON_STRING_UTIL_H_
