#ifndef P2PDT_COMMON_JSON_CHECK_H_
#define P2PDT_COMMON_JSON_CHECK_H_

#include <string>
#include <string_view>

#include "common/status.h"

namespace p2pdt {

/// Validates that `text` is one syntactically well-formed JSON value
/// (object, array, string, number, true/false/null) with nothing but
/// whitespace after it. Returns InvalidArgument with a byte offset on the
/// first violation.
///
/// This is a structural checker, not a parser: the observability exporters
/// emit JSON by hand (Chrome trace_event files can reach millions of
/// events; a DOM would double peak memory), and tests + the CI smoke job
/// use this to prove every emitted artifact is loadable by real tooling.
Status CheckJsonSyntax(std::string_view text);

/// Escapes `s` for use inside a JSON string literal: quote, backslash,
/// \n, \t and \r get their short escapes, other control bytes become
/// \u00XX, and every other byte (UTF-8 included) passes through. Every JSON
/// exporter shares this one escaper.
std::string JsonEscape(std::string_view s);

/// True when well-formed `text` contains `"key":` at top level or below —
/// a cheap presence probe the export tests use alongside CheckJsonSyntax.
bool JsonHasKey(std::string_view text, const std::string& key);

}  // namespace p2pdt

#endif  // P2PDT_COMMON_JSON_CHECK_H_
