#ifndef DOCS_COMMON_STRING_UTILS_H_
#define DOCS_COMMON_STRING_UTILS_H_

#include <string>
#include <string_view>
#include <vector>

namespace docs {

/// Returns `s` lowercased (ASCII only; the KB and datasets are ASCII).
std::string ToLower(std::string_view s);

/// Splits on any character in `delims`, dropping empty pieces.
std::vector<std::string> Split(std::string_view s, std::string_view delims);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Strips leading/trailing ASCII whitespace.
std::string Trim(std::string_view s);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Tokenizes text for NLP use: lowercases, treats any non-alphanumeric as a
/// separator, drops empty tokens.
std::vector<std::string> TokenizeWords(std::string_view text);

/// Appends `raw` as lowercase hex, two digits per byte. Storage records use
/// it for external ids, which may hold bytes a space-separated, line-based
/// record cannot (spaces, tabs, newlines).
void AppendHex(std::string_view raw, std::string* out);

/// Inverse of AppendHex: false (and `*raw` unspecified) unless `hex` is an
/// even-length run of lowercase hex digits.
bool ParseHex(std::string_view hex, std::string* raw);

/// Thread-safe strerror: renders `errnum` into an owned string via
/// strerror_r. std::strerror returns a pointer into static storage and is
/// flagged by concurrency-mt-unsafe — every error-formatting site in the
/// multi-threaded serving path goes through this instead.
std::string ErrnoString(int errnum);

}  // namespace docs

#endif  // DOCS_COMMON_STRING_UTILS_H_
