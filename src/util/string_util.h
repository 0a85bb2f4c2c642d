// Minimal string helpers shared across modules.

#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace lexfor {

// Joins `parts` with `sep` ("a, b, c").
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

// Splits on a single-character separator; empty fields are preserved.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

// Trims ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view s);

// True if `s` starts with / ends with the given prefix/suffix.
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);
[[nodiscard]] bool ends_with(std::string_view s, std::string_view suffix);

// ASCII lowercase copy.
[[nodiscard]] std::string to_lower(std::string_view s);

// Appends `text` to `out` with JSON string escaping: quote, backslash,
// \n \r \t, and \u00XX for the other control characters.
void append_json_escaped(std::string& out, std::string_view text);

// `text` escaped as above and wrapped in quotes: a JSON string literal.
[[nodiscard]] std::string json_quoted(std::string_view text);

// `items` as a JSON array of such literals.
[[nodiscard]] std::string json_string_array(
    const std::vector<std::string>& items);

}  // namespace lexfor
