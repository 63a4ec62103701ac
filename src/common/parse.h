// Strict decimal parsing for user-supplied numbers (CLI flags, fault plans,
// campaign files).
//
// std::stoul and std::strtoul accept a leading sign, leading whitespace and
// trailing junk, throw on non-numbers, and wrap values wider than the field
// they are cast into: "-1" becomes 4294967295, "4294967298" becomes 2. Every
// user-controlled number goes through parse_unsigned instead, so a bad value
// is a rejected parse, never a silent wrap or an uncaught exception.
#pragma once

#include <charconv>
#include <concepts>
#include <string_view>

namespace tca {

/// Parses all of `text` as an unsigned decimal that fits in T. Rejects empty
/// text, any sign or whitespace, trailing characters and out-of-range
/// values; `*out` is written only on success.
template <std::unsigned_integral T>
[[nodiscard]] bool parse_unsigned(std::string_view text, T* out) {
  const char* const end = text.data() + text.size();
  T value{};
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return false;
  *out = value;
  return true;
}

}  // namespace tca
