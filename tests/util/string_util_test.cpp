#include "util/string_util.h"

#include <gtest/gtest.h>

namespace lexfor {
namespace {

TEST(StringUtilTest, JoinWithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({"solo"}, ", "), "solo");
  EXPECT_EQ(join({}, ", "), "");
}

TEST(StringUtilTest, SplitPreservesEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringUtilTest, SplitOfEmptyStringIsOneEmptyField) {
  const auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringUtilTest, SplitJoinRoundTrip) {
  const std::string s = "x:y:z";
  EXPECT_EQ(join(split(s, ':'), ":"), s);
}

TEST(StringUtilTest, TrimRemovesEdgesOnly) {
  EXPECT_EQ(trim("  hello world \t\n"), "hello world");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("no-trim"), "no-trim");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(starts_with("warrant", "warr"));
  EXPECT_FALSE(starts_with("warrant", "court"));
  EXPECT_TRUE(ends_with("subpoena", "poena"));
  EXPECT_FALSE(ends_with("subpoena", "warrant"));
  EXPECT_TRUE(starts_with("x", ""));
  EXPECT_FALSE(starts_with("", "x"));
}

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(to_lower("Fourth AMENDMENT"), "fourth amendment");
  EXPECT_EQ(to_lower("123!?"), "123!?");
}

TEST(JsonEscapeTest, PlainStringsQuoted) {
  EXPECT_EQ(json_quoted("hello"), "\"hello\"");
  EXPECT_EQ(json_quoted(""), "\"\"");
}

TEST(JsonEscapeTest, SpecialsEscaped) {
  EXPECT_EQ(json_quoted("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_quoted("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(json_quoted("line1\nline2"), "\"line1\\nline2\"");
  EXPECT_EQ(json_quoted("tab\there"), "\"tab\\there\"");
  EXPECT_EQ(json_quoted(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(JsonEscapeTest, AppendsEscapedTextWithoutQuotes) {
  std::string out = "x";
  append_json_escaped(out, "a\"b\\c\nd\te");
  EXPECT_EQ(out, "xa\\\"b\\\\c\\nd\\te");
}

}  // namespace
}  // namespace lexfor
