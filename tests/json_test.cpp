#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/json.hpp"

namespace mfd {
namespace {

TEST(JsonTest, ScalarRoundTrip) {
  EXPECT_EQ(Json::parse("null"), Json(nullptr));
  EXPECT_EQ(Json::parse("true"), Json(true));
  EXPECT_EQ(Json::parse("false"), Json(false));
  EXPECT_EQ(Json::parse("42"), Json(std::int64_t{42}));
  EXPECT_EQ(Json::parse("-7"), Json(std::int64_t{-7}));
  EXPECT_EQ(Json::parse("2.5"), Json(2.5));
  EXPECT_EQ(Json::parse("\"hi\""), Json("hi"));
}

TEST(JsonTest, DumpIsCompactAndOrdered) {
  Json obj = Json::object();
  obj.set("b", Json(std::int64_t{1}));
  obj.set("a", Json(true));
  Json arr = Json::array();
  arr.push_back(Json(nullptr));
  arr.push_back(Json("x"));
  obj.set("list", std::move(arr));
  // Keys keep insertion order (b before a) and output has no whitespace.
  EXPECT_EQ(obj.dump(), "{\"b\":1,\"a\":true,\"list\":[null,\"x\"]}");
}

TEST(JsonTest, ParseDumpRoundTripIsExact) {
  const std::string text =
      "{\"name\":\"IVD_chip\",\"ok\":true,\"count\":28,"
      "\"makespan\":246.5,\"tags\":[\"a\",\"b\"],\"nested\":{\"x\":-1}}";
  const Json parsed = Json::parse(text);
  EXPECT_EQ(parsed.dump(), text);
  // dump -> parse -> dump is a fixed point.
  EXPECT_EQ(Json::parse(parsed.dump()), parsed);
}

TEST(JsonTest, DoublesRoundTripBitExact) {
  for (const double value :
       {0.1, 1.0 / 3.0, 246.5, 1e-17, 6.02214076e23, -0.0, 1e300,
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max()}) {
    const Json reparsed = Json::parse(Json(value).dump());
    ASSERT_TRUE(reparsed.is_double()) << value;
    EXPECT_EQ(reparsed.as_double(), value);
  }
}

TEST(JsonTest, IntsStayInts) {
  const Json parsed =
      Json::parse(std::to_string(std::numeric_limits<std::int64_t>::max()));
  ASSERT_TRUE(parsed.is_int());
  EXPECT_EQ(parsed.as_int(), std::numeric_limits<std::int64_t>::max());
  // Doubles that happen to be integral stay doubles through a round trip.
  EXPECT_TRUE(Json::parse(Json(2.0).dump()).is_double());
}

TEST(JsonTest, StringEscapesRoundTrip) {
  const std::string raw = "quote\" backslash\\ newline\n tab\t ctrl\x01 done";
  const Json value(raw);
  EXPECT_EQ(Json::parse(value.dump()).as_string(), raw);
}

TEST(JsonTest, UnicodeEscapesDecodeToUtf8) {
  EXPECT_EQ(Json::parse("\"\\u00e9\"").as_string(), "\xc3\xa9");        // é
  EXPECT_EQ(Json::parse("\"\\u20ac\"").as_string(), "\xe2\x82\xac");    // €
  // Surrogate pair: U+1F600.
  EXPECT_EQ(Json::parse("\"\\ud83d\\ude00\"").as_string(),
            "\xf0\x9f\x98\x80");
}

TEST(JsonTest, WhitespaceAccepted) {
  const Json parsed = Json::parse("  { \"a\" : [ 1 , 2 ] }\n");
  EXPECT_EQ(parsed.at("a").as_array().size(), 2u);
}

TEST(JsonTest, MalformedInputsRejected) {
  for (const char* bad :
       {"", "  ", "{", "[1,", "[1 2]", "{\"a\":}", "{\"a\" 1}", "tru",
        "nul", "01", "1.", "1e", "+1", "\"unterminated", "\"bad\\q\"",
        "\"\\u12\"", "[1],", "{\"a\":1,}", "[,]", "{\"a\":1 \"b\":2}",
        "\"\\ud800\"", "nan", "Infinity", "1e999", "-1e999",
        "{\"deadline_s\":1e999}"}) {
    EXPECT_THROW(Json::parse(bad), Error) << "input: " << bad;
  }
  // Past int64 a number reads as a double; past any double it is rejected,
  // as 1e999 is, instead of reading as an infinity dump() cannot write.
  EXPECT_THROW((void)Json::parse(std::string(400, '9')), Error);
}

TEST(JsonTest, DuplicateKeysRejected) {
  EXPECT_THROW(Json::parse("{\"a\":1,\"a\":2}"), Error);
  Json obj = Json::object();
  obj.set("a", Json(std::int64_t{1}));
  EXPECT_THROW(obj.set("a", Json(std::int64_t{2})), Error);
}

TEST(JsonTest, TrailingGarbageRejected) {
  EXPECT_THROW(Json::parse("{} extra"), Error);
  EXPECT_THROW(Json::parse("1 2"), Error);
}

TEST(JsonTest, ErrorsCarryLineAndColumn) {
  try {
    Json::parse("{\"a\": 1,\n\"b\": frob}");
    FAIL() << "expected mfd::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("frob"), std::string::npos) << what;
  }
}

TEST(JsonTest, NonFiniteDoublesCannotSerialize) {
  EXPECT_THROW(Json(std::numeric_limits<double>::infinity()).dump(), Error);
  EXPECT_THROW(Json(std::numeric_limits<double>::quiet_NaN()).dump(), Error);
}

TEST(JsonTest, AccessorsCheckTypes) {
  const Json value(std::int64_t{3});
  EXPECT_EQ(value.as_double(), 3.0);  // int widens to double
  EXPECT_THROW((void)value.as_string(), Error);
  EXPECT_THROW((void)value.as_array(), Error);
  EXPECT_THROW((void)Json("s").as_int(), Error);
  EXPECT_THROW((void)Json::array().at("k"), Error);
  EXPECT_THROW((void)Json::object().at("missing"), Error);
  EXPECT_EQ(Json::object().get("missing"), nullptr);
}

TEST(JsonTest, NestingDepthIsBounded) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_EQ(Json::parse(nested(256)).dump(), nested(256));
  try {
    (void)Json::parse(nested(257));
    FAIL() << "257 levels parsed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than 256"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("line 1:257"), std::string::npos)
        << e.what();
  }
  // Far past the stack's reach: a clean throw, not a crash.
  EXPECT_THROW((void)Json::parse(std::string(100000, '[')), Error);
  EXPECT_THROW((void)Json::parse(std::string(100000, '{')), Error);
}

TEST(JsonTest, IntOverflowFallsBackToDouble) {
  const Json parsed = Json::parse("123456789012345678901234567890");
  ASSERT_TRUE(parsed.is_double());
  EXPECT_DOUBLE_EQ(parsed.as_double(), 1.2345678901234568e29);
}

}  // namespace
}  // namespace mfd
