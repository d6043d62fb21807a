#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>

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

// ---- ObjectReader -----------------------------------------------------------

/// The message of the mfd::Error `read` throws ("" when it throws none).
template <typename Read>
std::string error_of(Read read) {
  try {
    read();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(ObjectReader, ReadsTypedFieldsAndKeepsAbsentOnes) {
  const Json json = Json::parse(
      R"({"name":"x","ratio":2,"count":-3,"seed":9223372036854775807})");
  ObjectReader reader(json, "Thing");
  std::string name;
  double ratio = 0.0;
  int count = 0;
  std::uint64_t seed = 0;
  int absent = 7;
  EXPECT_TRUE(reader.read("name", name));
  EXPECT_TRUE(reader.read("ratio", ratio));  // an integer widens
  EXPECT_TRUE(reader.read("count", count));
  EXPECT_TRUE(reader.read("seed", seed));
  EXPECT_FALSE(reader.read("absent", absent));
  EXPECT_EQ(name, "x");
  EXPECT_EQ(ratio, 2.0);
  EXPECT_EQ(count, -3);
  EXPECT_EQ(seed, 9223372036854775807u);
  EXPECT_EQ(absent, 7);
  EXPECT_NO_THROW(reader.reject_unread());
}

TEST(ObjectReader, RangeChecksEachIntegerIntoItsFieldType) {
  const Json json = Json::parse(
      R"({"wide":4294967297,"low":-4294967295,"neg":-1,"real":1.5})");
  ObjectReader reader(json, "Thing");
  int narrow = 0;
  EXPECT_EQ(error_of([&] { reader.read("wide", narrow); }),
            "Thing: 'wide' must be an integer in [-2147483648, 2147483647]");
  EXPECT_EQ(error_of([&] { reader.read("low", narrow); }),
            "Thing: 'low' must be an integer in [-2147483648, 2147483647]");
  std::uint64_t unsigned_field = 0;
  EXPECT_EQ(error_of([&] { reader.read("neg", unsigned_field); }),
            "Thing: 'neg' must be an integer in [0, 9223372036854775807]");
  EXPECT_EQ(error_of([&] { reader.read("real", narrow); }),
            "Thing: 'real' must be an integer in [-2147483648, 2147483647]");
  EXPECT_EQ(narrow, 0);  // a rejected value is never stored
  std::int64_t wide = 0;
  EXPECT_TRUE(reader.read("wide", wide));
  EXPECT_EQ(wide, 4294967297);
}

TEST(ObjectReader, NamesTheTypeAndKeyOfEveryError) {
  const Json json = Json::parse(R"({"name":3,"ratio":"x","extra":null})");
  ObjectReader reader(json, "Thing");
  std::string name;
  double ratio = 0.0;
  EXPECT_EQ(error_of([&] { reader.read("name", name); }),
            "Thing: 'name' must be a string");
  EXPECT_EQ(error_of([&] { reader.read("ratio", ratio); }),
            "Thing: 'ratio' must be a number");
  EXPECT_EQ(error_of([&] { (void)reader.at("missing"); }),
            "Thing: 'missing' is required");
  EXPECT_EQ(error_of([&] { reader.reject_unread(); }),
            "Thing: 'extra' is not a known field");
  const Json list = Json::array();
  EXPECT_EQ(error_of([&list] { ObjectReader reader(list, "Thing"); }),
            "Thing: not a JSON object");
  // The reader borrows its object: a temporary would dangle.
  static_assert(!std::is_constructible_v<ObjectReader, Json&&, const char*>);
}

TEST(ObjectReader, RejectUnreadAcceptsEveryKeyAnyLookupAskedFor) {
  const Json json = Json::parse(R"({"a":1,"nested":{"b":2}})");
  ObjectReader reader(json, "Thing");
  EXPECT_NE(reader.get("nested"), nullptr);
  EXPECT_EQ(reader.get("absent"), nullptr);
  EXPECT_THROW(reader.reject_unread(), Error);  // "a" is still unread
  EXPECT_EQ(reader.at("a").as_int(), 1);
  EXPECT_NO_THROW(reader.reject_unread());
}

}  // namespace
}  // namespace mfd
