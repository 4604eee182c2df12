// Tests for util/json: the strict well-formedness checker that exported
// documents (diagnostics dumps, METRICS.json, Chrome traces) are validated
// with, the reader built on the same grammar, and the writer's escaping as
// seen through both.

#include "util/json.h"

#include <string>

#include <gtest/gtest.h>

namespace ode {
namespace {

TEST(JsonCheckTest, AcceptsAndRejects) {
  EXPECT_TRUE(IsWellFormedJson(R"({"a":[1,2.5,-3e4],"b":"x\n","c":null})"));
  EXPECT_TRUE(IsWellFormedJson(" [true, false, {}] \n"));
  EXPECT_FALSE(IsWellFormedJson(R"({"a":1)"));
  EXPECT_FALSE(IsWellFormedJson(R"({"a":01x})"));
  EXPECT_FALSE(IsWellFormedJson("{\"a\":\"unterminated}"));
  EXPECT_FALSE(IsWellFormedJson("\"raw\ncontrol\""));
  EXPECT_FALSE(IsWellFormedJson(R"(["bad \q escape"])"));
  EXPECT_FALSE(IsWellFormedJson("1."));
  EXPECT_FALSE(IsWellFormedJson(""));
}

TEST(JsonCheckTest, ErrorNamesProblemAndOffset) {
  std::string error;
  EXPECT_FALSE(IsWellFormedJson("{} extra", &error));
  EXPECT_EQ(error, "trailing bytes at offset 3");
  EXPECT_FALSE(IsWellFormedJson(std::string(80, '[') + std::string(80, ']'),
                                &error));
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
}

TEST(JsonCheckTest, WriterOutputIsWellFormed) {
  JsonWriter w;
  w.BeginObject();
  w.KV("name", std::string_view("quote\"back\\slash\tctrl\x01"));
  w.KV("count", uint64_t{3});
  w.KV("ratio", 0.25);
  w.Key("list");
  w.BeginArray();
  w.Value(-1);
  w.Null();
  w.Value(true);
  w.EndArray();
  w.EndObject();
  std::string error;
  EXPECT_TRUE(IsWellFormedJson(w.str(), &error)) << error << "\n" << w.str();
}

TEST(JsonReadTest, MapsLeavesToDottedPaths) {
  auto leaves = ReadJson(
      R"({"a":{"b":[7,"x",{"c":-2.5e1}]},"s":"q\"\u0041\n","t":true,)"
      R"("metrics":{"counters":{"txn.commits":3}}})");
  ASSERT_TRUE(leaves.ok()) << leaves.status();
  EXPECT_EQ(leaves->numbers.at("a.b.0"), 7.0);
  EXPECT_EQ(leaves->strings.at("a.b.1"), "x");
  EXPECT_EQ(leaves->numbers.at("a.b.2.c"), -25.0);
  EXPECT_EQ(leaves->strings.at("s"), "q\"A\n");
  EXPECT_EQ(leaves->numbers.at("metrics.counters.txn.commits"), 3.0);
  EXPECT_EQ(leaves->numbers.size(), 3u);  // Booleans are not recorded.
  EXPECT_EQ(leaves->strings.size(), 2u);
}

TEST(JsonReadTest, ReadsWriterOutputBack) {
  JsonWriter w;
  w.BeginObject();
  w.KV("name", std::string_view("quote\"back\\slash\tctrl\x01"));
  w.KV("ratio", 0.25);
  w.EndObject();
  auto leaves = ReadJson(w.str());
  ASSERT_TRUE(leaves.ok()) << leaves.status();
  EXPECT_EQ(leaves->strings.at("name"), "quote\"back\\slash\tctrl\x01");
  EXPECT_EQ(leaves->numbers.at("ratio"), 0.25);
}

TEST(JsonReadTest, RejectsWhatTheCheckerRejectsWithItsError) {
  for (const char* bad : {"{\"a\":1", "[1,]", "{} extra", "1.", ""}) {
    std::string error;
    ASSERT_FALSE(IsWellFormedJson(bad, &error)) << bad;
    auto leaves = ReadJson(bad);
    ASSERT_FALSE(leaves.ok()) << bad;
    EXPECT_TRUE(leaves.status().IsInvalidArgument());
    EXPECT_NE(leaves.status().message().find(error), std::string::npos)
        << leaves.status() << " vs " << error;
  }
}

}  // namespace
}  // namespace ode
