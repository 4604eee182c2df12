// Tests for util/json: the strict well-formedness checker that exported
// documents (diagnostics dumps, METRICS.json, Chrome traces) are validated
// with, and the writer's escaping as seen through it.

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

}  // namespace
}  // namespace ode
