#include "common/flags.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace interedge {
namespace {

flag_set parse(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return flag_set(static_cast<int>(args.size()), const_cast<char**>(args.data()),
                  {"count", "name", "verbose", "missing", "rate"});
}

TEST(Flags, EqualsSyntax) {
  auto f = parse({"--count=5", "--name=edge"});
  EXPECT_EQ(f.get_int("count", 0), 5);
  EXPECT_EQ(f.get("name", ""), "edge");
}

TEST(Flags, SpaceSyntax) {
  auto f = parse({"--count", "5"});
  EXPECT_EQ(f.get_int("count", 0), 5);
}

TEST(Flags, BareFlagIsTrue) {
  auto f = parse({"--verbose"});
  EXPECT_TRUE(f.get_bool("verbose", false));
}

TEST(Flags, DefaultsWhenAbsent) {
  auto f = parse({});
  EXPECT_EQ(f.get_int("missing", 42), 42);
  EXPECT_EQ(f.get("missing", "d"), "d");
  EXPECT_FALSE(f.get_bool("missing", false));
  EXPECT_DOUBLE_EQ(f.get_double("missing", 1.5), 1.5);
}

TEST(Flags, PositionalArguments) {
  auto f = parse({"input.txt", "--count=1", "output.txt"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.txt");
  EXPECT_EQ(f.positional()[1], "output.txt");
}

TEST(Flags, DoubleParsing) {
  auto f = parse({"--rate=0.25"});
  EXPECT_DOUBLE_EQ(f.get_double("rate", 0), 0.25);
}

// A flag the program does not read is an error in every form, and the
// error names it.
TEST(Flags, UnknownFlagIsAnError) {
  for (const std::vector<const char*>& args :
       {std::vector<const char*>{"--count=1", "--profile=1"},
        std::vector<const char*>{"--profile", "1"}, std::vector<const char*>{"--profile"}}) {
    try {
      parse(args);
      ADD_FAILURE() << "accepted " << args.back();
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("--profile"), std::string::npos) << e.what();
    }
  }
}

}  // namespace
}  // namespace interedge
