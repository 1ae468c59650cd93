#include <gtest/gtest.h>

#include <vector>

#include "util/options.hpp"

using namespace pccsim;

namespace {

Options
parse(std::vector<const char *> args)
{
    args.insert(args.begin(), "prog");
    return Options(static_cast<int>(args.size()),
                   const_cast<char **>(args.data()));
}

} // namespace

TEST(Options, KeyEqualsValue)
{
    auto opts = parse({"--scale=small", "--cap=4.5"});
    EXPECT_EQ(opts.get("scale"), "small");
    EXPECT_DOUBLE_EQ(opts.getDouble("cap", 0), 4.5);
}

TEST(Options, KeySpaceValue)
{
    auto opts = parse({"--scale", "medium"});
    EXPECT_EQ(opts.get("scale"), "medium");
}

TEST(Options, BareFlag)
{
    auto opts = parse({"--verbose"});
    EXPECT_TRUE(opts.has("verbose"));
    EXPECT_TRUE(opts.getBool("verbose"));
    EXPECT_FALSE(opts.getBool("quiet"));
}

TEST(Options, BoolValues)
{
    EXPECT_TRUE(parse({"--x=true"}).getBool("x"));
    EXPECT_TRUE(parse({"--x=1"}).getBool("x"));
    EXPECT_TRUE(parse({"--x=on"}).getBool("x"));
    EXPECT_FALSE(parse({"--x=0"}).getBool("x"));
}

TEST(Options, IntFallbackAndParsing)
{
    auto opts = parse({"--n=42"});
    EXPECT_EQ(opts.getInt("n", 0), 42);
    EXPECT_EQ(opts.getInt("m", 7), 7);
}

TEST(Options, HexIntegers)
{
    auto opts = parse({"--addr=0x10"});
    EXPECT_EQ(opts.getInt("addr", 0), 16);
}

TEST(Options, PositionalCollected)
{
    auto opts = parse({"one", "--k=v", "two"});
    ASSERT_EQ(opts.positional().size(), 2u);
    EXPECT_EQ(opts.positional()[0], "one");
    EXPECT_EQ(opts.positional()[1], "two");
}

TEST(Options, FallbackWhenMissing)
{
    auto opts = parse({});
    EXPECT_EQ(opts.get("nothing", "dflt"), "dflt");
    EXPECT_DOUBLE_EQ(opts.getDouble("nothing", 1.5), 1.5);
}

TEST(Options, NegativeAndExponentValues)
{
    auto opts = parse({"--cap=-1", "--rate=1e6", "--frac=.5"});
    EXPECT_EQ(opts.getInt("cap", 0), -1);
    EXPECT_DOUBLE_EQ(opts.getDouble("rate", 0), 1e6);
    EXPECT_DOUBLE_EQ(opts.getDouble("frac", 0), 0.5);
}

TEST(OptionsDeathTest, IntWithoutDigitsIsFatal)
{
    EXPECT_EXIT(parse({"--jobs=xyz"}).getInt("jobs", 1),
                ::testing::ExitedWithCode(1), "--jobs=xyz");
}

TEST(OptionsDeathTest, IntWithTrailingCharactersIsFatal)
{
    EXPECT_EXIT(parse({"--iters=1e6"}).getInt("iters", 1),
                ::testing::ExitedWithCode(1),
                "--iters=1e6: expected an integer");
    EXPECT_EXIT(parse({"--seed=12abc"}).getInt("seed", 1),
                ::testing::ExitedWithCode(1), "--seed=12abc");
    EXPECT_EXIT(parse({"--jobs=4 "}).getInt("jobs", 1),
                ::testing::ExitedWithCode(1), "--jobs=4 ");
}

TEST(OptionsDeathTest, IntOutOfRangeIsFatal)
{
    EXPECT_EXIT(parse({"--seed=99999999999999999999"}).getInt("seed", 1),
                ::testing::ExitedWithCode(1), "--seed=");
}

TEST(OptionsDeathTest, DoubleWithoutDigitsIsFatal)
{
    EXPECT_EXIT(parse({"--frag=abc"}).getDouble("frag", 0.5),
                ::testing::ExitedWithCode(1),
                "--frag=abc: expected a number");
    EXPECT_EXIT(parse({"--cap=-"}).getDouble("cap", 4.0),
                ::testing::ExitedWithCode(1), "--cap=-");
}

TEST(OptionsDeathTest, DoubleWithTrailingCharactersIsFatal)
{
    EXPECT_EXIT(parse({"--frag=0.5x"}).getDouble("frag", 0.5),
                ::testing::ExitedWithCode(1), "--frag=0.5x");
    EXPECT_EXIT(parse({"--frag=0,0.9"}).getDouble("frag", 0.5),
                ::testing::ExitedWithCode(1), "--frag=0,0.9");
}

TEST(OptionsDeathTest, ListElementsParseStrictly)
{
    EXPECT_EQ(parseIntFlag("tenants", "4"), 4);
    EXPECT_DOUBLE_EQ(parseDoubleFlag("frag", "0.9"), 0.9);
    EXPECT_EXIT(parseIntFlag("tenants", "2x"),
                ::testing::ExitedWithCode(1), "--tenants=2x");
    EXPECT_EXIT(parseDoubleFlag("frag", ""),
                ::testing::ExitedWithCode(1), "--frag=: expected a number");
}
