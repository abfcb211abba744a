/**
 * @file
 * Tests for the command-line argument parser.
 */

#include <gtest/gtest.h>

#include <climits>

#include "base/args.hh"

namespace mdp
{
namespace
{

ArgParser
makeParser()
{
    ArgParser p("tool");
    p.addFlag("verbose", "print more");
    p.addOption("count", "10", "how many");
    p.addOption("name", "default", "a name");
    p.addPositional("input", "input file");
    return p;
}

bool
parse(ArgParser &p, std::initializer_list<const char *> argv_tail)
{
    std::vector<const char *> argv = {"tool"};
    argv.insert(argv.end(), argv_tail.begin(), argv_tail.end());
    return p.parse(static_cast<int>(argv.size()), argv.data());
}

long
count(ArgParser &p)
{
    long n = -1;
    EXPECT_TRUE(p.getLong("count", 0, LONG_MAX, n)) << p.error();
    return n;
}

TEST(Args, DefaultsApply)
{
    ArgParser p = makeParser();
    ASSERT_TRUE(parse(p, {}));
    EXPECT_FALSE(p.flag("verbose"));
    EXPECT_EQ(count(p), 10);
    EXPECT_EQ(p.get("name"), "default");
    EXPECT_TRUE(p.positionals().empty());
}

TEST(Args, FlagsAndValues)
{
    ArgParser p = makeParser();
    ASSERT_TRUE(parse(p, {"--verbose", "--count", "42"}));
    EXPECT_TRUE(p.flag("verbose"));
    EXPECT_EQ(count(p), 42);
}

TEST(Args, EqualsForm)
{
    ArgParser p = makeParser();
    ASSERT_TRUE(parse(p, {"--count=7", "--name=zed"}));
    EXPECT_EQ(count(p), 7);
    EXPECT_EQ(p.get("name"), "zed");
}

TEST(Args, Positionals)
{
    ArgParser p = makeParser();
    ASSERT_TRUE(parse(p, {"a.txt", "--count", "3", "b.txt"}));
    ASSERT_EQ(p.positionals().size(), 2u);
    EXPECT_EQ(p.positionals()[0], "a.txt");
    EXPECT_EQ(p.positionals()[1], "b.txt");
}

TEST(Args, UnknownOptionFails)
{
    ArgParser p = makeParser();
    EXPECT_FALSE(parse(p, {"--mystery"}));
    EXPECT_NE(p.error().find("mystery"), std::string::npos);
}

TEST(Args, MissingValueFails)
{
    ArgParser p = makeParser();
    EXPECT_FALSE(parse(p, {"--count"}));
    EXPECT_NE(p.error(), "");
}

TEST(Args, FlagWithValueFails)
{
    ArgParser p = makeParser();
    EXPECT_FALSE(parse(p, {"--verbose=yes"}));
}

TEST(Args, DoubleValues)
{
    ArgParser p("t");
    p.addOption("scale", "0.5", "scale");
    std::vector<const char *> argv = {"t", "--scale", "2.25"};
    ASSERT_TRUE(p.parse(3, argv.data()));
    double scale = 0;
    ASSERT_TRUE(p.getDouble("scale", 0.0, 4.0, scale)) << p.error();
    EXPECT_DOUBLE_EQ(scale, 2.25);
}

TEST(Args, NumericValuesMustBeWholeInRangeTokens)
{
    // Each value is read as an integer in [1, 8] and as a number in
    // (0, 4]; the expectation says which reads accept it.
    struct Case {
        const char *value;
        bool long_ok;
        bool double_ok;
    };
    const Case cases[] = {
        {"4", true, true},           {"1", true, true},
        {"8", true, false},          {"0.5", false, true},
        {"1e-3", false, true},       {"abc", false, false},
        {"", false, false},          {"4x", false, false},
        {" 4", false, false},        {"4 ", false, false},
        {"0", false, false},         {"-1", false, false},
        {"9", false, false},         {"nan", false, false},
        {"inf", false, false},       {"-inf", false, false},
        {"4.0001", false, false},
        {"99999999999999999999", false, false},
    };
    for (const Case &c : cases) {
        ArgParser p("t");
        p.addOption("n", "1", "a number");
        std::vector<const char *> argv = {"t", "--n", c.value};
        ASSERT_TRUE(p.parse(3, argv.data()));
        long n = 0;
        EXPECT_EQ(p.getLong("n", 1, 8, n), c.long_ok) << c.value;
        if (!c.long_ok) {
            EXPECT_NE(p.error().find("--n"), std::string::npos);
        }
        double x = 0;
        EXPECT_EQ(p.getDouble("n", 0.0, 4.0, x), c.double_ok)
            << c.value;
    }
}

TEST(Args, UsageListsEverything)
{
    ArgParser p = makeParser();
    std::string u = p.usage();
    EXPECT_NE(u.find("--verbose"), std::string::npos);
    EXPECT_NE(u.find("--count"), std::string::npos);
    EXPECT_NE(u.find("v=10"), std::string::npos);
    EXPECT_NE(u.find("<input>"), std::string::npos);
}

TEST(Args, ReparseResets)
{
    ArgParser p = makeParser();
    ASSERT_TRUE(parse(p, {"--verbose", "x"}));
    ASSERT_TRUE(parse(p, {}));
    EXPECT_FALSE(p.flag("verbose"));
    EXPECT_TRUE(p.positionals().empty());
}

} // namespace
} // namespace mdp
