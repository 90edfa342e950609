// Unit tests for the table printer and CLI flag parser.
#include <gtest/gtest.h>

#include <sstream>

#include "util/cli.h"
#include "util/table.h"

namespace cogradio {
namespace {

TEST(Table, AlignsColumnsAndPrintsRule) {
  Table t({"c", "slots"});
  t.add_row({"16", "1234"});
  t.add_row({"256", "9"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("c  slots"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_NE(out.find(" 16   1234"), std::string::npos);
  EXPECT_NE(out.find("256      9"), std::string::npos);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(static_cast<std::int64_t>(42)), "42");
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(3.0, 0), "3");
}

TEST(Table, EmptyTableStillPrintsHeader) {
  Table t({"only"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("only"), std::string::npos);
}

TEST(Cli, ParsesEqualsForm) {
  const char* argv[] = {"prog", "--n=64", "--gamma=2.5", "--mode=fast"};
  CliArgs args(4, argv);
  EXPECT_EQ(args.get_int("n", 0), 64);
  EXPECT_DOUBLE_EQ(args.get_double("gamma", 0), 2.5);
  EXPECT_EQ(args.get_string("mode", ""), "fast");
  args.finish();
}

TEST(Cli, ParsesSpaceForm) {
  const char* argv[] = {"prog", "--n", "128", "--label", "abc"};
  CliArgs args(5, argv);
  EXPECT_EQ(args.get_int("n", 0), 128);
  EXPECT_EQ(args.get_string("label", ""), "abc");
  args.finish();
}

TEST(Cli, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv);
  EXPECT_EQ(args.get_int("n", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("x", 1.5), 1.5);
  EXPECT_EQ(args.get_string("s", "dflt"), "dflt");
  EXPECT_FALSE(args.get_flag("verbose"));
  args.finish();
}

TEST(Cli, BareFlagIsTrue) {
  const char* argv[] = {"prog", "--verbose", "--quiet=false"};
  CliArgs args(3, argv);
  EXPECT_TRUE(args.get_flag("verbose"));
  EXPECT_FALSE(args.get_flag("quiet"));
  args.finish();
}

TEST(Cli, NegativeNumbersViaEquals) {
  const char* argv[] = {"prog", "--lo=-5"};
  CliArgs args(2, argv);
  EXPECT_EQ(args.get_int("lo", 0), -5);
  args.finish();
}

TEST(CliDeath, UnrecognizedFlagAborts) {
  const char* argv[] = {"prog", "--trails=5"};  // typo for --trials
  CliArgs args(2, argv);
  (void)args.get_int("trials", 1);
  EXPECT_EXIT(args.finish(), ::testing::ExitedWithCode(2), "unrecognized");
}

TEST(CliDeath, MalformedIntegerAborts) {
  const char* argv[] = {"prog", "--n=abc"};
  CliArgs args(2, argv);
  EXPECT_EXIT((void)args.get_int("n", 1), ::testing::ExitedWithCode(2),
              "expects an integer");
}

TEST(CliDeath, NonFlagTokenAborts) {
  const char* argv[] = {"prog", "oops"};
  EXPECT_EXIT(CliArgs(2, argv), ::testing::ExitedWithCode(2), "expected");
}

TEST(CliDeath, IntegerOverflowAborts) {
  // strtoll saturates on overflow; the parser must detect ERANGE instead
  // of silently returning INT64_MAX.
  const char* argv[] = {"prog", "--trials=99999999999999999999"};
  CliArgs args(2, argv);
  EXPECT_EXIT((void)args.get_int("trials", 1), ::testing::ExitedWithCode(2),
              "out of range");
}

TEST(CliDeath, IntegerUnderflowAborts) {
  const char* argv[] = {"prog", "--lo=-99999999999999999999"};
  CliArgs args(2, argv);
  EXPECT_EXIT((void)args.get_int("lo", 0), ::testing::ExitedWithCode(2),
              "out of range");
}

TEST(Cli, Int64ExtremesParseExactly) {
  const char* argv[] = {"prog", "--hi=9223372036854775807",
                        "--lo=-9223372036854775808"};
  CliArgs args(3, argv);
  EXPECT_EQ(args.get_int("hi", 0), INT64_MAX);
  EXPECT_EQ(args.get_int("lo", 0), INT64_MIN);
  args.finish();
}

TEST(CliDeath, GreedyBoolSwallowedTokenDiagnosed) {
  // "--verbose out.json" binds 'out.json' to the switch; get_flag must
  // diagnose the swallowed token instead of misparsing it as true.
  const char* argv[] = {"prog", "--verbose", "out.json"};
  CliArgs args(3, argv);
  EXPECT_EXIT((void)args.get_flag("verbose"), ::testing::ExitedWithCode(2),
              "swallowed the token 'out.json'");
}

TEST(Cli, SpaceFormBooleanLiteralsAccepted) {
  const char* argv[] = {"prog", "--a", "true", "--b", "false",
                        "--c", "1",    "--d", "0"};
  CliArgs args(9, argv);
  EXPECT_TRUE(args.get_flag("a"));
  EXPECT_FALSE(args.get_flag("b"));
  EXPECT_TRUE(args.get_flag("c"));
  EXPECT_FALSE(args.get_flag("d"));
  args.finish();
}

TEST(Cli, ResolvedLogRecordsEveryQueryInOrder) {
  const char* argv[] = {"prog", "--n=64", "--gamma=2.5"};
  CliArgs args(3, argv);
  (void)args.get_int("n", 0);
  (void)args.get_double("gamma", 0);
  (void)args.get_string("pattern", "shared-core");
  (void)args.get_flag("verbose");
  args.finish();
  const auto& log = args.resolved();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0].name, "n");
  EXPECT_EQ(log[0].value, "64");
  EXPECT_EQ(log[0].kind, CliArgs::ResolvedFlag::Kind::Int);
  EXPECT_EQ(log[1].name, "gamma");
  EXPECT_EQ(log[1].value, "2.5");
  EXPECT_EQ(log[1].kind, CliArgs::ResolvedFlag::Kind::Double);
  EXPECT_EQ(log[2].name, "pattern");
  EXPECT_EQ(log[2].value, "shared-core");
  EXPECT_EQ(log[2].kind, CliArgs::ResolvedFlag::Kind::String);
  EXPECT_EQ(log[3].name, "verbose");
  EXPECT_EQ(log[3].value, "false");
  EXPECT_EQ(log[3].kind, CliArgs::ResolvedFlag::Kind::Bool);
}

TEST(Cli, ResolvedLogUpdatesOnRequery) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv);
  (void)args.get_int("n", 8);
  (void)args.get_int("n", 16);  // later default wins, no duplicate entry
  const auto& log = args.resolved();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].value, "16");
}

}  // namespace
}  // namespace cogradio
