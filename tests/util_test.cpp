// SPDX-License-Identifier: MIT
//
// Utility module tests: flag parsing, table rendering, scale resolution.
#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "util/flags.hpp"
#include "util/scale.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace cobra {
namespace {

Flags make_flags(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, EqualsSyntax) {
  const auto flags = make_flags({"--n=100", "--name=test"});
  EXPECT_EQ(flags.get_int("n", 0), 100);
  EXPECT_EQ(flags.get("name", ""), "test");
}

TEST(FlagsTest, SpaceSyntax) {
  const auto flags = make_flags({"--n", "42"});
  EXPECT_EQ(flags.get_int("n", 0), 42);
}

TEST(FlagsTest, BareBoolean) {
  const auto flags = make_flags({"--verbose"});
  EXPECT_TRUE(flags.has("verbose"));
  EXPECT_TRUE(flags.get_bool("verbose", false));
  EXPECT_FALSE(flags.get_bool("quiet", false));
}

TEST(FlagsTest, BooleanValues) {
  EXPECT_TRUE(make_flags({"--x=true"}).get_bool("x", false));
  EXPECT_TRUE(make_flags({"--x=1"}).get_bool("x", false));
  EXPECT_FALSE(make_flags({"--x=false"}).get_bool("x", true));
  EXPECT_FALSE(make_flags({"--x=no"}).get_bool("x", true));
  EXPECT_THROW(make_flags({"--x=maybe"}).get_bool("x", true),
               std::invalid_argument);
}

TEST(FlagsTest, Defaults) {
  const auto flags = make_flags({});
  EXPECT_EQ(flags.get_int("missing", 7), 7);
  EXPECT_EQ(flags.get("missing", "d"), "d");
  EXPECT_NEAR(flags.get_double("missing", 2.5), 2.5, 1e-12);
}

TEST(FlagsTest, DoubleParsing) {
  const auto flags = make_flags({"--rho=0.25"});
  EXPECT_NEAR(flags.get_double("rho", 0), 0.25, 1e-12);
}

TEST(FlagsTest, MalformedNumbersThrow) {
  EXPECT_THROW(make_flags({"--n=abc"}).get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(make_flags({"--n=12x"}).get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(make_flags({"--r=1.2.3"}).get_double("r", 0),
               std::invalid_argument);
  for (const char* flag : {"--r=nan", "--r=inf", "--r=-inf"}) {
    EXPECT_THROW(make_flags({flag}).get_double("r", 0), std::invalid_argument)
        << flag;
  }
}

TEST(FlagsTest, Positionals) {
  const auto flags = make_flags({"input.txt", "--n=3", "other"});
  ASSERT_EQ(flags.positionals().size(), 2u);
  EXPECT_EQ(flags.positionals()[0], "input.txt");
  EXPECT_EQ(flags.positionals()[1], "other");
}

TEST(FlagsTest, NegativeNumberAsValue) {
  const auto flags = make_flags({"--delta=-5"});
  EXPECT_EQ(flags.get_int("delta", 0), -5);
}

TEST(FlagsTest, UnconsumedTracking) {
  const auto flags = make_flags({"--used=1", "--typo=2"});
  EXPECT_EQ(flags.get_int("used", 0), 1);
  const auto leftover = flags.unconsumed();
  ASSERT_EQ(leftover.size(), 1u);
  EXPECT_EQ(leftover[0], "typo");
}

TEST(FlagsTest, HelpGeneratedFromQueriedFlags) {
  const auto flags = make_flags({"--trials=5"});
  EXPECT_FALSE(flags.help_requested());
  flags.get_int("trials", 100);
  flags.get("scale", "small");
  flags.get_double("rho", 0.25);
  flags.has("csv");
  const auto& queried = flags.queried();
  // help itself + the four queries above, first-query order, deduped.
  ASSERT_EQ(queried.size(), 5u);
  flags.get_int("trials", 7);  // re-query does not duplicate
  EXPECT_EQ(flags.queried().size(), 5u);
  std::ostringstream os;
  flags.print_help(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("--trials <int>"), std::string::npos);
  EXPECT_NE(text.find("default: 100"), std::string::npos);
  EXPECT_NE(text.find("--scale <string>"), std::string::npos);
  EXPECT_NE(text.find("default: small"), std::string::npos);
  EXPECT_NE(text.find("--rho <number>"), std::string::npos);
  EXPECT_NE(text.find("--csv"), std::string::npos);
  EXPECT_NE(text.find("(boolean switch)"), std::string::npos);
}

TEST(FlagsTest, WarnUnconsumedPrintsEachFlagOnce) {
  const auto flags = make_flags({"--used=1", "--typo=2"});
  EXPECT_EQ(flags.get_int("used", 0), 1);
  std::ostringstream os;
  flags.warn_unconsumed(os);
  EXPECT_EQ(os.str(), "warning: unrecognized flag --typo\n");
}

TEST(TableTest, AlignedOutput) {
  Table table({"name", "value"});
  table.add_row({"x", "1"});
  table.add_row({"longer", "22"});
  std::ostringstream os;
  table.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("| name "), std::string::npos);
  EXPECT_NE(text.find("| longer"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(TableTest, CsvOutput) {
  Table table({"a", "b"});
  table.add_row({"1", "2"});
  std::ostringstream os;
  table.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(TableTest, CellFormatting) {
  EXPECT_EQ(Table::cell(static_cast<std::int64_t>(-3)), "-3");
  EXPECT_EQ(Table::cell(static_cast<std::uint64_t>(7)), "7");
  EXPECT_EQ(Table::cell(3.14159, 2), "3.14");
  EXPECT_EQ(Table::cell(std::string("abc")), "abc");
}

TEST(TableTest, RowSizeMismatchThrows) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only_one"}), std::invalid_argument);
}

TEST(TableTest, EmptyHeadersThrow) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(ScaleTest, ParseAndName) {
  EXPECT_EQ(Scale::parse("small").level, ScaleLevel::kSmall);
  EXPECT_EQ(Scale::parse("medium").level, ScaleLevel::kMedium);
  EXPECT_EQ(Scale::parse("large").level, ScaleLevel::kLarge);
  EXPECT_THROW(Scale::parse("huge"), std::invalid_argument);
  EXPECT_EQ(Scale::parse("medium").name(), "medium");
}

TEST(ScaleTest, PickByLevel) {
  const Scale small{ScaleLevel::kSmall};
  const Scale large{ScaleLevel::kLarge};
  EXPECT_EQ(small.pick(1, 2, 3), 1);
  EXPECT_EQ(large.pick(1, 2, 3), 3);
}

TEST(ScaleTest, FromFlagsExplicit) {
  const auto flags = make_flags({"--scale=large"});
  EXPECT_EQ(Scale::from_flags(flags).level, ScaleLevel::kLarge);
}

TEST(StopwatchTest, MeasuresNonNegativeTime) {
  Stopwatch watch;
  EXPECT_GE(watch.seconds(), 0.0);
  watch.reset();
  EXPECT_GE(watch.millis(), 0.0);
}

}  // namespace
}  // namespace cobra
