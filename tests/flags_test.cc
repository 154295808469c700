#include "util/flags.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>

namespace car::util {
namespace {

Flags parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv(args);
  return Flags::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, ParsesSpaceAndEqualsSyntax) {
  const auto f = parse({"--k", "6", "--m=3", "--name", "cfs2"});
  EXPECT_EQ(f.get_int("k", 0), 6);
  EXPECT_EQ(f.get_int("m", 0), 3);
  EXPECT_EQ(f.get("name"), "cfs2");
  EXPECT_TRUE(f.has("k"));
  EXPECT_FALSE(f.has("z"));
}

TEST(Flags, BooleanSwitches) {
  const auto f = parse({"--csv", "--verbose", "--flag=false"});
  EXPECT_TRUE(f.get_bool("csv"));
  EXPECT_TRUE(f.get_bool("verbose"));
  EXPECT_FALSE(f.get_bool("flag"));
  EXPECT_FALSE(f.get_bool("absent"));
  EXPECT_TRUE(f.get_bool("absent", true));
}

TEST(Flags, BooleanBeforeAnotherFlagDoesNotSwallowIt) {
  const auto f = parse({"--csv", "--k", "4"});
  EXPECT_TRUE(f.get_bool("csv"));
  EXPECT_EQ(f.get_int("k", 0), 4);
}

TEST(Flags, PositionalArgumentsAreCollectedInOrder) {
  const auto f = parse({"traffic", "--k", "4", "extra"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "traffic");
  EXPECT_EQ(f.positional()[1], "extra");
}

TEST(Flags, FallbacksApplyWhenAbsent) {
  const auto f = parse({});
  EXPECT_EQ(f.get("x", "def"), "def");
  EXPECT_EQ(f.get_int("x", 42), 42);
  EXPECT_DOUBLE_EQ(f.get_double("x", 1.5), 1.5);
  EXPECT_EQ(f.get_size_list("x", {1, 2}), (std::vector<std::size_t>{1, 2}));
}

TEST(Flags, NumericParsing) {
  const auto f = parse({"--rate", "2.5", "--n", "7"});
  EXPECT_DOUBLE_EQ(f.get_double("rate", 0), 2.5);
  EXPECT_EQ(f.get_int("n", 0), 7);
  EXPECT_THROW((void)f.get_int("rate", 0), std::invalid_argument);
  const auto bad = parse({"--n", "7x"});
  EXPECT_THROW((void)bad.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW((void)bad.get_double("n", 0), std::invalid_argument);
}

TEST(Flags, NonFiniteNumbersAreRejectedNamingTheFlag) {
  for (const char* value : {"inf", "-inf", "nan", "infinity"}) {
    const auto f = parse({"--node-mbps", value});
    try {
      (void)f.get_double("node-mbps", 1.0);
      ADD_FAILURE() << value << " accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(std::string(error.what()),
                std::string("Flags: --node-mbps expects a finite number, "
                            "got '") +
                    value + "'");
    }
  }
  // Finite extremes still parse; range limits are the caller's business.
  EXPECT_DOUBLE_EQ(parse({"--x", "1e30"}).get_double("x", 0), 1e30);
}

TEST(Flags, SizeListParsing) {
  const auto f = parse({"--racks", "4,3,3"});
  EXPECT_EQ(f.get_size_list("racks", {}),
            (std::vector<std::size_t>{4, 3, 3}));
  const auto bad = parse({"--racks", "4,x"});
  EXPECT_THROW(bad.get_size_list("racks", {}), std::invalid_argument);
}

constexpr std::string_view kKnown[] = {"cfs", "stripes", "chunk-mib", "csv"};
constexpr std::string_view kCounts[] = {"stripes", "chunk-mib"};

/// The message check() throws, or "" when it accepts.
std::string check_error(const Flags& f) {
  try {
    f.check("emulate", kKnown, kCounts);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(Flags, CheckAcceptsKnownFlagsAndValidCounts) {
  EXPECT_EQ(check_error(parse({})), "");
  EXPECT_EQ(check_error(parse({"--cfs", "2", "--stripes", "0", "--chunk-mib",
                               "0.25", "--csv"})),
            "");
}

TEST(Flags, CheckRejectsUnknownFlagNamingCommandAndFlag) {
  EXPECT_EQ(check_error(parse({"--cfs", "2", "--bogus", "1"})),
            "emulate: unknown flag --bogus");
  // A retired switch is unknown too, not silently ignored.
  EXPECT_EQ(check_error(parse({"--virtual"})),
            "emulate: unknown flag --virtual");
}

TEST(Flags, CheckRejectsNegativeOrNonNumericCounts) {
  EXPECT_EQ(check_error(parse({"--stripes", "-1"})),
            "emulate: --stripes must be a non-negative number, got '-1'");
  EXPECT_EQ(check_error(parse({"--chunk-mib=-0.5"})),
            "emulate: --chunk-mib must be a non-negative number, got "
            "'-0.5'");
  EXPECT_EQ(check_error(parse({"--stripes", "nan"})),
            "emulate: --stripes must be a non-negative number, got 'nan'");
  EXPECT_EQ(check_error(parse({"--stripes", "many"})),
            "emulate: --stripes must be a non-negative number, got 'many'");
  EXPECT_EQ(check_error(parse({"--chunk-mib", "inf"})),
            "emulate: --chunk-mib must be a non-negative number, got 'inf'");
  // Only the listed counts are range-checked.
  EXPECT_EQ(check_error(parse({"--cfs", "-3"})), "");
}

TEST(Flags, CheckRejectsZeroForNonZeroCounts) {
  constexpr std::string_view kNonZero[] = {"stripes"};
  const auto error = [&](const Flags& f) -> std::string {
    try {
      f.check("balance", kKnown, kCounts, kNonZero);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_EQ(error(parse({"--stripes", "0"})),
            "balance: --stripes must be at least 1, got '0'");
  EXPECT_EQ(error(parse({"--stripes=0.5"})),
            "balance: --stripes must be at least 1, got '0.5'");
  EXPECT_EQ(error(parse({"--stripes", "1"})), "");
  // A negative count keeps the non-negative diagnostic.
  EXPECT_EQ(error(parse({"--stripes", "-1"})),
            "balance: --stripes must be a non-negative number, got '-1'");
  // Zero stays valid for counts outside the non-zero list.
  EXPECT_EQ(error(parse({"--chunk-mib", "0"})), "");
}

TEST(Flags, CheckBytesFitRejectsByteCountsFrom2To64NamingTheFlag) {
  const auto error = [](const Flags& f, const std::string& name,
                        std::uint64_t unit) -> std::string {
    try {
      f.check_bytes_fit("validate", name, unit);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  constexpr std::uint64_t kKiB = 1024;
  constexpr std::uint64_t kMiB = 1024 * kKiB;
  // 2^54 + 1 KiB would wrap to 1 KiB once multiplied out in uint64_t.
  EXPECT_EQ(error(parse({"--slice-kib", "18014398509481985"}), "slice-kib",
                  kKiB),
            "validate: --slice-kib must be under 2^64 bytes, got "
            "'18014398509481985'");
  EXPECT_EQ(error(parse({"--slice-kib", "18014398509481984"}), "slice-kib",
                  kKiB),
            "validate: --slice-kib must be under 2^64 bytes, got "
            "'18014398509481984'");
  // 2^64 - 2 KiB fits.
  EXPECT_EQ(error(parse({"--slice-kib", "18014398509481982"}), "slice-kib",
                  kKiB),
            "");
  EXPECT_EQ(error(parse({"--chunk-mib", "1e30"}), "chunk-mib", kMiB),
            "validate: --chunk-mib must be under 2^64 bytes, got '1e30'");
  EXPECT_EQ(error(parse({"--chunk-mib", "0.25"}), "chunk-mib", kMiB), "");
  EXPECT_EQ(error(parse({}), "slice-kib", kKiB), "");
}

TEST(Flags, BareDoubleDashRejected) {
  EXPECT_THROW(parse({"--"}), std::invalid_argument);
}

}  // namespace
}  // namespace car::util
