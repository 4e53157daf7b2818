// Tests for the ALFT executor — every row of the logic grid.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "spacefts/alft/alft.hpp"

namespace sa = spacefts::alft;

namespace {

using IntExecutor = sa::AlftExecutor<int>;

IntExecutor::Task produces(int value) {
  return [value]() -> std::optional<int> { return value; };
}

IntExecutor::Task crashes() {
  return []() -> std::optional<int> { return std::nullopt; };
}

IntExecutor::Filter accepts_positive() {
  return [](const int& v) { return v > 0; };
}

}  // namespace

TEST(Alft, RequiresPrimaryAndFilter) {
  EXPECT_THROW((void)IntExecutor({}, produces(1), accepts_positive()),
               std::invalid_argument);
  EXPECT_THROW((void)IntExecutor(produces(1), produces(1), {}),
               std::invalid_argument);
  EXPECT_NO_THROW((void)IntExecutor(produces(1), {}, accepts_positive()));
}

TEST(Alft, PrimaryAcceptedShipsPrimary) {
  const IntExecutor exec(produces(42), produces(7), accepts_positive());
  const auto r = exec.execute();
  EXPECT_EQ(r.decision, sa::Decision::kPrimary);
  EXPECT_EQ(r.output, 42);
  EXPECT_TRUE(r.primary_accepted);
  // The secondary must not even run when the primary is good.
  EXPECT_FALSE(r.secondary_ran);
}

TEST(Alft, PrimaryCrashSecondaryShips) {
  const IntExecutor exec(crashes(), produces(7), accepts_positive());
  const auto r = exec.execute();
  EXPECT_EQ(r.decision, sa::Decision::kSecondary);
  EXPECT_EQ(r.output, 7);
  EXPECT_FALSE(r.primary_ran);
  EXPECT_TRUE(r.secondary_accepted);
}

TEST(Alft, PrimaryRejectedSecondaryShips) {
  const IntExecutor exec(produces(-5), produces(7), accepts_positive());
  const auto r = exec.execute();
  EXPECT_EQ(r.decision, sa::Decision::kSecondary);
  EXPECT_EQ(r.output, 7);
  EXPECT_TRUE(r.primary_ran);
  EXPECT_FALSE(r.primary_accepted);
}

TEST(Alft, BothRejectedShipsPrimaryFlagged) {
  // The catastrophic common-mode case the paper highlights: corrupted input
  // makes both outputs spurious; the grid ships the primary flagged.
  const IntExecutor exec(produces(-5), produces(-7), accepts_positive());
  const auto r = exec.execute();
  EXPECT_EQ(r.decision, sa::Decision::kPrimaryDubious);
  EXPECT_EQ(r.output, -5);
}

TEST(Alft, PrimaryCrashSecondaryRejectedShipsSecondaryFlagged) {
  const IntExecutor exec(crashes(), produces(-7), accepts_positive());
  const auto r = exec.execute();
  EXPECT_EQ(r.decision, sa::Decision::kPrimaryDubious);
  EXPECT_EQ(r.output, -7);
}

TEST(Alft, BothCrashFails) {
  const IntExecutor exec(crashes(), crashes(), accepts_positive());
  const auto r = exec.execute();
  EXPECT_EQ(r.decision, sa::Decision::kFailed);
  EXPECT_FALSE(r.output.has_value());
}

TEST(Alft, NoSecondaryConfigured) {
  const IntExecutor good(produces(3), {}, accepts_positive());
  EXPECT_EQ(good.execute().decision, sa::Decision::kPrimary);
  const IntExecutor bad(produces(-3), {}, accepts_positive());
  EXPECT_EQ(bad.execute().decision, sa::Decision::kPrimaryDubious);
  const IntExecutor dead(crashes(), {}, accepts_positive());
  EXPECT_EQ(dead.execute().decision, sa::Decision::kFailed);
}

TEST(Alft, DecisionNames) {
  EXPECT_STREQ(sa::to_string(sa::Decision::kPrimary), "primary");
  EXPECT_STREQ(sa::to_string(sa::Decision::kSecondary), "secondary");
  EXPECT_STREQ(sa::to_string(sa::Decision::kPrimaryDubious),
               "primary-dubious");
  EXPECT_STREQ(sa::to_string(sa::Decision::kFailed), "failed");
}

TEST(Alft, WorksWithNonTrivialOutputTypes) {
  using StrExecutor = sa::AlftExecutor<std::string>;
  const StrExecutor exec(
      []() -> std::optional<std::string> { return "full-product"; },
      []() -> std::optional<std::string> { return "partial"; },
      [](const std::string& s) { return !s.empty(); });
  const auto r = exec.execute();
  EXPECT_EQ(r.output, "full-product");
}
