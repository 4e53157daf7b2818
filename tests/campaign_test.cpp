// Tests for the fault-injection campaign harness — grid sweep determinism,
// termination under link loss, degraded completion, the CRC framing sweep
// that underpins the link-level detection claim, and the keyed upsert that
// writes the BENCH_*.json trajectory files.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "spacefts/campaign/campaign.hpp"
#include "spacefts/campaign/compute_sweep.hpp"
#include "spacefts/campaign/downlink_sweep.hpp"
#include "spacefts/common/random.hpp"
#include "spacefts/edac/crc32.hpp"
#include "spacefts/fault/message_faults.hpp"

namespace sc = spacefts::campaign;
namespace se = spacefts::edac;
namespace sf = spacefts::fault;
using spacefts::common::Rng;

namespace {

/// A grid small enough for unit-test latency but exercising every fault
/// dimension at once.
sc::CampaignConfig small_campaign() {
  sc::CampaignConfig config;
  config.gamma0_grid = {0.0, 0.005};
  config.crash_grid = {0.3};
  config.link_loss_grid = {0.0, 0.08};
  config.lambda_grid = {80.0};
  config.trials = 2;
  config.seed = 7;
  config.frames = 12;
  config.workers = 3;
  config.fragment_side = 16;
  return config;
}

}  // namespace

TEST(Campaign, ValidatesConfiguration) {
  auto config = small_campaign();
  config.gamma0_grid.clear();
  EXPECT_THROW((void)sc::run_campaign(config), std::invalid_argument);

  config = small_campaign();
  config.trials = 0;
  EXPECT_THROW((void)sc::run_campaign(config), std::invalid_argument);

  config = small_campaign();
  config.crash_grid = {1.5};
  EXPECT_THROW((void)sc::run_campaign(config), std::invalid_argument);

  config = small_campaign();
  config.fragment_side = 10;  // 32 % 10 != 0
  EXPECT_THROW((void)sc::run_campaign(config), std::invalid_argument);
}

TEST(Campaign, GridEnumerationIsComplete) {
  const auto config = small_campaign();
  const auto report = sc::run_campaign(config);
  EXPECT_EQ(report.cells.size(), 4u);  // 2 x 1 x 2 x 1
  EXPECT_EQ(report.trials_run, 8u);
  for (const auto& cell : report.cells) EXPECT_EQ(cell.trials, 2u);
}

// Acceptance (a): identical seeds => bit-identical campaign JSON across
// thread counts.
TEST(Campaign, JsonIsBitIdenticalAcrossThreadCounts) {
  auto config = small_campaign();
  config.threads = 1;
  const auto serial = sc::to_jsonl(sc::run_campaign(config));
  config.threads = 4;
  const auto threaded = sc::to_jsonl(sc::run_campaign(config));
  config.threads = 0;  // all hardware threads
  const auto maximal = sc::to_jsonl(sc::run_campaign(config));
  EXPECT_EQ(serial, threaded);
  EXPECT_EQ(serial, maximal);
  EXPECT_NE(serial.find("\"bench\":\"fault_campaign\""), std::string::npos);
}

TEST(Campaign, DifferentSeedsDiverge) {
  auto config = small_campaign();
  const auto a = sc::to_jsonl(sc::run_campaign(config));
  config.seed = 8;
  const auto b = sc::to_jsonl(sc::run_campaign(config));
  EXPECT_NE(a, b);
}

// Acceptance (b): link loss > 0 with retries enabled always terminates and
// reports coverage.
TEST(Campaign, SurvivesLinkLossWithRetries) {
  auto config = small_campaign();
  config.link_loss_grid = {0.15};
  config.max_link_retries = 6;
  const auto report = sc::run_campaign(config);
  EXPECT_EQ(report.trials_survived, report.trials_run);
  bool saw_link_activity = false;
  for (const auto& cell : report.cells) {
    EXPECT_EQ(cell.survived, cell.trials);
    EXPECT_GE(cell.min_coverage, 0.0);
    EXPECT_LE(cell.min_coverage, 1.0);
    EXPECT_GE(cell.mean_coverage, cell.min_coverage);
    if (cell.messages_dropped + cell.messages_corrupted > 0) {
      saw_link_activity = true;
    }
  }
  EXPECT_TRUE(saw_link_activity);
}

// Acceptance (c): with retries disabled, hostile links produce flagged
// fallback tiles and coverage < 100% — never a hang or a dead trial.
TEST(Campaign, NoRetriesDegradesInsteadOfDying) {
  auto config = small_campaign();
  config.gamma0_grid = {0.0};
  config.crash_grid = {0.0};
  config.link_loss_grid = {0.25};
  config.max_link_retries = 0;
  config.trials = 4;
  const auto report = sc::run_campaign(config);
  ASSERT_EQ(report.cells.size(), 1u);
  const auto& cell = report.cells[0];
  EXPECT_EQ(cell.survived, cell.trials);
  EXPECT_GT(cell.degraded_fragments, 0u);
  EXPECT_LT(cell.min_coverage, 1.0);
  EXPECT_EQ(cell.link_retries, 0u);
}

TEST(Campaign, EnforcePassesOnHealthyReport) {
  auto config = small_campaign();
  config.link_loss_grid = {0.0, 0.05};
  const auto report = sc::run_campaign(config);
  std::string diagnostics;
  EXPECT_EQ(sc::enforce(report, diagnostics), 0u) << diagnostics;
  EXPECT_TRUE(diagnostics.empty());
}

TEST(Campaign, EnforceFlagsRegressions) {
  sc::CampaignReport report;
  sc::CellResult dead;
  dead.gamma0 = 0.002;
  dead.trials = 3;
  dead.survived = 1;  // two dead trials: one violation
  report.cells.push_back(dead);
  sc::CellResult holey;
  holey.gamma0 = 0.0;
  holey.trials = 2;
  holey.survived = 2;
  holey.min_coverage = 0.75;  // clean memory must stay fully covered
  report.cells.push_back(holey);
  std::string diagnostics;
  EXPECT_EQ(sc::enforce(report, diagnostics), 2u);
  EXPECT_NE(diagnostics.find("did not survive"), std::string::npos);
  EXPECT_NE(diagnostics.find("clean-memory"), std::string::npos);
}

TEST(Campaign, JsonlIsOneRecordPerCell) {
  const auto report = sc::run_campaign(small_campaign());
  const auto jsonl = sc::to_jsonl(report);
  std::size_t lines = 0;
  for (char c : jsonl) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, report.cells.size());
  // Every line is a self-contained object.
  EXPECT_EQ(jsonl.find("{\"bench\""), 0u);
  EXPECT_EQ(jsonl.back(), '\n');
}

// Acceptance (d): the CRC framing detects every injected corruption in a
// 10k-message sweep — the property the pipeline's NACK path rests on.
TEST(Campaign, CrcFramingDetectsEveryCorruptionIn10kMessages) {
  sf::MessageFaultConfig fault_config;
  fault_config.corrupt_prob = 1.0;
  fault_config.corrupt_gamma0 = 2e-4;
  const sf::MessageFaultModel model(fault_config);

  Rng rng(99);
  std::size_t corrupted_bits_total = 0;
  for (int message = 0; message < 10000; ++message) {
    std::vector<std::uint8_t> frame(16 + rng.below(240));
    for (auto& byte : frame) byte = static_cast<std::uint8_t>(rng());
    se::frame_append_crc(frame);
    ASSERT_TRUE(se::frame_verify(frame));
    corrupted_bits_total += model.corrupt(frame, rng);
    EXPECT_FALSE(se::frame_verify(frame)) << "message " << message;
  }
  EXPECT_GE(corrupted_bits_total, 10000u);  // at least one flip per message
}

// ------------------------------------------------- untrusted-compute sweep ---

TEST(ComputeSweep, AccountingHoldsAndFullShadowEscapesNothing) {
  sc::ComputeSweepConfig config;
  config.fault_rate_grid = {0.0, 0.4};
  config.shadow_rate_grid = {0.0, 0.5, 1.0};
  config.requests = 16;
  config.side = 12;
  config.frames = 6;
  const auto report = sc::run_compute_sweep(config);
  ASSERT_EQ(report.cells.size(), 6u);

  std::string diagnostics;
  EXPECT_EQ(sc::enforce(report, diagnostics), 0u) << diagnostics;

  std::size_t injected_total = 0;
  for (const auto& cell : report.cells) {
    EXPECT_EQ(cell.escaped, cell.injected - cell.detected);
    if (cell.fault_rate == 0.0) {
      EXPECT_EQ(cell.injected, 0u);
      EXPECT_EQ(cell.detected, 0u);
    }
    if (cell.shadow_rate >= 1.0) {
      EXPECT_EQ(cell.escaped, 0u);
    }
    injected_total += cell.injected;
  }
  EXPECT_GT(injected_total, 0u) << "rate 0.4 never corrupted an output";

  // Determinism: the same config reproduces the same rows byte for byte.
  EXPECT_EQ(sc::to_jsonl(sc::run_compute_sweep(config)),
            sc::to_jsonl(report));
}

namespace {

sc::ComputeCellResult compute_cell(double fault_rate, double shadow_rate,
                                   std::size_t injected, std::size_t detected,
                                   std::size_t escaped) {
  sc::ComputeCellResult cell;
  cell.fault_rate = fault_rate;
  cell.shadow_rate = shadow_rate;
  cell.requests = 48;
  cell.injected = injected;
  cell.detected = detected;
  cell.escaped = escaped;
  return cell;
}

std::size_t count_lines(const std::string& text) {
  std::size_t lines = 0;
  for (const char c : text) lines += c == '\n' ? 1 : 0;
  return lines;
}

}  // namespace

// Manufactured regressions: each broken property is flagged, once per
// offending cell, with one diagnostic line per violation.
TEST(ComputeSweep, EnforceFlagsManufacturedRegressions) {
  sc::ComputeSweepReport healthy;
  healthy.cells = {compute_cell(0.3, 0.0, 6, 0, 6),
                   compute_cell(0.3, 0.5, 6, 4, 2),
                   compute_cell(0.3, 1.0, 6, 6, 0)};
  std::string diagnostics;
  EXPECT_EQ(sc::enforce(healthy, diagnostics), 0u) << diagnostics;

  sc::ComputeSweepReport accounting;
  accounting.cells = {compute_cell(0.1, 0.5, 4, 1, 2)};  // 2 != 4 - 1
  diagnostics.clear();
  EXPECT_EQ(sc::enforce(accounting, diagnostics), 1u);
  EXPECT_NE(diagnostics.find("accounting broken"), std::string::npos);

  sc::ComputeSweepReport full_shadow_escape;
  full_shadow_escape.cells = {compute_cell(0.1, 0.0, 3, 0, 3),
                              compute_cell(0.1, 1.0, 3, 2, 1)};
  diagnostics.clear();
  EXPECT_EQ(sc::enforce(full_shadow_escape, diagnostics), 1u);
  EXPECT_NE(diagnostics.find("escaped a 100% shadow sample"),
            std::string::npos);

  // Escapes rise twice along one fault rate: 1 -> 2 -> 3.  Each rising
  // cell is one violation, however many lower-shadow cells it exceeds; the
  // 1.0 cell also escaped a full shadow sample.
  sc::ComputeSweepReport rising;
  rising.cells = {compute_cell(0.3, 0.0, 6, 5, 1),
                  compute_cell(0.3, 0.5, 6, 4, 2),
                  compute_cell(0.3, 1.0, 6, 3, 3),
                  compute_cell(0.1, 0.0, 2, 0, 2)};
  diagnostics.clear();
  EXPECT_EQ(sc::enforce(rising, diagnostics), 3u) << diagnostics;
  EXPECT_EQ(count_lines(diagnostics), 3u) << diagnostics;
  EXPECT_NE(diagnostics.find("fault_rate=0.3 shadow_rate=0.5: escape count "
                             "rose with the shadow rate"),
            std::string::npos)
      << diagnostics;
  EXPECT_NE(diagnostics.find("fault_rate=0.3 shadow_rate=1: escape count "
                             "rose with the shadow rate"),
            std::string::npos)
      << diagnostics;
  EXPECT_EQ(diagnostics.find("fault_rate=0.1"), std::string::npos)
      << diagnostics;
}

TEST(ComputeSweep, RowKeySeparatesComputeAndClassicCampaignRows) {
  // Both row schemas coexist in BENCH_campaign.json; the shared key must
  // never collide them or merge distinct grid cells.
  const std::string compute_row =
      "{\"bench\":\"compute_shadow\",\"fault_rate\":0.1,"
      "\"shadow_rate\":0.5,\"requests\":48}";
  const std::string compute_row2 =
      "{\"bench\":\"compute_shadow\",\"fault_rate\":0.1,"
      "\"shadow_rate\":1,\"requests\":48}";
  const std::string classic_row =
      "{\"bench\":\"fault_campaign\",\"gamma0\":0.002,\"crash_prob\":0.1,"
      "\"link_loss\":0.3,\"lambda\":80}";
  EXPECT_NE(sc::campaign_row_key(compute_row),
            sc::campaign_row_key(compute_row2));
  EXPECT_NE(sc::campaign_row_key(compute_row),
            sc::campaign_row_key(classic_row));
  EXPECT_EQ(sc::campaign_row_key(compute_row),
            sc::campaign_row_key(compute_row));
}

TEST(ComputeSweep, RejectsMalformedGrids) {
  sc::ComputeSweepConfig config;
  config.fault_rate_grid = {};
  EXPECT_THROW((void)sc::run_compute_sweep(config), std::invalid_argument);
  config = {};
  config.shadow_rate_grid = {1.5};
  EXPECT_THROW((void)sc::run_compute_sweep(config), std::invalid_argument);
  config = {};
  config.requests = 0;
  EXPECT_THROW((void)sc::run_compute_sweep(config), std::invalid_argument);
}

// --------------------------------------------------------- downlink sweep ---

namespace {

sc::DownlinkSweepConfig small_downlink_sweep() {
  sc::DownlinkSweepConfig config;
  config.workload_grid = {spacefts::downlink::ChainWorkload::kNgstImage,
                          spacefts::downlink::ChainWorkload::kTelemetry};
  config.gamma0_grid = {0.0, 0.002};
  config.link_loss_grid = {0.0};
  config.lambda_grid = {80.0};
  config.trials = 2;
  config.seed = 5;
  config.side = 16;
  config.frames = 8;
  config.tile_rows = 4;
  return config;
}

}  // namespace

TEST(DownlinkSweep, OnArmDominatesAndCleanCellsAreLossless) {
  const auto report = sc::run_downlink_sweep(small_downlink_sweep());
  ASSERT_EQ(report.cells.size(), 4u);
  std::string diagnostics;
  EXPECT_EQ(sc::enforce(report, diagnostics), 0u) << diagnostics;
  for (const auto& cell : report.cells) {
    EXPECT_GE(cell.psnr_on_db, cell.psnr_off_db);
    EXPECT_GE(cell.match_on, cell.match_off);
    if (cell.gamma0 == 0.0 && cell.link_loss == 0.0) {
      EXPECT_EQ(cell.psnr_on_db, spacefts::downlink::kPsnrCap);
      EXPECT_EQ(cell.match_on, 1.0);
    } else {
      EXPECT_GT(cell.memory_bits_flipped, 0u);
    }
  }
}

TEST(DownlinkSweep, JsonlIsByteStableAcrossThreadCounts) {
  auto config = small_downlink_sweep();
  config.threads = 1;
  const auto serial = sc::to_jsonl(sc::run_downlink_sweep(config));
  config.threads = 4;
  EXPECT_EQ(sc::to_jsonl(sc::run_downlink_sweep(config)), serial);
  EXPECT_NE(serial.find("\"bench\":\"downlink_fidelity\""), std::string::npos);
  EXPECT_NE(serial.find("\"workload\":\"telemetry\""), std::string::npos);
}

TEST(DownlinkSweep, RowKeySeparatesWorkloadsAndOtherBenches) {
  const std::string ngst_row =
      "{\"bench\":\"downlink_fidelity\",\"workload\":\"ngst\","
      "\"gamma0\":0.001,\"link_loss\":0.1,\"lambda\":80}";
  const std::string telem_row =
      "{\"bench\":\"downlink_fidelity\",\"workload\":\"telemetry\","
      "\"gamma0\":0.001,\"link_loss\":0.1,\"lambda\":80}";
  const std::string classic_row =
      "{\"bench\":\"fault_campaign\",\"gamma0\":0.001,\"crash_prob\":0.1,"
      "\"link_loss\":0.1,\"lambda\":80}";
  EXPECT_NE(sc::campaign_row_key(ngst_row), sc::campaign_row_key(telem_row));
  EXPECT_NE(sc::campaign_row_key(ngst_row), sc::campaign_row_key(classic_row));
  EXPECT_EQ(sc::campaign_row_key(ngst_row), sc::campaign_row_key(ngst_row));
}

TEST(DownlinkSweep, EnforceFlagsManufacturedRegression) {
  auto report = sc::run_downlink_sweep(small_downlink_sweep());
  report.cells[0].psnr_on_db = report.cells[0].psnr_off_db - 1.0;
  std::string diagnostics;
  EXPECT_GT(sc::enforce(report, diagnostics), 0u);
  EXPECT_NE(diagnostics.find("PSNR"), std::string::npos);
}

TEST(DownlinkSweep, RejectsMalformedGrids) {
  auto config = small_downlink_sweep();
  config.workload_grid = {};
  EXPECT_THROW((void)sc::run_downlink_sweep(config), std::invalid_argument);
  config = small_downlink_sweep();
  config.trials = 0;
  EXPECT_THROW((void)sc::run_downlink_sweep(config), std::invalid_argument);
  config = small_downlink_sweep();
  config.gamma0_grid = {2.0};
  EXPECT_THROW((void)sc::run_downlink_sweep(config), std::invalid_argument);
}

// ------------------------------------------------------------ keyed upsert ---
// telemetry::jsonl::upsert_jsonl is the one writer of every BENCH_*.json
// trajectory file, under the key each file is written with.

namespace {

/// A file in the test temp dir holding \p text, removed on destruction.
struct ScratchFile {
  ScratchFile(const char* name, const std::string& text)
      : path(std::filesystem::path(::testing::TempDir()) / name) {
    std::ofstream(path, std::ios::trunc) << text;
  }
  ScratchFile(const ScratchFile&) = delete;
  ScratchFile& operator=(const ScratchFile&) = delete;
  ~ScratchFile() { std::filesystem::remove(path); }
  std::string read() const {
    std::ifstream in(path);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }
  std::filesystem::path path;
};

std::string stack_row(const char* kernel, std::size_t threads, int rate) {
  return "{\"bench\": \"stack_preprocess\", \"pixels_per_s\": " +
         std::to_string(rate) + ", \"threads\": " + std::to_string(threads) +
         ", \"upsilon\": 4, \"lambda\": 50, \"kernel\": \"" + kernel +
         "\"}\n";
}

}  // namespace

TEST(UpsertJsonl, PreprocessRowsKeepOneNewestRowPerConfiguration) {
  const std::string old_avx2 = stack_row("avx2", 1, 10);
  const std::string swar = stack_row("swar", 1, 20);
  const std::string newer_avx2 = stack_row("avx2", 1, 30);
  const std::string other = "{\"bench\": \"other\", \"value\": 7}\n";
  ScratchFile file("upsert_preprocess.jsonl",
                   old_avx2 + other + swar + newer_avx2);
  const std::string four_lanes = stack_row("avx2", 4, 40);
  ASSERT_TRUE(spacefts::telemetry::jsonl::upsert_jsonl(
      four_lanes, bench::detail::preprocess_record_key, file.path.string()));
  // The older duplicate goes; every other row comes through byte-unchanged
  // and in order, the fresh row last.
  EXPECT_EQ(file.read(), other + swar + newer_avx2 + four_lanes);

  // Fresh rows replace their key's row, and duplicates among them collapse
  // to the last one.
  const std::string fresh_a = stack_row("swar", 1, 50);
  const std::string fresh_b = stack_row("swar", 1, 60);
  ASSERT_TRUE(spacefts::telemetry::jsonl::upsert_jsonl(
      fresh_a + fresh_b, bench::detail::preprocess_record_key,
      file.path.string()));
  EXPECT_EQ(file.read(), other + newer_avx2 + four_lanes + fresh_b);
}

TEST(UpsertJsonl, CampaignRowsReplaceOnlyTheirOwnCell) {
  const std::string shadow =
      "{\"bench\":\"compute_shadow\",\"fault_rate\":0.1,"
      "\"shadow_rate\":0.5,\"escaped\":0}\n";
  const std::string fidelity =
      "{\"bench\":\"downlink_fidelity\",\"workload\":\"ngst\","
      "\"gamma0\":0.001,\"link_loss\":0.1,\"lambda\":80,\"psnr\":41}\n";
  const std::string cell_a =
      "{\"bench\":\"fault_campaign\",\"gamma0\":0,\"crash_prob\":0,"
      "\"link_loss\":0,\"lambda\":80,\"trials\":3}\n";
  const std::string cell_b =
      "{\"bench\":\"fault_campaign\",\"gamma0\":0.002,\"crash_prob\":0,"
      "\"link_loss\":0,\"lambda\":80,\"trials\":3}\n";
  ScratchFile file("upsert_campaign.jsonl",
                   shadow + cell_a + fidelity + cell_b);
  const std::string rerun_a =
      "{\"bench\":\"fault_campaign\",\"gamma0\":0,\"crash_prob\":0,"
      "\"link_loss\":0,\"lambda\":80,\"trials\":5}\n";
  ASSERT_TRUE(spacefts::telemetry::jsonl::upsert_jsonl(
      rerun_a, sc::campaign_row_key, file.path.string()));
  EXPECT_EQ(file.read(), shadow + fidelity + cell_b + rerun_a);
}

TEST(UpsertJsonl, UnwritablePathFails) {
  // A directory cannot be rewritten as a file.
  EXPECT_FALSE(spacefts::telemetry::jsonl::upsert_jsonl(
      stack_row("avx2", 1, 10), bench::detail::preprocess_record_key,
      ::testing::TempDir()));
}
