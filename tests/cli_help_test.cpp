// The CLI's help surface and exit codes are part of its scriptable
// contract: `help` must list every verb (version included), every verb that
// executes preprocessing compute must document its --kernel and --backend
// flags the same way, every flag a verb's help documents must be one the
// verb accepts, and each bad invocation must exit with its documented code.
// The one verb that rewrites payload bytes (corrupt) is pinned byte for
// byte through ingest.  These tests drive the real binary (path injected by
// CMake) so the assertion covers what users actually see.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "spacefts/edac/crc32.hpp"

#ifndef SPACEFTS_CLI_PATH
#error "SPACEFTS_CLI_PATH must point at the spacefts_cli binary"
#endif

namespace {

struct CliRun {
  int code = -1;     ///< exit status, -1 when the CLI did not exit normally
  std::string text;  ///< the captured stream
};

/// Runs `spacefts_cli <args>` and captures its stdout, or its stderr (with
/// stdout discarded) when \p capture_stderr.
CliRun run_cli(const std::string& args, bool capture_stderr = false) {
  const std::string command =
      std::string(SPACEFTS_CLI_PATH) + " " + args +
      (capture_stderr ? " 2>&1 >/dev/null" : " 2>/dev/null");
  CliRun run;
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  if (pipe == nullptr) return run;
  std::array<char, 4096> chunk{};
  std::size_t n = 0;
  while ((n = fread(chunk.data(), 1, chunk.size(), pipe)) > 0) {
    run.text.append(chunk.data(), n);
  }
  const int status = pclose(pipe);
  run.code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

std::string cli_stdout(const std::string& args) { return run_cli(args).text; }

/// Every verb the CLI dispatches.  A new verb must appear here and in the
/// CLI's verb table — this list is the test's single point of maintenance.
constexpr const char* kVerbs[] = {"gen",      "corrupt", "ingest", "info",
                                  "psi",      "pipeline", "campaign", "downlink",
                                  "serve",    "check",   "version", "help"};

TEST(CliHelp, GlobalUsageListsEveryVerb) {
  const std::string help = cli_stdout("help");
  ASSERT_FALSE(help.empty());
  for (const char* verb : kVerbs) {
    EXPECT_NE(help.find(std::string("spacefts_cli ") + verb),
              std::string::npos)
        << "verb '" << verb << "' missing from global help";
  }
}

TEST(CliHelp, PerVerbHelpIsConsistentForComputeFlags) {
  // The verbs that execute the preprocessing kernels document --kernel...
  for (const char* verb : {"ingest", "pipeline", "serve", "check"}) {
    const std::string help = cli_stdout(std::string("help ") + verb);
    EXPECT_NE(help.find("--kernel"), std::string::npos)
        << "'" << verb << "' help does not document --kernel";
  }
  // ...and the ones that can run on a pluggable substrate document the
  // backend family the same way.
  for (const char* verb : {"pipeline", "serve", "downlink"}) {
    const std::string help = cli_stdout(std::string("help ") + verb);
    for (const char* flag :
         {"--backend cpu|unreliable|shadowed", "--compute-fault-rate",
          "--shadow-rate", "--backend-log"}) {
      EXPECT_NE(help.find(flag), std::string::npos)
          << "'" << verb << "' help does not document " << flag;
    }
  }
  // The campaign's compute sweep rides the same subsystem.
  const std::string campaign = cli_stdout("help campaign");
  EXPECT_NE(campaign.find("--compute"), std::string::npos);
  EXPECT_NE(campaign.find("--shadow-rates"), std::string::npos);
  // The downlink sweep and verb document the end-to-end axes.
  EXPECT_NE(campaign.find("--downlink"), std::string::npos);
  const std::string downlink = cli_stdout("help downlink");
  EXPECT_NE(downlink.find("--link-loss"), std::string::npos);
  EXPECT_NE(downlink.find("--no-preprocess"), std::string::npos);
  EXPECT_NE(downlink.find("--workload"), std::string::npos);
}

TEST(CliHelp, EveryVerbHasPerVerbHelp) {
  for (const char* verb : kVerbs) {
    const std::string help = cli_stdout(std::string("help ") + verb);
    EXPECT_NE(help.find(verb), std::string::npos)
        << "no per-verb help for '" << verb << "'";
  }
}

TEST(CliHelp, EveryDocumentedFlagIsAccepted) {
  // `<verb> <flag> --zz-unknown` never runs the verb: a value flag reports
  // its value missing, a switch is accepted and the bogus flag after it is
  // not.  Either way the documented flag itself must not be unknown.
  const auto flag_char = [](unsigned char c) {
    return std::islower(c) || std::isdigit(c) || c == '-';
  };
  std::size_t checked = 0;
  for (const char* verb : kVerbs) {
    const std::string help = cli_stdout(std::string("help ") + verb);
    std::set<std::string> flags;
    for (std::size_t at = help.find("--"); at != std::string::npos;
         at = help.find("--", at)) {
      std::size_t end = at + 2;
      while (end < help.size() && flag_char(help[end])) ++end;
      if (end > at + 2) flags.insert(help.substr(at, end - at));
      at = end;
    }
    for (const std::string& flag : flags) {
      const std::string args =
          std::string(verb) + " " + flag + " --zz-unknown";
      const CliRun run = run_cli(args, /*capture_stderr=*/true);
      ++checked;
      EXPECT_EQ(run.code, 3) << args;
      EXPECT_EQ(run.text.find(flag + ": unknown flag"), std::string::npos)
          << "'" << verb << "' documents " << flag << " but rejects it";
    }
  }
  EXPECT_GT(checked, 100u) << "help documents suspiciously few flags";
}

/// One row of the exit-code contract: 2 usage error, 3 bad flag.
struct ExitCase {
  std::string name;        ///< the case's ctest suffix
  std::string args;
  int code;
  std::string stderr_has;  ///< required stderr substring; empty = any
};

std::vector<ExitCase> exit_cases() {
  std::vector<ExitCase> cases = {
      {"usage", "no-such-verb", 2, "unknown verb"},
      {"usage_help", "help no-such-verb", 2, "unknown verb"},
      {"bad_flag_gen", "gen out.fits --bogus", 3, "--bogus: unknown flag"},
      {"bad_flag_serve", "serve --bogus", 3, "--bogus: unknown flag"},
      {"bad_flag_pipeline", "pipeline --bogus", 3, "--bogus: unknown flag"},
      {"bad_flag_check", "check --bogus", 3, "--bogus: unknown flag"},
      {"no_retries_removed", "campaign --no-retries", 3,
       "--no-retries: unknown flag"},
      {"linger_ms_removed", "serve --linger-ms 1", 3,
       "--linger-ms: unknown flag"},
      {"kernel_scalar_removed", "ingest in.fits out.fits --kernel scalar", 3,
       "--kernel"},
      // Output paths are probed before the run: a typo'd directory is a
      // bad flag value, not a failure discovered after the compute.
      {"bad_path_serve_trace",
       "serve --requests 1 --trace-out /nonexistent-dir/trace.json", 3,
       "--trace-out"},
      {"bad_path_serve_metrics",
       "serve --requests 1 --metrics-out /nonexistent-dir/metrics.jsonl", 3,
       "--metrics-out"},
      {"bad_path_serve_control",
       "serve --requests 1 --control --control-out "
       "/nonexistent-dir/control.jsonl",
       3, "--control-out"},
      // Cross-flag rules.
      {"control_out_requires_control",
       "serve --requests 1 --control-out decisions.jsonl", 3,
       "--control-out"},
      {"bad_backend_name", "serve --requests 1 --backend gpu", 3,
       "--backend"},
      {"shadow_rate_requires_shadowed",
       "serve --requests 1 --backend cpu --shadow-rate 0.5", 3,
       "--shadow-rate"},
      {"fault_rate_requires_unreliable", "pipeline --compute-fault-rate 0.5",
       3, "--compute-fault-rate"},
      // Chaos knobs point at the offending flag.
      {"shards_zero", "serve --shards 0", 3, "--shards"},
      {"shard_kill_malformed", "serve --shards 4 --shard-kill banana", 3,
       "SHARD@RESULT_COUNT"},
      {"shard_kill_out_of_range", "serve --shards 4 --shard-kill 7@10", 3,
       "out of range"},
      // Values outside the range the library accepts name their flag.
      {"campaign_trials_zero", "campaign --trials 0", 3, "--trials"},
      {"campaign_gamma0_above_one", "campaign --gamma0 2", 3, "--gamma0"},
      {"campaign_control_lambda_above_100", "campaign --control --lambda 200",
       3, "--lambda"},
      {"pipeline_gamma0_above_one", "pipeline --gamma0 2", 3, "--gamma0"},
      {"pipeline_crash_negative", "pipeline --crash -1", 3, "--crash"},
      {"pipeline_side_zero", "pipeline --side 0", 3, "--side"},
      {"serve_rate_negative", "serve --rate -5", 3, "--rate"},
      {"serve_otis_frac_above_one", "serve --otis-frac 3", 3, "--otis-frac"},
      {"serve_batch_zero", "serve --batch 0", 3, "--batch"},
      {"serve_capacity_zero", "serve --capacity 0", 3, "--capacity"},
      {"serve_ingress_drop_above_one", "serve --ingress-drop 2", 3,
       "--ingress-drop"},
      {"serve_priorities_past_int", "serve --priorities 4294967297", 3,
       "--priorities"},
      {"gen_frames_zero", "gen out.fits 0", 3, "frames"},
      // A value that looks like a flag is a missing value, not a file name.
      {"value_starting_with_dashes",
       "serve --requests 2 --workload-out w.jsonl --results-out --gen-only",
       3, "--results-out: missing value"},
  };
  // inf/nan parse as doubles but are never meaningful flag values.
  const char* kDoubleFlags[][3] = {
      {"downlink", "--gamma0", "downlink_gamma0"},
      {"downlink", "--link-loss", "downlink_link_loss"},
      {"downlink", "--lambda", "downlink_lambda"},
      {"serve --requests 1", "--otis-frac", "serve_otis_frac"},
      {"serve --requests 1", "--ingress-corrupt", "serve_ingress_corrupt"},
      {"pipeline", "--lambda", "pipeline_lambda"},
  };
  for (const auto& [verb, flag, name] : kDoubleFlags) {
    for (const auto& [value, suffix] :
         {std::pair{"inf", "inf"}, std::pair{"-inf", "neg_inf"},
          std::pair{"nan", "nan"}}) {
      cases.push_back({std::string("nonfinite_") + name + "_" + suffix,
                       std::string(verb) + " " + flag + " " + value, 3, flag});
    }
  }
  return cases;
}

/// Failure messages show the command line, not the struct's bytes.
void PrintTo(const ExitCase& c, std::ostream* os) { *os << c.args; }

class ExitCode : public ::testing::TestWithParam<ExitCase> {};

TEST_P(ExitCode, Matches) {
  const ExitCase& c = GetParam();
  const CliRun run = run_cli(c.args, /*capture_stderr=*/true);
  EXPECT_EQ(run.code, c.code) << c.args << "\n" << run.text;
  EXPECT_NE(run.text.find(c.stderr_has), std::string::npos)
      << c.args << ": stderr lacks '" << c.stderr_has << "':\n"
      << run.text;
}

INSTANTIATE_TEST_SUITE_P(Cli, ExitCode, ::testing::ValuesIn(exit_cases()),
                         [](const auto& info) { return info.param.name; });

std::uint32_t file_crc32(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<std::uint8_t> bytes(std::istreambuf_iterator<char>(in),
                                        {});
  return spacefts::edac::crc32(bytes);
}

// The one verb that changes payload bytes: gen -> corrupt --header ->
// ingest on a 16x16x8 baseline.  NAXIS1 of HDU 4 goes 16 -> 48, so the
// parse captures that readout's padding and sanity trims it again.  The
// digests and the report are those of the build before payloads became
// views of the file's bytes.
TEST(CliCorrupt, HeaderDamageRoundTripIsPinned) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("spacefts_cli_corrupt_" + std::to_string(getpid()));
  std::filesystem::create_directories(dir);
  const std::string clean = (dir / "t.fits").string();
  const std::string damaged = (dir / "tc.fits").string();
  const std::string repaired = (dir / "out.fits").string();

  ASSERT_EQ(run_cli("gen " + clean + " 8 16 1").code, 0);
  const CliRun corrupt =
      run_cli("corrupt " + clean + " " + damaged + " 0.003 2 --header");
  ASSERT_EQ(corrupt.code, 0);
  EXPECT_NE(corrupt.text.find("damaged NAXIS1 of HDU 4: 16 -> 48"),
            std::string::npos)
      << corrupt.text;
  EXPECT_NE(corrupt.text.find("with 106 flipped data bits"), std::string::npos)
      << corrupt.text;
  EXPECT_EQ(file_crc32(damaged), 0xd2a2b707u);

  const CliRun ingest = run_cli("ingest " + damaged + " " + repaired + " 50 4");
  ASSERT_EQ(ingest.code, 0);
  EXPECT_EQ(ingest.text,
            "sanity: 2 issue(s), 2 repaired\n"
            "preprocessing: 42 bits corrected across 37 pixels\n"
            "wrote " + repaired + "\n");
  EXPECT_EQ(file_crc32(repaired), 0xe2e01b5eu);
  std::filesystem::remove_all(dir);
}

}  // namespace
