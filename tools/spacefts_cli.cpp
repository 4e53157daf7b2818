/// \file spacefts_cli.cpp
/// Command-line front end for the preprocessing layer.  Run
/// `spacefts_cli help` for the verbs and `spacefts_cli help <verb>` for one
/// verb's flags; both are generated from the flag tables below.
///
/// Exit codes: 0 success, 1 operation failed, 2 usage error (unknown verb,
/// missing positionals), 3 bad flag (unknown flag or malformed value).
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "spacefts/backend/backend.hpp"
#include "spacefts/campaign/campaign.hpp"
#include "spacefts/campaign/compute_sweep.hpp"
#include "spacefts/campaign/downlink_sweep.hpp"
#include "spacefts/campaign/drift.hpp"
#include "spacefts/check/corpus.hpp"
#include "spacefts/control/bank.hpp"
#include "spacefts/control/controller.hpp"
#include "spacefts/check/differential.hpp"
#include "spacefts/core/algo_ngst.hpp"
#include "spacefts/core/kernel.hpp"
#include "spacefts/datagen/ngst.hpp"
#include "spacefts/dist/pipeline.hpp"
#include "spacefts/downlink/chain.hpp"
#include "spacefts/downlink/compressed_hdu.hpp"
#include "spacefts/fault/message_faults.hpp"
#include "spacefts/fault/models.hpp"
#include "spacefts/fits/io.hpp"
#include "spacefts/fits/sanity.hpp"
#include "spacefts/ingest/guard.hpp"
#include "spacefts/metrics/error.hpp"
#include "spacefts/serve/router.hpp"
#include "spacefts/serve/server.hpp"
#include "spacefts/serve/workload.hpp"
#include "spacefts/telemetry/jsonl.hpp"
#include "spacefts/telemetry/telemetry.hpp"

#ifndef SPACEFTS_VERSION
#define SPACEFTS_VERSION "0.0.0"
#endif

namespace {

using spacefts::core::Kernel;
using spacefts::downlink::ChainWorkload;

constexpr int kExitFailure = 1;  ///< the operation itself failed
constexpr int kExitUsage = 2;    ///< unknown verb / missing positionals
constexpr int kExitBadFlag = 3;  ///< unknown flag or malformed flag value

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Lower bound of a strictly positive value, as a closed interval.
constexpr double kPositive = std::numeric_limits<double>::denorm_min();

int usage();

/// Which compute substrate runs the preprocessing.  kInline (no --backend
/// at all) keeps the legacy inline-CPU path with no backend object.
enum class BackendKind { kInline, kCpu, kUnreliable, kShadowed };
constexpr const char* kBackendNames[] = {"", "cpu", "unreliable", "shadowed"};

using ShardKills = std::vector<std::pair<std::size_t, std::uint64_t>>;

/// Where a flag's value lands.  The pointee type is the flag's kind:
/// switch, unsigned (sizes and seeds), int, double, grid (comma list),
/// path, enum, or shard kill (`I@C`, repeatable).
using Target =
    std::variant<bool*, std::size_t*, int*, double*, std::string*,
                 std::vector<double>*, std::vector<std::size_t>*, Kernel*,
                 ChainWorkload*, std::vector<ChainWorkload>*, BackendKind*,
                 ShardKills*>;
static_assert(std::is_same_v<std::size_t, std::uint64_t>,
              "size and seed flags share one unsigned target kind");

/// One flag (or positional) of one verb: the single declaration that the
/// parser, its bounds check, and `help <verb>` all read.
struct Flag {
  const char* name;  ///< "--side"; "<in>" / "[seed]" is a positional
  Target target;
  const char* meta;  ///< metavar, or "a|b|c" for an enum
  const char* help;
  double lo = -kInf;  ///< closed bounds on a numeric value (each list item)
  double hi = kInf;
};

[[nodiscard]] bool is_flag(const char* arg) {
  return std::strncmp(arg, "--", 2) == 0;
}

/// Strict value parsers: the whole token must be consumed, so "8x" or ""
/// is a reportable mistake instead of a silent 8 (or 0).

[[nodiscard]] bool parse_value(const char* text, std::size_t& out) {
  if (*text == '\0' || *text == '-') return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(text, &end, 10);
  return errno == 0 && *end == '\0';
}

[[nodiscard]] bool parse_value(const char* text, int& out) {
  if (*text == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text, &end, 10);
  if (errno != 0 || *end != '\0' || v < INT_MIN || v > INT_MAX) return false;
  out = static_cast<int>(v);
  return true;
}

[[nodiscard]] bool parse_value(const char* text, double& out) {
  if (*text == '\0') return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtod(text, &end);
  // strtod happily parses "inf" and "nan" with errno == 0, but no flag has
  // a meaningful non-finite value, and an infinity would pass an open
  // upper bound.  Reject them here.
  return errno == 0 && *end == '\0' && std::isfinite(out);
}

[[nodiscard]] bool parse_value(const char* text, std::string& out) {
  out = text;
  return true;
}

/// An explicit kernel the host cannot run is honoured via resolve_kernel's
/// documented fallback, so it is not a usage error here.
[[nodiscard]] bool parse_value(const char* text, Kernel& out) {
  return spacefts::core::parse_kernel(text, out);
}

[[nodiscard]] bool parse_value(const char* text, ChainWorkload& out) {
  for (const auto w : {ChainWorkload::kNgstImage, ChainWorkload::kTelemetry}) {
    if (std::strcmp(text, spacefts::downlink::to_string(w)) == 0) {
      out = w;
      return true;
    }
  }
  return false;
}

[[nodiscard]] bool parse_value(const char* text, BackendKind& out) {
  for (std::size_t k = 1; k < std::size(kBackendNames); ++k) {
    if (std::strcmp(text, kBackendNames[k]) == 0) {
      out = static_cast<BackendKind>(k);
      return true;
    }
  }
  return false;
}

/// "I@C": kill shard I once the router has recorded C results.
[[nodiscard]] bool parse_value(const char* text,
                               std::pair<std::size_t, std::uint64_t>& out) {
  const char* at = std::strchr(text, '@');
  if (at == nullptr) return false;
  const std::string shard(text, at);
  return parse_value(shard.c_str(), out.first) &&
         parse_value(at + 1, out.second);
}

/// A comma list; empty items are skipped, but the list must not be empty.
template <typename T>
[[nodiscard]] bool parse_value(const char* text, std::vector<T>& out) {
  out.clear();
  std::stringstream list(text);
  std::string item;
  while (std::getline(list, item, ',')) {
    if (item.empty()) continue;
    if (!parse_value(item.c_str(), out.emplace_back())) return false;
  }
  return !out.empty();
}

template <typename T>
[[nodiscard]] bool within(const T& value, const Flag& flag) {
  if constexpr (std::is_arithmetic_v<T>) {
    return static_cast<double>(value) >= flag.lo &&
           static_cast<double>(value) <= flag.hi;
  } else if constexpr (requires { value.begin(); } &&
                       !std::is_same_v<T, std::string>) {
    for (const auto& item : value) {
      if (!within(item, flag)) return false;
    }
    return true;
  } else {
    return true;
  }
}

std::string format_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

std::string range_text(const Flag& flag) {
  if (flag.lo == -kInf && flag.hi == kInf) return {};
  if (flag.hi < kInf) {
    return std::string("in [") + format_double(flag.lo) + ", " +
           format_double(flag.hi) + "]";
  }
  return flag.lo == kPositive ? std::string("> 0")
                              : std::string(">= ") + format_double(flag.lo);
}

std::string expected(const Flag& flag) {
  if (*flag.meta == '\0') return {};
  return std::string(" (expected ") + flag.meta + ")";
}

/// Parses \p text into the flag's target (a switch takes none); nullopt on
/// success, else the complaint.
[[nodiscard]] std::optional<std::string> assign(const Flag& flag,
                                                const char* text) {
  return std::visit(
      [&](auto* target) -> std::optional<std::string> {
        using T = std::remove_pointer_t<decltype(target)>;
        if constexpr (std::is_same_v<T, bool>) {
          *target = true;
        } else {
          std::conditional_t<std::is_same_v<T, ShardKills>,
                             ShardKills::value_type, T>
              value{};
          if (!parse_value(text, value)) {
            return std::string("bad value '") + text + "'" + expected(flag);
          }
          if (!within(value, flag)) {
            return std::string("'") + text + "' is out of range (must be " +
                   range_text(flag) + ")";
          }
          if constexpr (std::is_same_v<T, ShardKills>) {
            target->push_back(value);  // repeatable: each one adds a kill
          } else {
            *target = std::move(value);
          }
        }
        return std::nullopt;
      },
      flag.target);
}

[[nodiscard]] const void* address(const Target& target) {
  return std::visit([](auto* p) -> const void* { return p; }, target);
}

/// Registry entry of one verb.
class Cli;
struct Verb {
  const char* name;
  int (*run)(Cli&);
  const char* summary;
};

/// One verb's command line, read against that verb's flag tables.  Outside
/// kRun, parse() prints the tables (as `help <verb>`, or as the verb's line
/// of the global usage) and tells the verb to return at once.
class Cli {
 public:
  enum class Mode { kRun, kHelp, kSynopsis };

  Cli(const Verb& verb, int argc, char** argv, Mode mode = Mode::kRun,
      std::FILE* out = stdout)
      : verb_(verb), argc_(argc), argv_(argv), mode_(mode), out_(out) {}

  /// Reads argv against \p tables.  nullopt: run the verb.  Otherwise the
  /// verb returns the given exit code without running.
  [[nodiscard]] std::optional<int> parse(
      std::initializer_list<std::span<const Flag>> tables) {
    std::vector<const Flag*> flags, positionals;
    for (const auto& table : tables) {
      for (const Flag& flag : table) {
        (is_flag(flag.name) ? flags : positionals).push_back(&flag);
        names_.emplace_back(address(flag.target), flag.name);
      }
    }
    if (mode_ != Mode::kRun) {
      print(tables, positionals, !flags.empty());
      return 0;
    }
    std::size_t next = 0;
    for (int i = 2; i < argc_; ++i) {
      const char* text = argv_[i];
      const Flag* flag = nullptr;
      if (is_flag(text)) {
        for (const Flag* f : flags) {
          if (std::strcmp(f->name, text) == 0) flag = f;
        }
        if (flag == nullptr) return complain(text, "unknown flag");
        if (!std::holds_alternative<bool*>(flag->target)) {
          if (i + 1 == argc_ || is_flag(argv_[i + 1])) {
            return complain(flag->name,
                            std::string("missing value") + expected(*flag));
          }
          text = argv_[++i];
        }
      } else if (next < positionals.size()) {
        flag = positionals[next++];
      } else {
        return usage();
      }
      if (const auto why = assign(*flag, text)) {
        return complain(flag->name, *why);
      }
      seen_.push_back(address(flag->target));
    }
    if (next < positionals.size() && positionals[next]->name[0] == '<') {
      return usage();
    }
    return std::nullopt;
  }

  /// The first of \p targets that the command line set, or nullptr.  For
  /// cross-flag rules, which stay in each verb as code.
  [[nodiscard]] const void* seen(
      std::initializer_list<const void*> targets) const {
    for (const void* target : targets) {
      for (const void* s : seen_) {
        if (s == target) return target;
      }
    }
    return nullptr;
  }

  /// Reports \p detail against the flag that writes \p target; exit 3.
  int fail(const void* target, const std::string& detail) const {
    for (const auto& [t, name] : names_) {
      if (t == target) return complain(name, detail);
    }
    return complain(verb_.name, detail);
  }

 private:
  static int complain(const char* what, const std::string& detail) {
    std::fprintf(stderr, "spacefts_cli: %s: %s\n", what, detail.c_str());
    return kExitBadFlag;
  }

  void print(std::initializer_list<std::span<const Flag>> tables,
             const std::vector<const Flag*>& positionals,
             bool has_flags) const {
    std::string synopsis = std::string("spacefts_cli ") + verb_.name;
    for (const Flag* p : positionals) synopsis += std::string(" ") + p->name;
    if (has_flags) synopsis += " [flags]";
    if (mode_ == Mode::kSynopsis) {
      std::fprintf(out_, "  %s\n", synopsis.c_str());
      return;
    }
    std::fprintf(out_, "usage: %s\n  %s\n", synopsis.c_str(), verb_.summary);
    for (const auto& table : tables) {
      for (const Flag& flag : table) {
        std::string head = flag.name;
        if (*flag.meta != '\0') head += std::string(" ") + flag.meta;
        // A long head puts its help text on the next line, aligned.
        if (head.size() >= 30) head.append("\n").append(32, ' ');
        std::string help = flag.help;
        if (const std::string range = range_text(flag); !range.empty()) {
          help.append(" (").append(range).append(")");
        }
        std::fprintf(out_, "  %-30s %s\n", head.c_str(), help.c_str());
      }
    }
  }

  const Verb& verb_;
  int argc_;
  char** argv_;
  Mode mode_;
  std::FILE* out_;
  std::vector<std::pair<const void*, const char*>> names_;
  std::vector<const void*> seen_;
};

std::vector<Flag> kernel_flags(Kernel& kernel) {
  return {{"--kernel", &kernel, "auto|swar|avx2|avx512",
           "voter kernel (output is identical for every kernel)"}};
}

/// Shared --backend family across the verbs that execute preprocessing
/// compute (serve, pipeline, downlink).
struct BackendOptions {
  BackendKind kind = BackendKind::kInline;
  /// Guard sample fraction under --backend shadowed.  The CLI default is
  /// 1.0 — check everything — so the shadowed path is payload-safe out of
  /// the box; production-style sampling opts down via --shadow-rate.
  double shadow_rate = 1.0;
  double fault_rate = 0.0;
  std::uint64_t fault_seed = spacefts::fault::ComputeFaultConfig{}.seed;
  std::string log_out;

  std::vector<Flag> flags() {
    return {
        {"--backend", &kind, "cpu|unreliable|shadowed",
         "compute substrate for the preprocessing (default: the inline CPU "
         "path)"},
        {"--compute-fault-rate", &fault_rate, "X",
         "silent-corruption rate of the unreliable substrate", 0, 1},
        {"--compute-fault-seed", &fault_seed, "S",
         "seed of the unreliable substrate's fault model"},
        {"--shadow-rate", &shadow_rate, "X",
         "fraction of requests the shadowed backend re-executes on the "
         "trusted CPU and byte-compares",
         0, 1},
        {"--backend-log", &log_out, "FILE",
         "write the shadow guard's per-request decision log as JSONL"},
    };
  }

  /// Flag combinations that cannot mean anything; 0 when consistent.
  [[nodiscard]] int validate(const Cli& cli) const {
    if (cli.seen({&shadow_rate}) && kind != BackendKind::kShadowed) {
      return cli.fail(&shadow_rate, "requires --backend shadowed");
    }
    if (const void* t = cli.seen({&fault_rate, &fault_seed});
        t != nullptr && (kind == BackendKind::kInline ||
                         kind == BackendKind::kCpu)) {
      return cli.fail(t, "requires --backend unreliable or shadowed");
    }
    if (!log_out.empty() && kind != BackendKind::kShadowed) {
      return cli.fail(&log_out, "requires --backend shadowed");
    }
    return 0;
  }

  /// Builds the configured backend stack; null when the flags ask for the
  /// legacy inline-CPU path (no --backend at all).  When the stack includes
  /// a shadow guard, \p shadow receives it so the caller can export the
  /// decision log and health counters.
  [[nodiscard]] std::shared_ptr<spacefts::backend::Backend> build(
      std::shared_ptr<spacefts::backend::ShadowBackend>* shadow) const {
    namespace be = spacefts::backend;
    if (kind == BackendKind::kInline) return nullptr;
    auto cpu = std::make_shared<be::CpuBackend>();
    if (kind == BackendKind::kCpu) return cpu;
    spacefts::fault::ComputeFaultConfig faults;
    faults.fault_rate = fault_rate;
    faults.seed = fault_seed;
    auto unreliable = std::make_shared<be::UnreliableBackend>(cpu, faults);
    if (kind == BackendKind::kUnreliable) return unreliable;
    be::ShadowConfig sc;
    sc.shadow_rate = shadow_rate;
    auto shadowed = std::make_shared<be::ShadowBackend>(unreliable, cpu, sc);
    if (shadow != nullptr) *shadow = shadowed;
    return shadowed;
  }
};

/// Exports a shadow guard's canonical decision log (sorted, deduplicated)
/// as JSON-lines, replacing any previous run's log.
[[nodiscard]] bool write_backend_log(
    const std::string& path,
    const std::shared_ptr<spacefts::backend::ShadowBackend>& shadow) {
  std::ofstream out(path, std::ios::trunc);
  out << spacefts::backend::decisions_to_jsonl(shadow->decisions());
  if (!out) {
    std::fprintf(stderr, "spacefts_cli: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

/// Early writability probe for output-path flags: a typo'd directory should
/// cost exit 3 before the run, not exit 1 after minutes of compute.  Append
/// mode creates a missing file but never truncates an existing one, so a
/// later failure leaves any prior artifact intact.
[[nodiscard]] bool probe_writable(const std::string& path) {
  std::ofstream probe(path, std::ios::app);
  return static_cast<bool>(probe);
}

/// Shared handling of --trace-out/--metrics-out across verbs.
struct TelemetryOptions {
  std::string trace_out;
  std::string metrics_out;

  std::vector<Flag> flags() {
    return {
        {"--trace-out", &trace_out, "FILE",
         "write a Chrome trace_event JSON of the run (chrome://tracing or "
         "Perfetto)"},
        {"--metrics-out", &metrics_out, "FILE",
         "write the telemetry counters and histograms as JSONL"},
    };
  }

  [[nodiscard]] bool requested() const {
    return !trace_out.empty() || !metrics_out.empty();
  }

  /// Turns recording on before the instrumented run starts.
  void arm() const {
    if (!requested()) return;
    if (!spacefts::telemetry::kCompiledIn) {
      std::fprintf(stderr,
                   "spacefts_cli: built with SPACEFTS_TELEMETRY=OFF; "
                   "--trace-out/--metrics-out produce no output\n");
      return;
    }
    spacefts::telemetry::set_enabled(true);
  }

  /// Writes the requested artifacts after the run; 0 on success.
  [[nodiscard]] int finish() const {
    if (!requested() || !spacefts::telemetry::kCompiledIn) return 0;
    int rc = 0;
    if (!trace_out.empty()) {
      if (spacefts::telemetry::write_trace(trace_out)) {
        std::printf("wrote trace %s\n", trace_out.c_str());
      } else {
        rc = kExitFailure;
      }
    }
    if (!metrics_out.empty()) {
      if (spacefts::telemetry::write_metrics(metrics_out)) {
        std::printf("wrote metrics %s\n", metrics_out.c_str());
      } else {
        rc = kExitFailure;
      }
    }
    return rc;
  }
};

/// Learns the baseline geometry from the first HDU whose header and
/// payload agree (a real deployment knows it a priori).
spacefts::fits::ImageExpectation probe_expectation(
    std::span<const std::uint8_t> bytes) {
  spacefts::fits::ImageExpectation expectation;
  expectation.bitpix = 16;
  try {
    const auto probe = spacefts::fits::FitsFile::parse(bytes);
    for (const auto& hdu : probe.hdus()) {
      const auto w = hdu.header.get_int("NAXIS1");
      const auto h = hdu.header.get_int("NAXIS2");
      if (w && h && *w > 0 && *h > 0 &&
          hdu.data.size() ==
              static_cast<std::size_t>(*w) * static_cast<std::size_t>(*h) * 2) {
        expectation.width = *w;
        expectation.height = *h;
        break;
      }
    }
  } catch (const spacefts::fits::FitsError&) {
    // Leave the expectation open; the guard reports what it can.
  }
  return expectation;
}

spacefts::common::TemporalStack<std::uint16_t> load_stack(
    const std::string& path) {
  const auto bytes = spacefts::fits::read_bytes(path);
  // Load through the sanity layer (Λ = 0: repair headers, never touch
  // data) so damaged files remain readable.
  spacefts::ingest::IngestConfig config;
  config.algo.lambda = 0.0;
  config.expectation = probe_expectation(bytes);
  const spacefts::ingest::IngestGuard guard(config);
  auto result = guard.ingest(bytes);
  if (!result.ok) throw spacefts::fits::FitsError(result.error);
  return std::move(result.stack);
}

int cmd_gen(Cli& cli) {
  std::string out;
  std::size_t frames = 64, side = 32;
  std::uint64_t seed = 1;
  const Flag flags[] = {
      {"<out.fits>", &out, "", "output FITS path"},
      {"[frames]", &frames, "", "readouts", 1},
      {"[side]", &side, "", "image side in pixels"},
      {"[seed]", &seed, "", "scene seed"},
  };
  if (const auto rc = cli.parse({flags})) return *rc;

  spacefts::datagen::NgstSimulator sim(seed);
  spacefts::datagen::SceneParams scene;
  scene.width = side;
  scene.height = side;
  const auto stack = sim.stack(frames, scene);
  spacefts::fits::write_bytes(out, spacefts::ingest::IngestGuard::pack(stack));
  std::printf("wrote %s: %zux%zu, %zu readouts\n", out.c_str(), side, side,
              frames);
  return 0;
}

int cmd_corrupt(Cli& cli) {
  std::string in, out;
  double gamma0 = 0.0;
  std::uint64_t seed = 2;
  bool hit_header = false;
  const Flag flags[] = {
      {"<in>", &in, "", "input FITS path"},
      {"<out>", &out, "", "output FITS path"},
      {"<gamma0>", &gamma0, "", "bit-flip probability per data bit", 0, 1},
      {"[seed]", &seed, "", "fault seed"},
      {"--header", &hit_header, "",
       "also damage one structural keyword (NAXIS1 of the middle HDU)"},
  };
  if (const auto rc = cli.parse({flags})) return *rc;

  auto file = spacefts::fits::read_file(in);
  spacefts::common::Rng rng(seed);
  const spacefts::fault::UncorrelatedFaultModel model(gamma0);
  std::size_t flipped = 0;
  for (auto& hdu : file.hdus()) {
    // The data unit is a byte array; corrupt a copy 16 bits at a time.
    std::vector<std::uint8_t> data(hdu.data.begin(), hdu.data.end());
    const std::size_t words = data.size() / 2;
    const auto mask = model.mask16(words, rng);
    for (std::size_t w = 0; w < words; ++w) {
      data[2 * w] ^= static_cast<std::uint8_t>(mask[w] >> 8);
      data[2 * w + 1] ^= static_cast<std::uint8_t>(mask[w] & 0xFF);
    }
    hdu.data = spacefts::fits::Payload(std::move(data));
    flipped += spacefts::fault::count_faults<std::uint16_t>(mask);
  }
  if (hit_header && !file.hdus().empty()) {
    auto& header = file.hdus()[file.hdus().size() / 2].header;
    const auto naxis1 = header.get_int("NAXIS1").value_or(0);
    header.set_int("NAXIS1", naxis1 ^ 0x20);
    std::printf("damaged NAXIS1 of HDU %zu: %lld -> %lld\n",
                file.hdus().size() / 2, static_cast<long long>(naxis1),
                static_cast<long long>(naxis1 ^ 0x20));
  }
  spacefts::fits::write_file(out, file);
  std::printf("wrote %s with %zu flipped data bits (gamma0=%g)\n", out.c_str(),
              flipped, gamma0);
  return 0;
}

int cmd_ingest(Cli& cli) {
  std::string in, out;
  spacefts::ingest::IngestConfig config;
  TelemetryOptions telem;
  const Flag flags[] = {
      {"<in>", &in, "", "input FITS path"},
      {"<out>", &out, "", "repaired baseline output path"},
      {"[lambda]", &config.algo.lambda, "", "voter sensitivity", 0, 100},
      {"[upsilon]", &config.algo.upsilon, "",
       "temporal neighbours consulted (even)", 2},
      {"--threads", &config.algo.threads, "N",
       "preprocessing worker lanes (0 = all hardware threads)"},
  };
  if (const auto rc = cli.parse(
          {flags, kernel_flags(config.algo.kernel), telem.flags()})) {
    return *rc;
  }

  const auto bytes = spacefts::fits::read_bytes(in);
  config.expectation = probe_expectation(bytes);

  telem.arm();
  const spacefts::ingest::IngestGuard guard(config);
  const auto result = guard.ingest(bytes);
  std::size_t issues = 0, repaired = 0;
  for (const auto& report : result.sanity) {
    issues += report.issues.size();
    for (const auto& issue : report.issues) repaired += issue.repaired ? 1 : 0;
  }
  std::printf("sanity: %zu issue(s), %zu repaired\n", issues, repaired);
  if (!result.ok) {
    std::fprintf(stderr, "ingest failed: %s\n", result.error.c_str());
    const int telem_rc = telem.finish();
    return telem_rc != 0 ? telem_rc : kExitFailure;
  }
  std::printf("preprocessing: %zu bits corrected across %zu pixels\n",
              result.preprocess.bits_corrected,
              result.preprocess.pixels_corrected);
  spacefts::fits::write_bytes(out,
                              spacefts::ingest::IngestGuard::pack(result.stack));
  std::printf("wrote %s\n", out.c_str());
  return telem.finish();
}

int cmd_info(Cli& cli) {
  std::string in;
  const Flag flags[] = {{"<in>", &in, "", "FITS path"}};
  if (const auto rc = cli.parse({flags})) return *rc;
  const auto file = spacefts::fits::read_file(in);
  std::printf("%zu HDU(s)\n", file.hdus().size());
  for (std::size_t i = 0; i < file.hdus().size(); ++i) {
    const auto& hdu = file.hdus()[i];
    std::printf("HDU %zu: BITPIX=%lld NAXIS1=%lld NAXIS2=%lld data=%zu bytes\n",
                i,
                static_cast<long long>(hdu.header.get_int("BITPIX").value_or(0)),
                static_cast<long long>(hdu.header.get_int("NAXIS1").value_or(0)),
                static_cast<long long>(hdu.header.get_int("NAXIS2").value_or(0)),
                hdu.data.size());
  }
  return 0;
}

int cmd_psi(Cli& cli) {
  std::string path_a, path_b;
  const Flag flags[] = {{"<a>", &path_a, "", "first baseline"},
                        {"<b>", &path_b, "", "second baseline"}};
  if (const auto rc = cli.parse({flags})) return *rc;
  const auto a = load_stack(path_a);
  const auto b = load_stack(path_b);
  if (a.cube().size() != b.cube().size()) {
    std::fprintf(stderr, "baseline sizes differ\n");
    return kExitFailure;
  }
  const double psi = spacefts::metrics::average_relative_error<std::uint16_t>(
      a.cube().voxels(), b.cube().voxels());
  std::printf("Psi = %.8f\n", psi);
  return 0;
}

int cmd_pipeline(Cli& cli) {
  // One end-to-end run under a deliberately lively default fault model, so
  // a default invocation's trace shows the full protocol (retries, CRC
  // rejects, degraded completions) rather than a straight-line success.
  std::size_t side = 32, frames = 16;
  double link_loss = 0.3;
  double control_budget_ms = 0.0;  ///< > 0: fit lambda/upsilon to budget
  std::uint64_t seed = 42;
  spacefts::dist::PipelineConfig pc;
  pc.workers = 4;
  pc.fragment_side = 16;
  pc.gamma0 = 0.002;
  pc.worker_crash_prob = 0.1;
  TelemetryOptions telem;
  BackendOptions bopts;
  const Flag flags[] = {
      {"--side", &side, "N", "image side in pixels", 1},
      {"--frames", &frames, "N", "readouts", 3},
      {"--workers", &pc.workers, "N", "simulated workers", 1},
      {"--fragment-side", &pc.fragment_side, "N",
       "fragment tile side (must divide --side)", 1},
      {"--gamma0", &pc.gamma0, "X", "memory bit-flip probability", 0, 1},
      {"--crash", &pc.worker_crash_prob, "X", "worker crash probability", 0,
       1},
      {"--link-loss", &link_loss, "X",
       "link drop/corrupt/delay probability (half as many duplicates)", 0, 1},
      {"--lambda", &pc.algo.lambda, "X", "voter sensitivity", 0, 100},
      {"--control-budget-ms", &control_budget_ms, "X",
       "fit lambda and upsilon to this virtual-cost budget (overrides "
       "--lambda)",
       kPositive},
      {"--retries", &pc.max_link_retries, "N", "link retry budget per tile"},
      {"--seed", &seed, "S", "scene and fault seed"},
      {"--threads", &pc.algo.threads, "N", "preprocessing worker lanes"},
  };
  if (const auto rc = cli.parse({flags, kernel_flags(pc.algo.kernel),
                                 bopts.flags(), telem.flags()})) {
    return *rc;
  }
  if (const int rc = bopts.validate(cli)) return rc;

  telem.arm();
  spacefts::datagen::NgstSimulator gen(seed);
  spacefts::datagen::SceneParams scene;
  scene.width = side;
  scene.height = side;
  auto readouts = gen.stack(frames, scene);

  // The real acquisition path: container roundtrip through the ingest
  // guard (Λ = 0, lossless) before the master scatters fragments.
  spacefts::ingest::IngestConfig ic;
  ic.expectation.bitpix = 16;
  ic.expectation.width = static_cast<std::int64_t>(side);
  ic.expectation.height = static_cast<std::int64_t>(side);
  ic.algo.lambda = 0.0;
  ic.algo.kernel = pc.algo.kernel;
  const spacefts::ingest::IngestGuard guard(ic);
  auto ingested = guard.ingest(spacefts::ingest::IngestGuard::pack(readouts));
  if (!ingested.ok) {
    std::fprintf(stderr, "pipeline: ingest failed: %s\n",
                 ingested.error.c_str());
    return kExitFailure;
  }
  readouts = std::move(ingested.stack);

  pc.link.faults = spacefts::fault::link_loss_faults(link_loss);
  std::shared_ptr<spacefts::backend::ShadowBackend> shadow;
  if (const auto backend = bopts.build(&shadow)) {
    // Fragment i computes as epoch 1 + i so fault plans and shadow samples
    // are per-fragment, matching the serving tier's pipeline epochs.
    pc.ngst_executor = [backend](
                           spacefts::common::TemporalStack<std::uint16_t>& tile,
                           const spacefts::core::AlgoNgstConfig& cfg,
                           std::size_t fragment) {
      const spacefts::backend::ComputeMeta meta{0, 1 + fragment};
      return backend->preprocess(tile, cfg, meta, nullptr);
    };
  }
  if (control_budget_ms > 0.0) {
    // Open-loop controller fit: the hottest (lambda, upsilon) whose virtual
    // cost for this job keeps headroom under the budget.  Overrides
    // --lambda — the two knobs answer the same question differently.
    spacefts::control::ControlConfig cc;
    cc.deadline_budget_ms = control_budget_ms;
    auto point = spacefts::control::fit_budget(cc, side * side * frames);
    // Same per-instrument clamp the serving tuner applies: NGST voting
    // needs upsilon < frames, rounded down to even.
    std::size_t upsilon_cap = frames > 1 ? frames - 1 : 2;
    upsilon_cap -= upsilon_cap % 2;
    if (upsilon_cap >= 2 && point.upsilon > upsilon_cap) {
      point.upsilon = upsilon_cap;
    }
    pc.algo.lambda = point.lambda;
    pc.algo.upsilon = point.upsilon;
    std::printf(
        "control: budget %.3g ms -> lambda %.10g, upsilon %zu (virtual cost"
        " %.4g ms)\n",
        control_budget_ms, point.lambda, point.upsilon,
        spacefts::control::virtual_cost_ms(side * side * frames, point));
  }

  spacefts::common::Rng rng = gen.rng().split();
  const auto result = spacefts::dist::run_pipeline(readouts, pc, rng);

  std::printf(
      "pipeline: %zu fragments, coverage %.4f, makespan %.4fs\n"
      "  faults injected %zu, pixels corrected %zu\n"
      "  link retries %zu, crc failures %zu, byzantine rejected %zu\n"
      "  worker crashes %zu, reassignments %zu, degraded fragments %zu\n",
      result.fragments, result.coverage, result.makespan_s,
      result.faults_injected, result.pixels_corrected, result.link_retries,
      result.crc_failures, result.byzantine_rejected, result.worker_crashes,
      result.reassignments, result.degraded_fragments);
  if (shadow) {
    const auto health = shadow->health();
    std::printf(
        "  shadow guard: %zu executed, %zu sampled, %zu mismatches%s\n",
        health.executed, health.sampled, health.mismatches,
        health.quarantined ? " [QUARANTINE]" : "");
    if (!bopts.log_out.empty() &&
        !write_backend_log(bopts.log_out, shadow)) {
      return kExitFailure;
    }
  }
  return telem.finish();
}

/// The end-to-end downlink scenario as a verb: fly the full chain once
/// (datagen → optional voter → rice → CRC/Hamming frames → faulty link →
/// deframe → science product) and report fidelity vs the clean-chain
/// golden.  --out writes the received product as a Rice-compressed FITS —
/// deterministic bytes, so CI `cmp`s runs across thread counts.
int cmd_downlink(Cli& cli) {
  spacefts::downlink::ChainConfig config;
  std::string out_path, golden_path;
  double link_loss = 0.0;
  bool no_preprocess = false;
  BackendOptions backend;
  const Flag flags[] = {
      {"--workload", &config.workload, "ngst|telemetry",
       "image stack or 1D telemetry channel bank"},
      {"--side", &config.side, "N", "image side / telemetry channels", 1},
      {"--frames", &config.frames, "N", "readouts / samples per channel", 3},
      {"--tile-rows", &config.tile_rows, "N", "product rows per downlink frame",
       1},
      {"--lambda", &config.lambda, "X", "voter sensitivity", 0, 100},
      {"--upsilon", &config.upsilon, "N", "temporal neighbours (even)", 2},
      {"--gamma0", &config.gamma0, "X", "on-board memory bit-flip probability",
       0, 1},
      {"--link-loss", &link_loss, "X",
       "link drop/corrupt/delay probability (half as many duplicates)", 0, 1},
      {"--no-preprocess", &no_preprocess, "",
       "skip the voter (the paper's control arm)"},
      {"--seed", &config.seed, "S", "flight seed"},
      {"--threads", &config.threads, "N", "preprocessing worker lanes"},
      {"--out", &out_path, "FILE",
       "write the received product as Rice-compressed FITS"},
      {"--golden-out", &golden_path, "FILE",
       "write the clean-chain golden product the same way"},
  };
  if (const auto rc = cli.parse(
          {flags, kernel_flags(config.kernel), backend.flags()})) {
    return *rc;
  }
  if (config.upsilon % 2 != 0) return cli.fail(&config.upsilon, "must be even");
  if (const int rc = backend.validate(cli)) return rc;
  for (const std::string* path : {&out_path, &golden_path}) {
    if (!path->empty() && !probe_writable(*path)) {
      return cli.fail(path, "path is not writable");
    }
  }
  config.link = spacefts::fault::link_loss_faults(link_loss);
  config.preprocess = !no_preprocess;
  std::shared_ptr<spacefts::backend::ShadowBackend> shadow;
  config.backend = backend.build(&shadow);

  spacefts::downlink::ChainReport report;
  try {
    report = spacefts::downlink::run_chain(config);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "downlink: %s\n", ex.what());
    return kExitFailure;
  }

  std::printf("downlink: workload=%s side=%zu frames=%zu lambda=%g "
              "gamma0=%g preprocess=%s\n",
              spacefts::downlink::to_string(config.workload), config.side,
              config.frames, config.lambda, config.gamma0,
              config.preprocess ? "on" : "off");
  std::printf(
      "  tiles %zu (%zu degraded), frames sent %zu, dropped %zu, corrupted "
      "%zu, recovered %zu, hamming repairs %zu\n",
      report.tiles, report.tiles_degraded, report.frames_sent,
      report.frames_dropped, report.frames_corrupted, report.frames_recovered,
      report.words_corrected);
  std::printf(
      "  wire %zu bytes for %zu raw (ratio %.3f), memory bits flipped %zu, "
      "voter corrected %zu pixels (%zu vetoed)\n",
      report.wire_bytes, report.raw_bytes, report.compression_ratio,
      report.memory_bits_flipped, report.pixels_corrected,
      report.pixels_vetoed);
  std::printf("  fidelity vs golden: psnr %.2f dB, pixel match %.6f\n",
              report.psnr_db, report.pixel_match);

  const auto write_product =
      [](const std::string& path,
         const spacefts::common::Image<std::uint16_t>& image) {
        spacefts::fits::FitsFile file;
        file.hdus().push_back(spacefts::downlink::make_compressed_hdu(image));
        spacefts::fits::write_bytes(path, file.serialize());
      };
  try {
    if (!out_path.empty()) {
      write_product(out_path, report.product);
      std::printf("wrote product %s\n", out_path.c_str());
    }
    if (!golden_path.empty()) {
      write_product(golden_path, report.golden);
      std::printf("wrote golden %s\n", golden_path.c_str());
    }
  } catch (const spacefts::fits::FitsError& ex) {
    std::fprintf(stderr, "downlink: %s\n", ex.what());
    return kExitFailure;
  }
  if (!backend.log_out.empty() && shadow &&
      !write_backend_log(backend.log_out, shadow)) {
    return kExitFailure;
  }
  return 0;
}

/// The tail every campaign mode shares: report where the rows went, flush
/// the telemetry, then apply the mode's regression gate under --enforce.
/// \p gate returns the violation count and fills its diagnostics.
int finish_campaign(bool written, const std::string& path,
                    const std::string& summary, const TelemetryOptions& telem,
                    bool enforce,
                    const std::function<std::size_t(std::string&)>& gate) {
  if (!written) {
    std::fprintf(stderr, "campaign: cannot write %s\n", path.c_str());
    return kExitFailure;
  }
  std::printf("campaign: %s %s\n", summary.c_str(), path.c_str());
  const int telem_rc = telem.finish();
  if (enforce) {
    std::string diagnostics;
    const std::size_t violations = gate(diagnostics);
    if (violations > 0) {
      std::fprintf(stderr, "campaign enforce: %zu violation(s)\n%s",
                   violations, diagnostics.c_str());
      return kExitFailure;
    }
    std::printf("campaign enforce: pass\n");
  }
  return telem_rc;
}

int cmd_campaign(Cli& cli) {
  namespace campaign = spacefts::campaign;
  campaign::CampaignConfig config;
  std::string out_path = "BENCH_campaign.json";
  bool enforce = false;
  // Drifting-gamma0 controller sweep (--control): reuses --gamma0 as the
  // phase schedule and --lambda as the fixed-baseline grid.
  bool control_mode = false;
  std::size_t phase_len = 96, drift_shards = 0;
  ShardKills drift_kills;
  double control_budget_ms = 0.0;
  // Compute-fault x shadow-rate sweep (--compute): detected-vs-escaped
  // curve for the backend subsystem's untrusted-accelerator axis.
  bool compute_mode = false;
  campaign::ComputeSweepConfig compute_cfg;
  // End-to-end downlink fidelity sweep (--downlink): reuses the --gamma0/
  // --link-loss/--lambda grids as chain axes.
  bool downlink_mode = false;
  campaign::DownlinkSweepConfig downlink_cfg;
  TelemetryOptions telem;
  const Flag flags[] = {
      {"--gamma0", &config.gamma0_grid, "a,b", "memory bit-flip grid", 0, 1},
      {"--crash", &config.crash_grid, "a,b", "worker crash grid", 0, 1},
      {"--link-loss", &config.link_loss_grid, "a,b", "link-loss grid", 0, 1},
      {"--lambda", &config.lambda_grid, "a,b", "voter sensitivity grid", 0,
       100},
      {"--trials", &config.trials, "N", "trials per cell", 1},
      {"--seed", &config.seed, "S", "campaign seed"},
      {"--threads", &config.threads, "N",
       "trial lanes (serve workers under --control)"},
      {"--retries", &config.max_link_retries, "N", "link retry budget"},
      {"--out", &out_path, "FILE",
       "JSONL rows (--control writes control_drift.jsonl by default)"},
      {"--enforce", &enforce, "", "exit 1 on any regression-gate violation"},
      {"--control", &control_mode, "",
       "drifting-gamma0 controller sweep instead of the fault grid"},
      {"--phase-len", &phase_len, "N", "requests per gamma0 phase (--control)",
       1},
      {"--shards", &drift_shards, "N", "router shards (--control)", 1},
      {"--shard-kill", &drift_kills, "SHARD@RESULT_COUNT",
       "kill a shard mid-load (--control)"},
      {"--control-budget-ms", &control_budget_ms, "X",
       "controller deadline budget (--control)", kPositive},
      {"--compute", &compute_mode, "",
       "compute-fault x shadow-rate detected-vs-escaped sweep"},
      {"--fault-rates", &compute_cfg.fault_rate_grid, "a,b",
       "compute fault-rate grid (--compute)", 0, 1},
      {"--shadow-rates", &compute_cfg.shadow_rate_grid, "a,b",
       "shadow-rate grid (--compute)", 0, 1},
      {"--requests", &compute_cfg.requests, "N",
       "requests per cell (--compute)", 1},
      {"--downlink", &downlink_mode, "",
       "end-to-end fidelity sweep, preprocessing on vs off"},
      {"--workloads", &downlink_cfg.workload_grid, "ngst,telemetry",
       "chain workloads (--downlink)"},
      {"--side", &downlink_cfg.side, "N", "image side (--downlink)", 1},
      {"--frames", &downlink_cfg.frames, "N", "readouts (--downlink)", 3},
      {"--tile-rows", &downlink_cfg.tile_rows, "N",
       "product rows per frame (--downlink)", 1},
  };
  if (const auto rc = cli.parse({flags, telem.flags()})) return *rc;

  if (const void* t = cli.seen({&drift_shards, &drift_kills,
                                &control_budget_ms});
      t != nullptr && !control_mode) {
    return cli.fail(t, "requires --control");
  }
  if (control_mode + compute_mode + downlink_mode > 1) {
    return cli.fail(downlink_mode ? &downlink_mode : &compute_mode,
                    "cannot be combined with another campaign mode");
  }
  if (const void* t = cli.seen({&compute_cfg.fault_rate_grid,
                                &compute_cfg.shadow_rate_grid,
                                &compute_cfg.requests});
      t != nullptr && !compute_mode) {
    return cli.fail(t, "requires --compute");
  }
  if (const void* t =
          cli.seen({&downlink_cfg.workload_grid, &downlink_cfg.side,
                    &downlink_cfg.frames, &downlink_cfg.tile_rows});
      t != nullptr && !downlink_mode) {
    return cli.fail(t, "requires --downlink");
  }

  // The grid families upsert keyed rows into --out and gate alike.
  const auto finish_grid = [&](const auto& report, const std::string& what) {
    return finish_campaign(
        spacefts::telemetry::jsonl::upsert_jsonl(
            campaign::to_jsonl(report), campaign::campaign_row_key, out_path),
        out_path, what + "; appended to", telem, enforce,
        [&](std::string& d) { return campaign::enforce(report, d); });
  };
  const auto cells = [](const auto& report) {
    return std::to_string(report.cells.size()) + " cells";
  };
  if (downlink_mode) {
    // Shared grid flags override the sweep's own defaults only when given
    // explicitly — the classic campaign's defaults are not chain defaults.
    if (cli.seen({&config.gamma0_grid})) {
      downlink_cfg.gamma0_grid = config.gamma0_grid;
    }
    if (cli.seen({&config.link_loss_grid})) {
      downlink_cfg.link_loss_grid = config.link_loss_grid;
    }
    if (cli.seen({&config.lambda_grid})) {
      downlink_cfg.lambda_grid = config.lambda_grid;
    }
    downlink_cfg.trials = config.trials;
    downlink_cfg.seed = config.seed;
    downlink_cfg.threads = config.threads;
    telem.arm();
    const auto report = campaign::run_downlink_sweep(downlink_cfg);
    std::printf("%-10s %8s %10s %8s %9s %9s %9s %9s %9s\n", "workload",
                "gamma0", "link_loss", "lambda", "psnr_on", "psnr_off",
                "match_on", "match_off", "degraded");
    for (const auto& c : report.cells) {
      std::printf("%-10s %8.4g %10.4g %8.4g %9.2f %9.2f %9.4f %9.4f %4zu/%-4zu\n",
                  spacefts::downlink::to_string(c.workload), c.gamma0,
                  c.link_loss, c.lambda, c.psnr_on_db, c.psnr_off_db,
                  c.match_on, c.match_off, c.degraded_on, c.degraded_off);
    }
    return finish_grid(report, "downlink sweep, " + cells(report));
  }

  if (compute_mode) {
    compute_cfg.seed = config.seed;
    telem.arm();
    const auto report = campaign::run_compute_sweep(compute_cfg);
    std::printf("%-12s %-12s %8s %8s %8s %8s %8s %s\n", "fault_rate",
                "shadow_rate", "requests", "injected", "detected", "escaped",
                "stalls", "quarantine");
    for (const auto& c : report.cells) {
      std::printf("%-12g %-12g %8zu %8zu %8zu %8zu %8zu %s\n", c.fault_rate,
                  c.shadow_rate, c.requests, c.injected, c.detected, c.escaped,
                  c.stalls, c.quarantined ? "yes" : "no");
    }
    return finish_grid(report, "compute sweep, " + cells(report));
  }

  if (control_mode) {
    campaign::DriftConfig dc;
    if (cli.seen({&config.gamma0_grid})) {
      dc.phases.clear();
      for (const double gamma0 : config.gamma0_grid) {
        dc.phases.push_back({gamma0, phase_len});
      }
    } else {
      for (auto& phase : dc.phases) phase.requests = phase_len;
    }
    if (cli.seen({&config.lambda_grid})) dc.lambda_grid = config.lambda_grid;
    dc.seed = config.seed;
    // --threads means serve worker threads here (the determinism axis the
    // control-smoke CI job sweeps); the classic grid uses it for trials.
    dc.workers = config.threads > 0 ? config.threads : 2;
    dc.shards = drift_shards;
    dc.shard_kills = drift_kills;
    if (control_budget_ms > 0.0) {
      dc.control.deadline_budget_ms = control_budget_ms;
    }

    telem.arm();
    const auto report = campaign::run_drift(dc);
    for (const auto& arm : report.arms) {
      std::printf(
          "control %-12s science %12.0f  corrected %llu/%llu  vetoed %llu"
          "  vcost %.4g ms  compliance %.4g  decisions %zu (+%zu/-%zu/!%zu)\n",
          arm.name.c_str(), arm.science,
          static_cast<unsigned long long>(arm.corrected_faulty),
          static_cast<unsigned long long>(arm.corrected_clean),
          static_cast<unsigned long long>(arm.vetoed),
          arm.virtual_cost_ms_mean, arm.virtual_compliance, arm.decisions,
          arm.raises, arm.relaxes, arm.sheds);
    }
    const std::string drift_out =
        cli.seen({&out_path}) ? out_path : std::string("control_drift.jsonl");
    // Truncate, not append: the file is a byte-comparable artifact.
    std::ofstream out(drift_out, std::ios::trunc);
    out << campaign::to_jsonl(report);
    out.close();
    return finish_campaign(
        static_cast<bool>(out), drift_out,
        std::string("controller sweep, ") + std::to_string(report.arms.size()) +
            " arms; wrote",
        telem, enforce,
        [&](std::string& d) { return campaign::enforce_drift(report, d); });
  }

  telem.arm();
  const auto report = campaign::run_campaign(config);
  return finish_grid(report, cells(report) + ", " +
                                 std::to_string(report.trials_survived) + "/" +
                                 std::to_string(report.trials_run) +
                                 " trials survived");
}

int cmd_serve(Cli& cli) {
  std::string replay_path, results_out, workload_out;
  bool gen_only = false, pace = false;
  bool control_enabled = false;
  std::string control_out;
  spacefts::control::ControlConfig control_cfg;
  std::size_t shards = 0;  ///< 0 = classic single-server path
  ShardKills shard_kills;
  spacefts::fault::ShardFaultConfig chaos;
  spacefts::serve::WorkloadSpec spec;
  spacefts::serve::ServerConfig config;
  // Replay defaults favour determinism: a bounded admission wait long
  // enough that statuses do not depend on scheduling luck.  Overload
  // studies opt into shedding with --admit-wait-ms 0.
  config.admission_timeout_ms = 10'000.0;
  config.exec.fragment_side = 8;
  spec.ngst_side = 16;
  spec.ngst_frames = 8;
  TelemetryOptions telem;
  BackendOptions bopts;
  const Flag flags[] = {
      {"--replay", &replay_path, "FILE",
       "replay a JSONL workload instead of generating one"},
      {"--requests", &spec.requests, "N", "generated requests", 1},
      {"--rate", &spec.rate_hz, "X", "generated Poisson arrival rate (Hz)",
       kPositive},
      {"--otis-frac", &spec.otis_fraction, "X", "fraction of OTIS requests", 0,
       1},
      {"--pipeline-frac", &spec.pipeline_fraction, "X",
       "fraction of distributed-pipeline requests", 0, 1},
      {"--deadline-ms", &spec.deadline_ms, "X", "per-request deadline"},
      {"--priorities", &spec.priority_levels, "N", "priority levels", 1},
      {"--seed", &spec.seed, "S", "workload seed"},
      {"--streams", &spec.streams, "N", "distinct request streams"},
      {"--capacity", &config.capacity, "N", "admission queue capacity", 1},
      {"--threads", &config.workers, "N", "worker threads per server"},
      {"--batch", &config.max_batch, "N", "max same-shape batch", 1},
      {"--admit-wait-ms", &config.admission_timeout_ms, "X",
       "admission wait on a full queue (0 = shed at once)", 0},
      {"--pace", &pace, "", "honour the workload's arrival timestamps"},
      {"--ingress-drop", &config.exec.ingress.drop_prob, "X",
       "ingress drop probability", 0, 1},
      {"--ingress-corrupt", &config.exec.ingress.corrupt_prob, "X",
       "ingress corruption probability", 0, 1},
      {"--shards", &shards, "N", "route across N shards", 1},
      {"--shard-kill", &shard_kills, "SHARD@RESULT_COUNT",
       "kill a shard once the router has recorded that many results"},
      {"--shard-crash", &chaos.crash_prob, "X",
       "per-(shard, epoch) crash probability", 0, 1},
      {"--shard-stall", &chaos.stall_prob, "X", "stall probability", 0, 1},
      {"--shard-slow", &chaos.slow_prob, "X", "slowdown probability", 0, 1},
      {"--results-out", &results_out, "FILE",
       "write the per-request results as JSONL"},
      {"--workload-out", &workload_out, "FILE", "write the workload as JSONL"},
      {"--gen-only", &gen_only, "", "stop after writing --workload-out"},
      {"--control", &control_enabled, "",
       "adaptive lambda/upsilon controller per stream"},
      {"--control-out", &control_out, "FILE",
       "write the controller's decision log as JSONL"},
      {"--control-budget-ms", &control_cfg.deadline_budget_ms, "X",
       "controller deadline budget", kPositive},
      {"--control-window", &control_cfg.window, "N",
       "results per controller decision", 1},
      {"--control-lag", &control_cfg.lag, "N", "controller observation lag",
       1},
  };
  if (const auto rc = cli.parse({flags, kernel_flags(config.exec.kernel),
                                 bopts.flags(), telem.flags()})) {
    return *rc;
  }
  if (gen_only && workload_out.empty()) {
    return cli.fail(&gen_only, "requires --workload-out");
  }
  if (gen_only && !replay_path.empty()) {
    return cli.fail(&gen_only, "incompatible with --replay");
  }
  if (shards == 0 && !shard_kills.empty()) {
    return cli.fail(&shard_kills, "requires --shards");
  }
  if (shards == 0 && !chaos.perfect()) {
    return cli.fail(cli.seen({&chaos.crash_prob, &chaos.stall_prob,
                              &chaos.slow_prob}),
                    "requires --shards");
  }
  for (const auto& [victim, after] : shard_kills) {
    (void)after;
    if (victim >= shards) {
      return cli.fail(&shard_kills, "shard index out of range");
    }
  }
  if (shards > 0 && config.workers == 0) {
    return cli.fail(&config.workers, "must be > 0 with --shards");
  }
  if (!control_enabled && !control_out.empty()) {
    return cli.fail(&control_out, "requires --control");
  }
  if (const int rc = bopts.validate(cli)) return rc;
  if (control_enabled && config.workers == 0) {
    return cli.fail(&control_enabled,
                    "requires --threads > 0 (the admission gate needs a "
                    "running worker to make progress)");
  }
  // Early writability probes: a typo'd output path exits 3 here, before the
  // run burns minutes of compute only to fail at the final write.
  for (const std::string* path :
       {&telem.trace_out, &telem.metrics_out, &results_out, &workload_out,
        &control_out, &bopts.log_out}) {
    if (!path->empty() && !probe_writable(*path)) {
      return cli.fail(path, "cannot open for writing");
    }
  }

  // Obtain the workload: replay a committed file or generate in-process.
  std::vector<spacefts::serve::WorkloadItem> items;
  if (!replay_path.empty()) {
    std::ifstream in(replay_path);
    if (!in) {
      std::fprintf(stderr, "serve: cannot read %s\n", replay_path.c_str());
      return kExitFailure;
    }
    std::ostringstream text;
    text << in.rdbuf();
    items = spacefts::serve::parse_workload_jsonl(text.str());
  } else {
    items = spacefts::serve::generate_workload(spec);
  }
  if (!workload_out.empty()) {
    std::ofstream out(workload_out, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "serve: cannot write %s\n", workload_out.c_str());
      return kExitFailure;
    }
    out << spacefts::serve::to_jsonl(items);
    std::printf("wrote workload %s (%zu requests)\n", workload_out.c_str(),
                items.size());
  }
  if (gen_only) return 0;

  telem.arm();
  // One backend stack shared by every shard: the shadow guard's health is
  // a property of the accelerator substrate, not of any one shard, and its
  // per-(request, epoch) streams are order-independent so sharing stays
  // deterministic.
  std::shared_ptr<spacefts::backend::ShadowBackend> shadow;
  config.exec.backend = bopts.build(&shadow);
  // The controller bank outlives the server/router so every worker-thread
  // tuner call and result observation lands on live state.
  std::optional<spacefts::control::ControllerBank> bank;
  if (control_enabled) {
    bank.emplace(control_cfg);
    config.exec.tuner = [&bank](const spacefts::serve::Request& r) {
      return bank->point(r.id);
    };
    // Single-server observer; the router clears it from the shard template
    // and delivers its own exactly-once stream via RouterConfig::on_result.
    config.on_result = [&bank](const spacefts::serve::RequestResult& r) {
      bank->observe(r);
    };
  }
  std::vector<spacefts::serve::RequestResult> results;
  const auto start = std::chrono::steady_clock::now();
  const auto submit_all = [&](auto& sink) {
    for (const auto& item : items) {
      if (pace) {
        // Open-loop arrival process: honour the workload's timestamps.
        const auto due =
            start +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(item.arrival_s));
        std::this_thread::sleep_until(due);
      }
      if (bank) (void)bank->admit(item.request);
      (void)sink.submit(item.request);
    }
  };

  if (shards > 0) {
    spacefts::serve::RouterConfig rc;
    rc.shards = shards;
    rc.shard = config;
    rc.chaos = chaos;
    if (bank) {
      rc.on_result = [&bank](const spacefts::serve::RequestResult& r) {
        bank->observe(r);
      };
    }
    spacefts::serve::Router router(rc);
    for (const auto& [victim, after] : shard_kills) {
      router.schedule_kill(victim, after);
    }
    submit_all(router);
    router.wait_idle();
    router.drain();
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    const auto stats = router.stats();
    results = router.take_results();
    std::printf(
        "serve: %llu submitted across %zu shards in %.3fs (%.1f req/s)\n"
        "  accepted %llu, completed %llu, shed %llu, lost %llu\n"
        "  cancelled %llu, expired %llu, failed %llu\n"
        "  replays %llu, spills %llu, ejections %llu, readmissions %llu,"
        " kills %llu, stale %llu\n",
        static_cast<unsigned long long>(stats.submitted), shards, wall_s,
        wall_s > 0.0 ? static_cast<double>(stats.submitted) / wall_s : 0.0,
        static_cast<unsigned long long>(stats.accepted),
        static_cast<unsigned long long>(stats.completed),
        static_cast<unsigned long long>(stats.shed),
        static_cast<unsigned long long>(stats.lost),
        static_cast<unsigned long long>(stats.cancelled),
        static_cast<unsigned long long>(stats.expired),
        static_cast<unsigned long long>(stats.failed),
        static_cast<unsigned long long>(stats.replays),
        static_cast<unsigned long long>(stats.spills),
        static_cast<unsigned long long>(stats.ejections),
        static_cast<unsigned long long>(stats.readmissions),
        static_cast<unsigned long long>(stats.kills),
        static_cast<unsigned long long>(stats.stale_results));
    for (std::size_t i = 0; i < shards; ++i) {
      const auto snap = router.shard(i);
      std::printf("  shard %zu: %s epoch %llu, completed %llu, ejections"
                  " %llu\n",
                  i, spacefts::serve::to_string(snap.state),
                  static_cast<unsigned long long>(snap.epoch),
                  static_cast<unsigned long long>(snap.completed),
                  static_cast<unsigned long long>(snap.ejections));
    }
  } else {
    spacefts::serve::Server server(config);
    submit_all(server);
    server.wait_idle();
    server.drain();
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    const auto stats = server.stats();
    results = server.take_results();
    std::printf(
        "serve: %llu submitted in %.3fs (%.1f req/s offered)\n"
        "  accepted %llu, completed %llu, shed %llu, lost %llu\n"
        "  cancelled %llu, expired %llu, failed %llu, batches %llu\n"
        "  ingress corrupted %llu, ingress duplicates %llu\n",
        static_cast<unsigned long long>(stats.submitted), wall_s,
        wall_s > 0.0 ? static_cast<double>(stats.submitted) / wall_s : 0.0,
        static_cast<unsigned long long>(stats.accepted),
        static_cast<unsigned long long>(stats.completed),
        static_cast<unsigned long long>(stats.shed),
        static_cast<unsigned long long>(stats.lost),
        static_cast<unsigned long long>(stats.cancelled),
        static_cast<unsigned long long>(stats.expired),
        static_cast<unsigned long long>(stats.failed),
        static_cast<unsigned long long>(stats.batches),
        static_cast<unsigned long long>(stats.ingress_corrupted),
        static_cast<unsigned long long>(stats.ingress_duplicates));
  }

  if (shadow) {
    const auto health = shadow->health();
    std::printf("shadow guard: %zu executed, %zu sampled, %zu mismatches%s\n",
                health.executed, health.sampled, health.mismatches,
                health.quarantined ? " [QUARANTINE]" : "");
    if (!bopts.log_out.empty()) {
      if (!write_backend_log(bopts.log_out, shadow)) return kExitFailure;
      std::printf("wrote backend decisions %s\n", bopts.log_out.c_str());
    }
  }
  if (bank) {
    std::printf("control: %zu stream controller(s), %zu decision(s)\n",
                bank->stream_count(), bank->decisions().size());
  }
  if (bank && !control_out.empty()) {
    std::ofstream out(control_out, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "serve: cannot write %s\n", control_out.c_str());
      return kExitFailure;
    }
    out << spacefts::control::decisions_to_jsonl(bank->decisions());
    std::printf("wrote control decisions %s\n", control_out.c_str());
  }

  if (!results_out.empty()) {
    std::ofstream out(results_out, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "serve: cannot write %s\n", results_out.c_str());
      return kExitFailure;
    }
    out << spacefts::serve::results_to_jsonl(std::move(results));
    std::printf("wrote results %s\n", results_out.c_str());
  }
  // kFailed requests (e.g. ingress corruption the sanity layer could not
  // repair) are deterministic served outcomes recorded in the results, not
  // operational errors of the CLI run.
  return telem.finish();
}

int cmd_check(Cli& cli) {
  std::uint64_t seed = 1;
  std::size_t cases = 50;
  std::string corpus_out, replay_path;
  Kernel kernel = Kernel::kAuto;
  spacefts::check::RunOptions options;
  const Flag flags[] = {
      {"--seed", &seed, "S", "fuzz seed"},
      {"--cases", &cases, "N", "fuzz cases", 1},
      {"--threads", &options.threads, "a,b,c",
       "thread counts pitted against the serial oracle", 1},
      {"--corpus-out", &corpus_out, "FILE",
       "write shrunk failing cases as a JSONL corpus"},
      {"--replay", &replay_path, "FILE",
       "replay a committed failure corpus instead of fuzzing"},
  };
  if (const auto rc = cli.parse({flags, kernel_flags(kernel)})) return *rc;
  // auto keeps the default cross-kernel sweep; an explicit variant narrows
  // the diff families to that one kernel.
  if (kernel != Kernel::kAuto) options.kernels = {kernel};

  spacefts::check::CheckReport report;
  if (!replay_path.empty()) {
    std::ifstream in(replay_path);
    if (!in) {
      std::fprintf(stderr, "check: cannot read %s\n", replay_path.c_str());
      return kExitFailure;
    }
    std::ostringstream text;
    text << in.rdbuf();
    report = spacefts::check::run_cases(
        spacefts::check::parse_corpus_jsonl(text.str()), options);
  } else {
    report = spacefts::check::run_fuzz(seed, cases, options);
  }

  // Stdout is the deterministic replay record: it depends only on the case
  // specs and the oracle answers, so CI byte-compares it across --threads
  // values.  Failure diagnostics go to stderr.
  for (const auto& line : report.lines) std::printf("%s\n", line.c_str());
  std::printf("check: %zu cases, %zu failures\n", report.cases,
              report.failures.size());
  for (const auto& failure : report.failures) {
    std::fprintf(stderr, "check failure: %s\n  %s\n",
                 spacefts::check::to_json(failure.spec).c_str(),
                 failure.detail.c_str());
  }
  if (!corpus_out.empty() && !report.failures.empty()) {
    std::vector<spacefts::check::CaseSpec> specs = report.shrunk;
    if (specs.empty()) {
      for (const auto& failure : report.failures) {
        specs.push_back(failure.spec);
      }
    }
    std::ofstream out(corpus_out, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "check: cannot write %s\n", corpus_out.c_str());
      return kExitFailure;
    }
    out << spacefts::check::corpus_to_jsonl(specs);
    std::fprintf(stderr, "check: wrote %zu failing case(s) to %s\n",
                 specs.size(), corpus_out.c_str());
  }
  return report.ok() ? 0 : kExitFailure;
}

int cmd_version(Cli& cli) {
  if (const auto rc = cli.parse({})) return *rc;
  std::printf("spacefts_cli %s\n", SPACEFTS_VERSION);
  return 0;
}

int cmd_help(Cli& cli);

/// Every verb, in `help` order: the dispatch table of main().
constexpr Verb kVerbs[] = {
    {"gen", cmd_gen, "synthesise a baseline (NGST Gaussian model) as a "
                     "multi-HDU FITS"},
    {"corrupt", cmd_corrupt,
     "flip data-unit bits with probability gamma0 per bit"},
    {"ingest", cmd_ingest,
     "run the ingest layer (header sanity + Algo_NGST) and write the "
     "repaired baseline"},
    {"info", cmd_info, "print HDU headers and geometry"},
    {"psi", cmd_psi,
     "the paper's average relative error between two baselines"},
    {"pipeline", cmd_pipeline,
     "ingest one generated baseline and run the distributed "
     "scatter/compute/gather pipeline once under the fault model"},
    {"campaign", cmd_campaign,
     "sweep a seeded fault grid (or the --control, --compute or --downlink "
     "sweep) and append one JSON line per cell"},
    {"downlink", cmd_downlink,
     "fly the full chain once (preprocess, Rice, framing, faulty link) and "
     "report fidelity vs the clean-chain golden"},
    {"serve", cmd_serve,
     "run the preprocessing service over a replayed or generated workload"},
    {"check", cmd_check,
     "cross-check the optimized preprocessing paths against the naive "
     "golden oracles; exit 1 on any divergence"},
    {"version", cmd_version, "print the tool version"},
    {"help", cmd_help, "print the global usage, or one verb's flags"},
};

void print_usage(std::FILE* stream) {
  std::fputs("usage:\n", stream);
  for (const Verb& verb : kVerbs) {
    Cli line(verb, 0, nullptr, Cli::Mode::kSynopsis, stream);
    (void)verb.run(line);
  }
  std::fputs(
      "run 'spacefts_cli help <verb>' for a verb's flags; --version and "
      "--help also work as verbs\n"
      "exit codes: 0 ok, 1 operation failed, 2 usage error, 3 bad flag\n",
      stream);
}

int usage() {
  print_usage(stderr);
  return kExitUsage;
}

int cmd_help(Cli& cli) {
  std::string name;
  const Flag flags[] = {{"[verb]", &name, "", "the verb to describe"}};
  if (const auto rc = cli.parse({flags})) return *rc;
  if (name.empty()) {
    print_usage(stdout);
    return 0;
  }
  for (const Verb& verb : kVerbs) {
    if (name == verb.name) {
      Cli help(verb, 0, nullptr, Cli::Mode::kHelp);
      return verb.run(help);
    }
  }
  std::fprintf(stderr, "spacefts_cli: help: unknown verb '%s'\n",
               name.c_str());
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string command = argv[1];
  if (command == "--version" || command == "--help") command.erase(0, 2);
  for (const Verb& verb : kVerbs) {
    if (command != verb.name) continue;
    Cli cli(verb, argc, argv);
    try {
      return verb.run(cli);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return kExitFailure;
    }
  }
  std::fprintf(stderr, "spacefts_cli: unknown verb '%s'\n", command.c_str());
  return usage();
}
