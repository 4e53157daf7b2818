/// \file gate_bench.cpp
/// Before/after microbench for the plausibility gate's partner median
/// (DESIGN.md §5 trajectory row "gate_median").
///
/// Satellite measurement for the sorting-network swap (sort_median.hpp):
/// times the original data-dependent insertion sort against the fixed
/// compare-exchange networks on the exact workload the gate runs — median
/// of Υ ∈ {4, 8} gathered partner values per correction candidate — and
/// records one BENCH_preprocess.json row per (upsilon, impl) via the
/// shared keyed upsert, so re-runs replace their rows.  Both paths are
/// checksummed against each other first: a differing median would make the
/// timing comparison meaningless (and break the gate's bit-identity
/// contract), so the bench aborts instead of recording.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "spacefts/common/random.hpp"
#include "spacefts/core/sort_median.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// The gate's per-candidate kernel: sort the partner scratch, read the
/// upper median.  \p sorter is one of the two implementations under test.
template <typename Sorter>
std::uint64_t median_pass(const std::vector<std::uint16_t>& partners,
                          std::size_t upsilon, Sorter&& sorter) {
  std::uint16_t scratch[16];
  std::uint64_t checksum = 0;
  for (std::size_t base = 0; base + upsilon <= partners.size();
       base += upsilon) {
    for (std::size_t i = 0; i < upsilon; ++i) scratch[i] = partners[base + i];
    sorter(scratch, upsilon);
    checksum += scratch[upsilon / 2];
  }
  return checksum;
}

void record(std::size_t upsilon, const char* impl, double medians_per_s) {
  namespace jsonl = spacefts::telemetry::jsonl;
  if (!jsonl::valid_metric(medians_per_s)) {
    std::fprintf(stderr, "gate_bench: invalid metric %g, not recording\n",
                 medians_per_s);
    std::exit(EXIT_FAILURE);
  }
  std::string line = "{\"bench\": \"gate_median\", \"medians_per_s\": ";
  jsonl::append_fmt(line, "%.6g", medians_per_s);
  line += ", \"upsilon\": " + std::to_string(upsilon);
  line += ", \"impl\": \"" + jsonl::escape(impl) + "\"";
  line += ", \"git_sha\": \"" + jsonl::escape(SPACEFTS_GIT_SHA) + "\"";
  line += ", \"iso_timestamp\": \"" + bench::iso_timestamp_utc() + "\"}\n";
  // The file's one key: stack_preprocess rows share it, so a narrower key
  // would collapse them into one row per upsilon.
  if (!jsonl::upsert_jsonl(line, bench::detail::preprocess_record_key,
                           "BENCH_preprocess.json")) {
    std::exit(EXIT_FAILURE);
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Enough candidates that the timed region dwarfs clock granularity, small
  // enough to stay CI-friendly; --quick shrinks it further for smokes.
  std::size_t candidates = 1u << 20;
  std::size_t reps = 20;
  if (argc > 1 && std::string(argv[1]) == "--quick") {
    candidates = 1u << 16;
    reps = 4;
  }

  std::printf("%-8s  %-10s  %16s\n", "upsilon", "impl", "medians/s");
  for (const std::size_t upsilon : {std::size_t{4}, std::size_t{8}}) {
    // The gate gathers detector counts: uniform u16 partners reproduce its
    // branch-hostile (unordered) input distribution.
    spacefts::common::Rng rng(0x9a7eULL + upsilon);
    std::vector<std::uint16_t> partners(candidates * upsilon);
    for (auto& p : partners) {
      p = static_cast<std::uint16_t>(rng() & 0xffff);
    }

    const auto insertion = [](std::uint16_t* v, std::size_t n) {
      spacefts::core::insertion_sort_u16(v, n);
    };
    const auto network = [](std::uint16_t* v, std::size_t n) {
      spacefts::core::sort_small_u16(v, n);
    };
    if (median_pass(partners, upsilon, insertion) !=
        median_pass(partners, upsilon, network)) {
      std::fprintf(stderr,
                   "gate_bench: median divergence at upsilon %zu — the "
                   "network is not bit-identical, refusing to record\n",
                   upsilon);
      return EXIT_FAILURE;
    }

    const auto time_impl = [&](auto&& sorter) {
      // Best-of-reps: the steady-state rate, robust to scheduler noise.
      double best_s = 1e300;
      std::uint64_t sink = 0;
      for (std::size_t r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        sink += median_pass(partners, upsilon, sorter);
        const double s = std::chrono::duration<double>(Clock::now() - t0).count();
        if (s < best_s) best_s = s;
      }
      // Keep the checksum alive so the loop cannot be elided.
      if (sink == 0xdeadbeef) std::printf("~");
      return static_cast<double>(candidates) / best_s;
    };

    const double insertion_rate = time_impl(insertion);
    const double network_rate = time_impl(network);
    std::printf("%-8zu  %-10s  %16.6g\n", upsilon, "insertion",
                insertion_rate);
    std::printf("%-8zu  %-10s  %16.6g  (x%.2f)\n", upsilon, "network",
                network_rate, network_rate / insertion_rate);
    record(upsilon, "insertion", insertion_rate);
    record(upsilon, "network", network_rate);
  }
  return 0;
}
