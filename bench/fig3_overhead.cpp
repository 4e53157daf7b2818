/// Experiment E2 — Figure 3: "Preprocessing overhead for ALFT_NGST as a
/// function of sensitivity Λ", compared with the generic algorithms.
///
/// google-benchmark harness.  The paper measured wall-clock on a Pentium
/// III 750 MHz; absolute numbers differ here, but the *shape* must hold:
/// Λ = 0 is almost free (header sanity only), cost grows with Λ as window B
/// widens (measured on the bit-serial reference implementation, whose cost
/// model matches the paper's per-bit voting), and the generic algorithms
/// are flat, Λ-independent lines.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "spacefts/core/algo_ngst.hpp"
#include "spacefts/datagen/ngst.hpp"
#include "spacefts/fault/models.hpp"
#include "spacefts/smoothing/temporal.hpp"

namespace {

/// One detector coordinate's corrupted baseline, fixed across iterations.
std::vector<std::uint16_t> corrupted_series() {
  spacefts::datagen::NgstSimulator sim(0xF163);
  spacefts::common::Rng fault_rng(0xF163F163);
  auto series = sim.sequence();
  const spacefts::fault::UncorrelatedFaultModel model(0.01);
  const auto mask = model.mask16(series.size(), fault_rng);
  spacefts::fault::apply_mask<std::uint16_t>(series, mask);
  return series;
}

void BM_AlgoNgstAtLambda(benchmark::State& state) {
  spacefts::core::AlgoNgstConfig config;
  config.lambda = static_cast<double>(state.range(0));
  const spacefts::core::AlgoNgst algo(config);
  const auto base = corrupted_series();
  for (auto _ : state) {
    auto working = base;
    benchmark::DoNotOptimize(algo.preprocess_bitserial(working));
  }
  state.SetLabel("lambda=" + std::to_string(state.range(0)));
}

void BM_MedianSmoothing(benchmark::State& state) {
  const auto base = corrupted_series();
  for (auto _ : state) {
    auto working = base;
    spacefts::smoothing::median_smooth3(working);
    benchmark::DoNotOptimize(working.data());
  }
}

void BM_BitVoting(benchmark::State& state) {
  const auto base = corrupted_series();
  for (auto _ : state) {
    auto working = base;
    spacefts::smoothing::majority_bit_vote3(working);
    benchmark::DoNotOptimize(working.data());
  }
}

}  // namespace

BENCHMARK(BM_AlgoNgstAtLambda)->Arg(0)->Arg(20)->Arg(40)->Arg(60)->Arg(80)->Arg(100);
BENCHMARK(BM_MedianSmoothing);
BENCHMARK(BM_BitVoting);

BENCHMARK_MAIN();
