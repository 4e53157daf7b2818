/// Module throughput microbenchmarks (google-benchmark).
///
/// Not a paper figure — engineering numbers a deployment needs: pixels/s
/// of each preprocessing algorithm and of the substrates they feed.  The
/// word-parallel Algo_NGST is the production path (fig3 measures the
/// bit-serial reference, whose cost model matches the paper's).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <regex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "spacefts/core/algo_ngst.hpp"
#include "spacefts/core/algo_otis.hpp"
#include "spacefts/core/kernel.hpp"
#include "spacefts/core/sort_median.hpp"
#include "spacefts/datagen/ngst.hpp"
#include "spacefts/datagen/otis_scenes.hpp"
#include "spacefts/datagen/telemetry.hpp"
#include "spacefts/downlink/chain.hpp"
#include "spacefts/downlink/compressed_hdu.hpp"
#include "spacefts/edac/crc32.hpp"
#include "spacefts/edac/hamming.hpp"
#include "spacefts/edac/protected_memory.hpp"
#include "spacefts/fault/models.hpp"
#include "spacefts/fits/fits.hpp"
#include "spacefts/ingest/guard.hpp"
#include "spacefts/ngst/cr_reject.hpp"
#include "spacefts/ngst/readout.hpp"
#include "spacefts/rice/rice.hpp"
#include "spacefts/smoothing/temporal.hpp"
#include "spacefts/telemetry/telemetry.hpp"

namespace {

std::vector<std::uint16_t> corrupted_series() {
  spacefts::datagen::NgstSimulator sim(0xBEEF);
  spacefts::common::Rng rng(0xBEEF2);
  auto series = sim.sequence();
  const auto mask =
      spacefts::fault::UncorrelatedFaultModel(0.01).mask16(series.size(), rng);
  spacefts::fault::apply_mask<std::uint16_t>(series, mask);
  return series;
}

void BM_AlgoNgstWordParallel(benchmark::State& state) {
  const spacefts::core::AlgoNgst algo;
  const auto base = corrupted_series();
  for (auto _ : state) {
    auto working = base;
    benchmark::DoNotOptimize(algo.preprocess(working));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_AlgoNgstWordParallel);

spacefts::common::TemporalStack<std::uint16_t> corrupted_stack(
    std::size_t side, std::size_t frames) {
  spacefts::datagen::NgstSimulator sim(0xBEEF7);
  spacefts::datagen::SceneParams scene;
  scene.width = side;
  scene.height = side;
  auto stack = sim.stack(frames, scene);
  spacefts::common::Rng rng(0xBEEF8);
  const auto mask = spacefts::fault::UncorrelatedFaultModel(0.003).mask16(
      stack.cube().size(), rng);
  spacefts::fault::apply_mask<std::uint16_t>(stack.cube().voxels(), mask);
  return stack;
}

/// The production stack path (tile-blocked SoA gather + per-lane scratch)
/// swept over worker-lane count x voter kernel.  Items = coordinates (time
/// series), so the rate is directly comparable across the whole grid;
/// output is bit-identical for every cell (enforced by tests/kernel_test
/// and src/check).  Registered dynamically from main() so only kernels the
/// host can actually run appear in the report.
void BM_AlgoNgstStackPreprocess(benchmark::State& state,
                                spacefts::core::Kernel kernel) {
  spacefts::core::AlgoNgstConfig config;
  config.lambda = 50.0;
  config.threads = static_cast<std::size_t>(state.range(0));
  config.kernel = kernel;
  const spacefts::core::AlgoNgst algo(config);
  const auto base = corrupted_stack(128, 8);
  for (auto _ : state) {
    auto working = base;
    benchmark::DoNotOptimize(algo.preprocess(working));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 128 *
                          128);
}

/// The ledger's ngst_chain voter shape: one 256x256x64 baseline at Λ = 80
/// (Υ = 4), Γ₀ = 1e-3, on one lane.  Items = coordinates, as above.
void BM_AlgoNgstStackPreprocessChain(benchmark::State& state,
                                     spacefts::core::Kernel kernel) {
  spacefts::core::AlgoNgstConfig config;
  config.lambda = 80.0;
  config.kernel = kernel;
  const spacefts::core::AlgoNgst algo(config);
  spacefts::datagen::NgstSimulator sim(0xBEEF7);
  spacefts::datagen::SceneParams scene;
  scene.width = 256;
  scene.height = 256;
  auto base = sim.stack(64, scene);
  spacefts::common::Rng rng(0xBEEF8);
  const auto mask = spacefts::fault::UncorrelatedFaultModel(1e-3).mask16(
      base.cube().size(), rng);
  spacefts::fault::apply_mask<std::uint16_t>(base.cube().voxels(), mask);
  auto working = base;
  for (auto _ : state) {
    state.PauseTiming();
    working = base;
    state.ResumeTiming();
    benchmark::DoNotOptimize(algo.preprocess(working));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 256 *
                          256);
}

/// Worker lanes of the stack benches and of the trajectory rows.
constexpr std::size_t kStackThreads[] = {1, 4, 8};

void register_stack_kernel_sweep() {
  for (const auto kernel : spacefts::core::available_kernels()) {
    const std::string name = std::string("BM_AlgoNgstStackPreprocess/") +
                             spacefts::core::kernel_name(kernel);
    auto* bench = benchmark::RegisterBenchmark(
        name.c_str(), BM_AlgoNgstStackPreprocess, kernel);
    for (const std::size_t threads : kStackThreads) {
      bench->Arg(static_cast<std::int64_t>(threads));
    }
    benchmark::RegisterBenchmark((name + "/ngst_chain").c_str(),
                                 BM_AlgoNgstStackPreprocessChain, kernel)
        ->Unit(benchmark::kMillisecond);
  }
}

void BM_AlgoOtisPlane(benchmark::State& state,
                      spacefts::core::Kernel kernel) {
  spacefts::datagen::OtisSceneGenerator gen(0xBEEF3);
  const auto scene = gen.generate(spacefts::datagen::OtisSceneKind::kBlob);
  spacefts::core::AlgoOtisConfig config;
  config.kernel = kernel;
  const spacefts::core::AlgoOtis algo(config);
  auto plane = scene.radiance.plane_image(0);
  for (auto _ : state) {
    auto working = plane;
    benchmark::DoNotOptimize(
        algo.preprocess_plane(working, scene.wavelengths_um[0]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(plane.size()));
}

/// One whole cube at the serving tier's OTIS shape (24x24, 6 bands, one
/// thread), from uncorrelated bit flips at Γ₀ = 0.003 over a pristine
/// scene: every phase of every plane, as one request's backend runs it.
void BM_AlgoOtisCube(benchmark::State& state, spacefts::core::Kernel kernel,
                     spacefts::datagen::OtisSceneKind kind) {
  spacefts::datagen::OtisSceneGenerator gen(0xBEEF5);
  spacefts::datagen::OtisSceneParams params;
  params.width = 24;
  params.height = 24;
  params.bands = 6;
  auto scene = gen.generate(kind, params);
  spacefts::common::Rng rng(0xBEEF6);
  const auto mask = spacefts::fault::UncorrelatedFaultModel(0.003).mask32(
      scene.radiance.size(), rng);
  spacefts::fault::apply_mask_float(scene.radiance.voxels(), mask);
  spacefts::core::AlgoOtisConfig config;
  config.kernel = kernel;
  const spacefts::core::AlgoOtis algo(config);
  for (auto _ : state) {
    auto working = scene.radiance;
    benchmark::DoNotOptimize(algo.preprocess(working, scene.wavelengths_um));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(scene.radiance.size()));
}

void register_otis_kernel_sweep() {
  using spacefts::datagen::OtisSceneKind;
  for (const auto kernel : spacefts::core::available_kernels()) {
    const std::string name = std::string("BM_AlgoOtisPlane/") +
                             spacefts::core::kernel_name(kernel);
    benchmark::RegisterBenchmark(name.c_str(), BM_AlgoOtisPlane, kernel);
    for (const auto kind : {OtisSceneKind::kBlob, OtisSceneKind::kStripe,
                            OtisSceneKind::kSpots}) {
      const std::string cube = std::string("BM_AlgoOtisCube/") +
                               spacefts::core::kernel_name(kernel) + "/" +
                               spacefts::datagen::to_string(kind);
      benchmark::RegisterBenchmark(cube.c_str(), BM_AlgoOtisCube, kernel, kind);
    }
  }
}

void BM_CrRejectIntegrate(benchmark::State& state) {
  spacefts::common::Rng rng(0xBEEF4);
  const auto flux = spacefts::ngst::make_flux_scene(32, 32, rng);
  spacefts::ngst::RampParams ramp;
  ramp.frames = 32;
  const auto stack = spacefts::ngst::make_ramp_stack(flux, ramp, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(spacefts::ngst::reject_and_integrate(stack.readouts));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_CrRejectIntegrate);

/// NGST pixel series: smooth, so Rice codes them at low k (ratio > 2).
std::vector<std::uint16_t> ngst_samples() {
  spacefts::datagen::NgstSimulator sim(0xBEEF5);
  std::vector<std::uint16_t> data;
  for (int s = 0; s < 64; ++s) {
    const auto seq = sim.sequence();
    data.insert(data.end(), seq.begin(), seq.end());
  }
  return data;
}

/// A 256-channel x 1024-sample telemetry bank in product order (all
/// channels at one sample, then the next): neighbours sit on unrelated base
/// levels, so Rice codes it at high k with a ratio near 1.1, the way the
/// downlink chain's telemetry product sees it.
std::vector<std::uint16_t> telemetry_samples() {
  spacefts::datagen::TelemetryParams params;
  params.channels = 256;
  params.samples = 1024;
  const auto stack =
      spacefts::datagen::TelemetrySimulator(0xBEEF9).stack(params);
  std::vector<std::uint16_t> data;
  data.reserve(params.channels * params.samples);
  for (std::size_t t = 0; t < stack.frames(); ++t)
    for (std::size_t x = 0; x < stack.width(); ++x)
      data.push_back(stack(x, 0, t));
  return data;
}

/// One tile of the telemetry bank as run_chain codes it: 16 product rows of
/// 256 channels, a 4,096-sample stream whose tail weighs on every tile.
std::vector<std::uint16_t> telemetry_tile_samples() {
  auto data = telemetry_samples();
  data.resize(16 * 256);
  return data;
}

using RiceEncoder =
    std::vector<std::uint8_t> (*)(std::span<const std::uint16_t>);

/// compress16 runs the vector encoder where the host has AVX2 and BMI2;
/// the _portable row times the per-sample path every other host runs.
void BM_RiceCompress(benchmark::State& state,
                     std::vector<std::uint16_t> (*make)(),
                     RiceEncoder encode) {
  const auto data = make();
  for (auto _ : state) {
    benchmark::DoNotOptimize(encode(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size() * 2));
  state.counters["ratio"] = spacefts::rice::compression_ratio16(data);
}
BENCHMARK_CAPTURE(BM_RiceCompress, ngst, ngst_samples,
                  &spacefts::rice::compress16);
BENCHMARK_CAPTURE(BM_RiceCompress, telemetry, telemetry_samples,
                  &spacefts::rice::compress16);
BENCHMARK_CAPTURE(BM_RiceCompress, telemetry_tile, telemetry_tile_samples,
                  &spacefts::rice::compress16);
BENCHMARK_CAPTURE(BM_RiceCompress, telemetry_tile_portable,
                  telemetry_tile_samples,
                  spacefts::rice::detail::compress16_rows().back().impl);

using RiceDecoder = std::vector<std::uint16_t> (*)(
    std::span<const std::uint8_t>, std::size_t);

/// decompress16 runs the BMI2/LZCNT build of the decoder where the host
/// has both; the _portable row times the baseline build.
void BM_RiceDecompress(benchmark::State& state,
                       std::vector<std::uint16_t> (*make)(),
                       RiceDecoder decode) {
  const auto data = make();
  const auto stream = spacefts::rice::compress16(data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode(stream, data.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size() * 2));
}
BENCHMARK_CAPTURE(BM_RiceDecompress, ngst, ngst_samples,
                  &spacefts::rice::decompress16);
BENCHMARK_CAPTURE(BM_RiceDecompress, telemetry, telemetry_samples,
                  &spacefts::rice::decompress16);
BENCHMARK_CAPTURE(BM_RiceDecompress, telemetry_tile, telemetry_tile_samples,
                  &spacefts::rice::decompress16);
BENCHMARK_CAPTURE(BM_RiceDecompress, telemetry_tile_portable,
                  telemetry_tile_samples,
                  spacefts::rice::detail::decompress16_rows().back().impl);

/// Arg: input bytes.  64 is the folding kernel's smallest input, 13 KiB
/// about one telemetry tile's frame, 2 MiB a stream far past the caches.
void BM_Crc32(benchmark::State& state) {
  spacefts::common::Rng rng(0xBEEFA);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(state.range(0)));
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(spacefts::edac::crc32(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(1 << 10)->Arg(13 << 10)->Arg(2 << 20);

/// Frames carry Rice streams; the telemetry bank's stream is ~490 KB.
std::vector<std::uint8_t> telemetry_stream() {
  return spacefts::rice::compress16(telemetry_samples());
}

void BM_ProtectFrame(benchmark::State& state) {
  const auto payload = telemetry_stream();
  for (auto _ : state) {
    benchmark::DoNotOptimize(spacefts::downlink::protect_frame(payload));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_ProtectFrame);

/// Arg 0: an intact frame (CRC fast path).  Arg 1: one flipped bit, so
/// every word goes through SEC-DED decode.
void BM_RecoverFrame(benchmark::State& state) {
  const auto payload = telemetry_stream();
  auto frame = spacefts::downlink::protect_frame(payload);
  if (state.range(0) != 0) frame[frame.size() / 2] ^= 0x10;
  for (auto _ : state) {
    auto back = spacefts::downlink::recover_frame(frame);
    if (!back) state.SkipWithError("frame lost");
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_RecoverFrame)->Arg(0)->Arg(1);

/// One telemetry tile's frame as run_chain seals it: the 16x256 tile in a
/// compressed FITS file, about 1,450 8-byte words.
std::vector<std::uint8_t> telemetry_tile_frame() {
  spacefts::common::Image<std::uint16_t> tile(256, 16,
                                              telemetry_tile_samples());
  spacefts::fits::FitsFile file;
  file.hdus().push_back(spacefts::downlink::make_compressed_hdu(tile));
  return spacefts::downlink::protect_frame(file.serialize());
}

/// The Hamming parity of a tile frame's data words through one row of
/// encode_parities()'s table; registered from main() for each row the host
/// runs.
void BM_EncodeParities(benchmark::State& state,
                       spacefts::edac::detail::ParitiesFn encode) {
  const auto frame = telemetry_tile_frame();
  const std::size_t words = (frame.size() - 4) / 9;
  std::vector<std::uint8_t> parities(words);
  for (auto _ : state) {
    encode(frame.data(), words, parities.data());
    benchmark::DoNotOptimize(parities.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(words * 8));
  state.counters["words"] = static_cast<double>(words);
}

void register_parity_rows() {
  for (const auto& row : spacefts::edac::detail::encode_parities_rows()) {
    if (!spacefts::common::cpu::runs(row)) continue;
    benchmark::RegisterBenchmark(
        (std::string("BM_EncodeParities/") + row.name).c_str(),
        BM_EncodeParities, row.impl);
  }
}

void BM_FitsRoundtrip(benchmark::State& state) {
  spacefts::datagen::NgstSimulator sim(0xBEEF6);
  const auto img = sim.base_scene({});
  for (auto _ : state) {
    const auto hdu = spacefts::fits::make_image_hdu(img);
    benchmark::DoNotOptimize(spacefts::fits::read_image_u16(hdu));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(img.size() * 2));
}
BENCHMARK(BM_FitsRoundtrip);

/// The ingest decode alone: one 256x256 BITPIX=16/BZERO=32768 readout
/// decoded into a reused plane, as IngestGuard::ingest does per HDU.
void BM_ReadImageU16(benchmark::State& state) {
  spacefts::datagen::SceneParams scene;
  scene.width = 256;
  scene.height = 256;
  const auto img = spacefts::datagen::NgstSimulator(0xBEEF6).base_scene(scene);
  const auto hdu = spacefts::fits::make_image_hdu(img);
  std::vector<std::uint16_t> plane(img.size());
  for (auto _ : state) {
    spacefts::fits::read_image_u16(hdu, plane);
    benchmark::DoNotOptimize(plane.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(img.size() * 2));
}
BENCHMARK(BM_ReadImageU16);

/// One readout header as the serve tier parses it per HDU: the 9 cards of
/// an IMAGE extension plus END, in one block.
void BM_FitsHeaderParse(benchmark::State& state) {
  const auto bytes =
      spacefts::fits::image_u16_header(32, 32, false).serialize();
  for (auto _ : state) {
    std::size_t offset = 0;
    benchmark::DoNotOptimize(spacefts::fits::Header::parse(bytes, offset));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FitsHeaderParse);

/// A width x height x frames stack of the serve/chain shapes: the serve
/// telemetry bank (32x1x64), the serve NGST baseline (32x32x16), the
/// telemetry_chain bank (256x1x1024), and the ngst_chain baseline
/// (256x256x64, 8 MB on the wire).
spacefts::common::TemporalStack<std::uint16_t> ingest_stack(
    const benchmark::State& state) {
  spacefts::datagen::NgstSimulator sim(0xBEEF9);
  spacefts::datagen::SceneParams scene;
  scene.width = static_cast<std::size_t>(state.range(0));
  scene.height = static_cast<std::size_t>(state.range(1));
  return sim.stack(static_cast<std::size_t>(state.range(2)), scene);
}

void ingest_shapes(benchmark::internal::Benchmark* b) {
  b->Args({32, 1, 64})
      ->Args({32, 32, 16})
      ->Args({256, 1, 1024})
      ->Args({256, 256, 64});
}

/// The transmit side: a stack packed into its FITS container.
void BM_IngestGuardPack(benchmark::State& state) {
  const auto stack = ingest_stack(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(spacefts::ingest::IngestGuard::pack(stack));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stack.frames()));
}
BENCHMARK(BM_IngestGuardPack)->Apply(ingest_shapes);

/// FitsFile::parse of a packed width x height x frames stack: 256x256
/// baselines of 1, 8 or 64 readouts and the telemetry_chain bank.  Payloads
/// are views of the input and a run of equal headers is parsed once, so
/// the time follows the distinct header count and the HDU count, not the
/// payload bytes (items = HDUs).
void BM_FitsFileParse(benchmark::State& state) {
  const auto stack = ingest_stack(state);
  const auto bytes = spacefts::ingest::IngestGuard::pack(stack);
  for (auto _ : state) {
    benchmark::DoNotOptimize(spacefts::fits::FitsFile::parse(bytes));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stack.frames()));
}
BENCHMARK(BM_FitsFileParse)
    ->Args({256, 256, 1})
    ->Args({256, 256, 8})
    ->Args({256, 256, 64})
    ->Args({256, 1, 1024});

/// The container path of ingest: parse, Λ=0 sanity over every HDU, decode.
/// Λ = 0 keeps the voter out, so this is the FITS cost alone.
void BM_IngestGuardIngest(benchmark::State& state) {
  const auto stack = ingest_stack(state);
  const auto bytes = spacefts::ingest::IngestGuard::pack(stack);
  spacefts::ingest::IngestConfig config;
  config.expectation.bitpix = 16;
  config.expectation.width = state.range(0);
  config.expectation.height = state.range(1);
  config.algo.lambda = 0.0;
  const spacefts::ingest::IngestGuard guard(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(guard.ingest(bytes));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stack.frames()));
}
BENCHMARK(BM_IngestGuardIngest)->Apply(ingest_shapes);

void BM_SecDedScrub(benchmark::State& state) {
  std::vector<std::uint16_t> pixels(4096, 27000);
  std::vector<std::uint16_t> out;
  for (auto _ : state) {
    spacefts::edac::ProtectedMemory memory(pixels);
    benchmark::DoNotOptimize(memory.scrub(out));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pixels.size() * 2));
}
BENCHMARK(BM_SecDedScrub);

/// Cost of an instrumentation point when telemetry is compiled in but
/// runtime-disabled — the flight configuration.  This is the overhead every
/// hot-path hook pays unconditionally: one relaxed atomic load.  The
/// acceptance bar is <= 3% on real workloads, which at ~1 ns/span and
/// tile-granularity hooks is comfortably met (see the StackPreprocess pair
/// below for the end-to-end number).
void BM_TelemetrySpanDisabled(benchmark::State& state) {
  spacefts::telemetry::set_enabled(false);
  for (auto _ : state) {
    SPACEFTS_TSPAN("bench.disabled", {"lambda", 50.0}, {"width", 64.0});
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TelemetrySpanDisabled);

/// The same span with recording live: clock reads plus a thread-local
/// buffer push (amortised drain into the global ring).
void BM_TelemetrySpanEnabled(benchmark::State& state) {
  spacefts::telemetry::set_enabled(true);
  for (auto _ : state) {
    SPACEFTS_TSPAN("bench.enabled", {"lambda", 50.0}, {"width", 64.0});
    benchmark::ClobberMemory();
  }
  spacefts::telemetry::set_enabled(false);
  spacefts::telemetry::reset();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TelemetrySpanEnabled);

void BM_TelemetryCounterDisabled(benchmark::State& state) {
  spacefts::telemetry::set_enabled(false);
  auto& c = spacefts::telemetry::counter("bench.counter");
  for (auto _ : state) {
    c.add();
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TelemetryCounterDisabled);

/// End-to-end overhead check: the production stack path with tracing live.
/// Compare against BM_AlgoNgstStackPreprocess/1 (telemetry disabled) to
/// read off the per-tile span cost on a real workload.
void BM_AlgoNgstStackPreprocessTraced(benchmark::State& state) {
  spacefts::core::AlgoNgstConfig config;
  config.lambda = 50.0;
  config.threads = 1;
  const spacefts::core::AlgoNgst algo(config);
  const auto base = corrupted_stack(128, 8);
  spacefts::telemetry::set_enabled(true);
  for (auto _ : state) {
    auto working = base;
    benchmark::DoNotOptimize(algo.preprocess(working));
    // Keep the ring from growing across iterations; not timed work in any
    // real deployment, but excluded here via PauseTiming for cleanliness.
    state.PauseTiming();
    spacefts::telemetry::reset();
    state.ResumeTiming();
  }
  spacefts::telemetry::set_enabled(false);
  spacefts::telemetry::reset();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 128 *
                          128);
}
BENCHMARK(BM_AlgoNgstStackPreprocessTraced);

void BM_MedianBaseline(benchmark::State& state) {
  const auto base = corrupted_series();
  for (auto _ : state) {
    auto working = base;
    spacefts::smoothing::median_smooth3(working);
    benchmark::DoNotOptimize(working.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_MedianBaseline);

/// The plausibility gate's partner median (sort_median.hpp): the median of
/// Arg = Υ gathered partner values per correction candidate, by the
/// data-dependent insertion sort and by the fixed compare-exchange networks
/// the gate runs.  Uniform u16 partners reproduce the gate's unordered
/// input.  Items = medians.  Both sorts are bit-identical
/// (tests/sort_median_test.cpp checks every input exhaustively).
template <typename Sorter>
void BM_GateMedian(benchmark::State& state, Sorter sorter) {
  constexpr std::size_t kCandidates = 1 << 16;
  const auto upsilon = static_cast<std::size_t>(state.range(0));
  spacefts::common::Rng rng(0x9a7eULL + upsilon);
  std::vector<std::uint16_t> partners(kCandidates * upsilon);
  for (auto& p : partners) p = static_cast<std::uint16_t>(rng() & 0xffff);
  std::uint16_t scratch[8];
  for (auto _ : state) {
    std::uint64_t checksum = 0;
    for (std::size_t base = 0; base < partners.size(); base += upsilon) {
      std::copy_n(partners.data() + base, upsilon, scratch);
      sorter(scratch, upsilon);
      checksum += scratch[upsilon / 2];
    }
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kCandidates));
}
constexpr auto kInsertionSort = [](std::uint16_t* v, std::size_t n) {
  spacefts::core::insertion_sort_u16(v, n);
};
constexpr auto kNetworkSort = [](std::uint16_t* v, std::size_t n) {
  spacefts::core::sort_small_u16(v, n);
};
BENCHMARK_CAPTURE(BM_GateMedian, insertion, kInsertionSort)->Arg(4)->Arg(8);
BENCHMARK_CAPTURE(BM_GateMedian, network, kNetworkSort)->Arg(4)->Arg(8);

/// Wall-clock scaling the host gives right now: \p threads threads each
/// spinning the same fixed integer loop, against one thread alone
/// (threads * t1 / tN, best of three each; about min(threads, free cores)
/// on a quiet host).
double host_parallel_speedup(std::size_t threads) {
  std::atomic<std::uint64_t> sink{0};
  const auto spin = [&sink] {
    std::uint64_t x = 1;
    for (int i = 0; i < 20'000'000; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
    }
    sink.fetch_add(x, std::memory_order_relaxed);
  };
  const auto seconds = [&spin](std::size_t n) {
    double best = 1e100;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      std::vector<std::thread> pool;
      for (std::size_t i = 0; i < n; ++i) pool.emplace_back(spin);
      for (auto& t : pool) t.join();
      best = std::min(best, std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count());
    }
    return best;
  };
  const double one = seconds(1);
  return static_cast<double>(threads) * one / seconds(threads);
}

/// Times one full 256x256x8 stack preprocess (best of kReps) at the given
/// lane count / kernel and records the result in BENCH_preprocess.json (one
/// row per configuration; reruns replace their row), with the host's
/// parallel speedup at that lane count measured just before.
void record_stack_throughput(std::size_t threads,
                             spacefts::core::Kernel kernel) {
  constexpr std::size_t kReps = 5;
  spacefts::core::AlgoNgstConfig config;
  config.lambda = 50.0;
  config.threads = threads;
  config.kernel = kernel;
  const spacefts::core::AlgoNgst algo(config);
  const auto base = corrupted_stack(256, 8);
  const double host_speedup = host_parallel_speedup(threads);
  double best = 1e100;
  for (std::size_t r = 0; r < kReps; ++r) {
    auto working = base;
    const auto t0 = std::chrono::steady_clock::now();
    (void)algo.preprocess(working);
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  bench::append_preprocess_record(256.0 * 256.0 / best, threads,
                                  config.upsilon, config.lambda,
                                  spacefts::core::kernel_name(kernel), kReps,
                                  host_speedup);
}

/// Whether --benchmark_filter selects a BM_AlgoNgstStackPreprocess run
/// (unset, "all", a regex one of their names contains, or a '-'-negated
/// one none does — google-benchmark's rules), so that a filtered run of
/// other benches leaves the trajectory rows alone.
bool filter_selects_stack_sweep() {
  std::string filter = benchmark::GetBenchmarkFilter();
  if (filter.empty() || filter == "all") return true;
  const bool negated = filter.front() == '-';
  if (negated) filter.erase(0, 1);
  std::regex re;
  try {
    re = std::regex(filter, std::regex::extended);
  } catch (const std::regex_error&) {
    return false;  // google-benchmark runs nothing either
  }
  for (const auto kernel : spacefts::core::available_kernels()) {
    for (const std::size_t threads : kStackThreads) {
      const std::string name = std::string("BM_AlgoNgstStackPreprocess/") +
                               spacefts::core::kernel_name(kernel) + "/" +
                               std::to_string(threads);
      if (std::regex_search(name, re) != negated) return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  register_stack_kernel_sweep();
  register_otis_kernel_sweep();
  register_parity_rows();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Trajectory records: every available kernel at 1/4/8 worker lanes.
  if (!filter_selects_stack_sweep()) return 0;
  for (const auto kernel : spacefts::core::available_kernels())
    for (const std::size_t threads : kStackThreads)
      record_stack_throughput(threads, kernel);
  return 0;
}
