// Tests for the ingest layer — FITS parse + sanity + decode + preprocessing
// as one deployable unit.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>

#include "spacefts/common/random.hpp"
#include "spacefts/datagen/ngst.hpp"
#include "spacefts/datagen/telemetry.hpp"
#include "spacefts/edac/crc32.hpp"
#include "spacefts/fault/models.hpp"
#include "spacefts/fits/fits.hpp"
#include "spacefts/ingest/guard.hpp"
#include "spacefts/metrics/error.hpp"
#include "readout_bank.hpp"

namespace {
// The largest single heap request and the running byte total since the
// last reset, so a test can bound what ingest allocates against the size of
// its input.
std::atomic<std::size_t> g_largest_alloc{0};
std::atomic<std::size_t> g_alloc_bytes{0};

void reset_alloc_counters() {
  g_largest_alloc = 0;
  g_alloc_bytes = 0;
}
}  // namespace

void* operator new(std::size_t n) {
  std::size_t seen = g_largest_alloc.load(std::memory_order_relaxed);
  while (n > seen && !g_largest_alloc.compare_exchange_weak(seen, n)) {
  }
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(std::max<std::size_t>(n, 1))) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler never pairs a new-expression with free().
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace si = spacefts::ingest;
namespace sf = spacefts::fault;
using spacefts::common::Rng;
using spacefts::common::TemporalStack;

namespace {

TemporalStack<std::uint16_t> small_stack(std::uint64_t seed,
                                         std::size_t readouts = 16) {
  spacefts::datagen::NgstSimulator sim(seed);
  spacefts::datagen::SceneParams params;
  params.width = 8;
  params.height = 8;
  // No stars: a bright source that saturates the 16-bit range produces
  // clamped plateaus, which the voter legitimately "corrects" toward; the
  // ingest tests want data where a clean pass is a near-no-op.
  params.stars = 0;
  return sim.stack(readouts, params);
}

si::IngestConfig config_for(const TemporalStack<std::uint16_t>& stack) {
  si::IngestConfig config;
  config.expectation.bitpix = 16;
  config.expectation.width = static_cast<std::int64_t>(stack.width());
  config.expectation.height = static_cast<std::int64_t>(stack.height());
  return config;
}

}  // namespace

TEST(IngestGuard, ValidatesAlgoConfig) {
  si::IngestConfig config;
  config.algo.upsilon = 3;
  EXPECT_THROW(si::IngestGuard{config}, std::invalid_argument);
}

TEST(IngestGuard, PackIngestRoundtripOnCleanData) {
  const auto stack = small_stack(1);
  const si::IngestGuard guard(config_for(stack));
  const auto result = guard.ingest(si::IngestGuard::pack(stack));
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.stack.width(), stack.width());
  EXPECT_EQ(result.stack.frames(), stack.frames());
  for (const auto& report : result.sanity) EXPECT_TRUE(report.clean());
  // Clean, quiet data: the preprocessing should barely touch anything.
  EXPECT_LT(result.preprocess.bits_corrected, 32u);
}

TEST(IngestGuard, PackBytesArePinned) {
  // pack's bytes are the container on the wire: CRC-32 digests of the
  // serve tier's NGST (32x32, 16 readouts) and telemetry (32 channels, 64
  // samples) shapes.  A change that moves them changed the format.
  spacefts::datagen::SceneParams scene;
  scene.width = 32;
  scene.height = 32;
  const auto image = si::IngestGuard::pack(
      spacefts::datagen::NgstSimulator(7).stack(16, scene));
  const auto bank = si::IngestGuard::pack(
      spacefts::datagen::TelemetrySimulator(7).stack({}));
  EXPECT_EQ(image.size(), 16u * 2u * spacefts::fits::kBlockSize);
  EXPECT_EQ(bank.size(), 64u * 2u * spacefts::fits::kBlockSize);
  EXPECT_EQ(spacefts::edac::crc32(image), 0x1d8c1032u);
  EXPECT_EQ(spacefts::edac::crc32(bank), 0xd0681273u);
}

TEST(IngestGuard, RepairsHeaderDamageInTransit) {
  const auto stack = small_stack(2);
  auto bytes = si::IngestGuard::pack(stack);
  // Damage a header keyword of the middle HDU via direct byte manipulation:
  // re-parse, flip NAXIS1, re-serialize — the realistic §2.2.1 scenario.
  auto file = spacefts::fits::FitsFile::parse(bytes);
  file.hdus()[7].header.set_int("NAXIS1", 8 ^ 0x20);
  bytes = file.serialize();

  auto config = config_for(stack);
  config.algo.lambda = 0.0;  // isolate the sanity layer
  const si::IngestGuard guard(config);
  const auto result = guard.ingest(bytes);
  ASSERT_TRUE(result.ok) << result.error;
  bool repaired_any = false;
  for (const auto& report : result.sanity) {
    if (!report.clean()) {
      EXPECT_TRUE(report.fully_repaired());
      repaired_any = true;
    }
  }
  EXPECT_TRUE(repaired_any);
  EXPECT_EQ(result.stack.cube(), stack.cube());
}

TEST(IngestGuard, PreprocessesDataDamage) {
  const auto stack = small_stack(3);
  auto damaged = stack;
  Rng rng(4);
  const sf::UncorrelatedFaultModel model(0.01);
  const auto mask = model.mask16(damaged.cube().size(), rng);
  sf::apply_mask<std::uint16_t>(damaged.cube().voxels(), mask);

  const si::IngestGuard guard(config_for(stack));
  const auto result = guard.ingest(si::IngestGuard::pack(damaged));
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GT(result.preprocess.bits_corrected, 0u);

  const double psi_before =
      spacefts::metrics::average_relative_error<std::uint16_t>(
          stack.cube().voxels(), damaged.cube().voxels());
  const double psi_after =
      spacefts::metrics::average_relative_error<std::uint16_t>(
          stack.cube().voxels(), result.stack.cube().voxels());
  EXPECT_LT(psi_after, psi_before / 3.0);
}

TEST(IngestGuard, LambdaZeroIsSanityOnly) {
  const auto stack = small_stack(5);
  auto damaged = stack;
  damaged(2, 2, 5) ^= 0x4000;

  auto config = config_for(stack);
  config.algo.lambda = 0.0;
  const si::IngestGuard guard(config);
  const auto result = guard.ingest(si::IngestGuard::pack(damaged));
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.preprocess.bits_corrected, 0u);
  EXPECT_EQ(result.stack.cube(), damaged.cube());
}

TEST(IngestGuard, RejectsGarbageContainer) {
  const si::IngestGuard guard(si::IngestConfig{});
  const std::vector<std::uint8_t> garbage(1000, 0x5A);
  const auto result = guard.ingest(garbage);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
}

TEST(IngestGuard, RejectsTruncatedContainer) {
  // A container cut mid-flight (dropped downlink frames): the guard must
  // report the failure through the result, never throw.
  const auto stack = small_stack(7);
  auto bytes = si::IngestGuard::pack(stack);
  const si::IngestGuard guard(config_for(stack));
  // bytes.size() - 2830 cuts into the final HDU's data unit (each 8x8
  // readout is one 2880-byte header block plus one data block); 2881 leaves
  // a header promising data that never arrives; 17 is not even a card.
  for (const std::size_t keep :
       {bytes.size() - 2830, std::size_t{2881}, std::size_t{17}}) {
    auto truncated = bytes;
    truncated.resize(keep);
    si::IngestResult result;
    ASSERT_NO_THROW(result = guard.ingest(truncated)) << "keep " << keep;
    EXPECT_FALSE(result.ok) << "keep " << keep;
    EXPECT_FALSE(result.error.empty()) << "keep " << keep;
    EXPECT_EQ(result.stack.cube().size(), 0u) << "keep " << keep;
  }
}

TEST(IngestGuard, RejectsMixedGeometry) {
  // One readout of another shape — fewer pixels, or the same count laid out
  // differently — decodes cleanly but cannot join the stack.
  const auto stack = small_stack(10);
  for (const auto& [w, h] : {std::pair<std::size_t, std::size_t>{8, 4},
                             std::pair<std::size_t, std::size_t>{16, 4}}) {
    const auto packed = si::IngestGuard::pack(stack);
    auto file = spacefts::fits::FitsFile::parse(packed);
    file.hdus()[5] = spacefts::fits::make_image_hdu(
        spacefts::common::Image<std::uint16_t>(w, h, 1000), /*primary=*/false);
    const si::IngestGuard guard(si::IngestConfig{});
    const auto result = guard.ingest(file.serialize());
    EXPECT_FALSE(result.ok) << w << "x" << h;
    EXPECT_EQ(result.error, "readout geometry differs across the baseline");
    EXPECT_EQ(result.stack.cube().size(), 0u);
  }
}

TEST(IngestGuard, MixedGeometryAllocatesInProportionToInput) {
  // One large readout 0 and many minimal 1x1 readouts: sizing the stack
  // from readout 0 before checking the others would allocate readout 0
  // times the readout count, growing with the square of the input.
  spacefts::fits::FitsFile file;
  file.hdus().push_back(spacefts::fits::make_image_hdu(
      spacefts::common::Image<std::uint16_t>(256, 256, 1000)));
  for (int t = 0; t < 200; ++t) {
    file.hdus().push_back(spacefts::fits::make_image_hdu(
        spacefts::common::Image<std::uint16_t>(1, 1, 1000),
        /*primary=*/false));
  }
  const auto bytes = file.serialize();
  const si::IngestGuard guard(si::IngestConfig{});
  reset_alloc_counters();
  const auto result = guard.ingest(bytes);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error, "readout geometry differs across the baseline");
  EXPECT_LT(g_largest_alloc.load(), bytes.size());
}

namespace {

/// A 128x128x16 baseline as the wire carries it, and the stack it holds.
struct Baseline {
  TemporalStack<std::uint16_t> stack;
  std::vector<std::uint8_t> bytes;
};

Baseline wide_baseline() {
  spacefts::datagen::NgstSimulator sim(12);
  spacefts::datagen::SceneParams params;
  params.width = 128;
  params.height = 128;
  params.stars = 0;
  Baseline b{sim.stack(16, params), {}};
  b.bytes = si::IngestGuard::pack(b.stack);
  return b;
}

/// The telemetry_chain bank: 256 channels of 1,024 samples, a run of
/// 1,023 equal extension headers.
Baseline telemetry_bank() {
  spacefts::datagen::TelemetryParams params;
  params.channels = 256;
  params.samples = 1024;
  Baseline b{spacefts::datagen::TelemetrySimulator(12).stack(params), {}};
  b.bytes = si::IngestGuard::pack(b.stack);
  return b;
}

/// Bytes of the card images parse keeps for \p bytes' headers.
std::size_t header_image_bytes(const std::vector<std::uint8_t>& bytes) {
  const auto file = spacefts::fits::FitsFile::parse(bytes);
  std::size_t total = 0;
  for (const auto& hdu : file.hdus()) {
    total += hdu.header.size() * spacefts::fits::kCardSize;
  }
  return total;
}

}  // namespace

TEST(FitsFile, ParseBorrowsPayloads) {
  const Baseline b = wide_baseline();
  const std::uint8_t* const lo = b.bytes.data();
  const std::uint8_t* const hi = lo + b.bytes.size();
  const std::size_t payload = b.stack.width() * b.stack.height() * 2;

  reset_alloc_counters();
  const auto file = spacefts::fits::FitsFile::parse(b.bytes);
  const std::size_t largest = g_largest_alloc.load();
  const std::size_t total = g_alloc_bytes.load();

  ASSERT_EQ(file.hdus().size(), b.stack.frames());
  for (const auto& hdu : file.hdus()) {
    ASSERT_EQ(hdu.data.size(), payload);
    EXPECT_GE(hdu.data.data(), lo);
    EXPECT_LE(hdu.data.data() + hdu.data.size(), hi);
  }
  // Headers and the HDU list only: not one payload-sized block, and not
  // one payload's worth in all.
  EXPECT_LT(largest, payload);
  EXPECT_LT(total, payload);
}

TEST(IngestGuard, IngestAllocatesOnlyTheStack) {
  // The bank's run of equal headers may share one verdict, but no copy
  // per readout on top of what parse holds.
  for (const Baseline& b : {wide_baseline(), telemetry_bank()}) {
    SCOPED_TRACE(b.stack.frames());
    auto config = config_for(b.stack);
    // The voter's tile scratch is the executor's, not ingest's.
    config.executor = [](TemporalStack<std::uint16_t>&,
                         const spacefts::core::AlgoNgstConfig&) {
      return spacefts::core::AlgoNgstReport{};
    };
    const si::IngestGuard guard(config);
    const std::size_t stack_bytes = b.stack.cube().size() * 2;
    const std::size_t headers = header_image_bytes(b.bytes);
    constexpr std::size_t kSlack = 8 * 1024;

    (void)guard.ingest(b.bytes);  // first-use telemetry registrations
    reset_alloc_counters();
    const auto result = guard.ingest(b.bytes);
    const std::size_t total = g_alloc_bytes.load();

    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.stack.cube(), b.stack.cube());
    EXPECT_LE(total, stack_bytes + headers + kSlack)
        << "stack " << stack_bytes << ", headers " << headers;
  }
}

namespace {

/// The error ingest reports for \p want, a bank read one readout at a
/// time: parse, then sanity over every readout, then decode and geometry
/// in readout order, a readout's decode before its geometry.
std::string ingest_error(const readout_bank::Oracle& want) {
  if (!want.parse_error.empty()) {
    return "container parse failed: " + want.parse_error;
  }
  for (const auto& r : want.readouts) {
    if (!r.repaired) return "unrepairable header damage";
  }
  const auto& first = want.readouts.front();
  for (const auto& r : want.readouts) {
    if (!r.decode_error.empty()) return "readout decode failed: " + r.decode_error;
    if (r.image->width() != first.image->width() ||
        r.image->height() != first.image->height()) {
      return "readout geometry differs across the baseline";
    }
  }
  return "";
}

}  // namespace

TEST(IngestGuard, HeaderRunsMatchOneHduFiles) {
  // Ingest checks and sizes a run of equal readout headers once; its stack,
  // reports and error must be those of every readout read on its own.
  si::IngestConfig config;
  config.expectation = readout_bank::expectation();
  config.algo.lambda = 0.0;  // the stack is the decoded readouts
  const si::IngestGuard guard(config);
  for (const auto& c : readout_bank::cases()) {
    SCOPED_TRACE(c.name);
    const auto bank = readout_bank::bank_for(c);
    const auto want = readout_bank::oracle(bank);
    const auto result = guard.ingest(bank);
    const std::string error = ingest_error(want);
    EXPECT_EQ(result.error, error);
    EXPECT_EQ(result.ok, error.empty());
    if (!want.parse_error.empty()) continue;
    ASSERT_EQ(result.sanity.size(), want.readouts.size());
    for (std::size_t t = 0; t < result.sanity.size(); ++t) {
      ASSERT_EQ(readout_bank::describe(result.sanity[t]),
                want.readouts[t].sanity)
          << "readout " << t;
    }
    if (!result.ok) continue;
    ASSERT_EQ(result.stack.frames(), want.readouts.size());
    for (std::size_t t = 0; t < want.readouts.size(); ++t) {
      ASSERT_TRUE(std::ranges::equal(result.stack.cube().plane(t),
                                     want.readouts[t].image->pixels()))
          << "readout " << t;
    }
  }
}

TEST(IngestGuard, IngestLeavesTheCallersBytesAlone) {
  // Sanity repairs the headers and trims a captured pad; neither may reach
  // the wire buffer the payloads view (callers reuse it across ingests).
  const auto stack = small_stack(13);
  const auto packed = si::IngestGuard::pack(stack);
  auto file = spacefts::fits::FitsFile::parse(packed);
  file.hdus()[4].header.set_int("NAXIS1", 8 ^ 0x20);  // 40: parse takes pad
  file.hdus()[9].header.set_double("BZERO", 1.0);
  const auto damaged = file.serialize();
  const auto bytes = damaged;

  const si::IngestGuard guard(config_for(stack));
  const auto first = guard.ingest(bytes);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.sanity[4].issues.size(), 2u);  // NAXIS1, then the trim
  EXPECT_EQ(first.sanity[9].issues.size(), 1u);  // BZERO
  EXPECT_EQ(bytes, damaged);
  const auto second = guard.ingest(bytes);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(second.stack.cube(), first.stack.cube());
  EXPECT_EQ(second.preprocess.pixels_corrected,
            first.preprocess.pixels_corrected);
}

TEST(IngestGuard, RefusesBaselinesUnderThreeReadouts) {
  // A parseable baseline of two readouts is refused up front: temporal
  // voting without neighbours is meaningless.
  const auto two = small_stack(8, 2);
  const si::IngestGuard guard(config_for(two));
  si::IngestResult result;
  ASSERT_NO_THROW(result = guard.ingest(si::IngestGuard::pack(two)));
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("too few readouts"), std::string::npos);

  // Three readouts pass.
  const auto three = small_stack(8, 3);
  const auto accepted = guard.ingest(si::IngestGuard::pack(three));
  EXPECT_TRUE(accepted.ok) << accepted.error;
}

TEST(IngestGuard, AllHdusCorruptFailsGracefully) {
  // Every readout's width keyword zeroed and its data unit lost — the
  // container still parses (HDU boundaries are intact) but no HDU carries
  // usable geometry, and with no a-priori expectation nothing can repair
  // it: ok == false with a populated error, not a throw.
  const auto stack = small_stack(9);
  auto bytes = si::IngestGuard::pack(stack);
  auto file = spacefts::fits::FitsFile::parse(bytes);
  for (auto& hdu : file.hdus()) {
    hdu.header.set_int("NAXIS1", 0);
    hdu.data = spacefts::fits::Payload();
  }
  bytes = file.serialize();

  const si::IngestGuard guard(si::IngestConfig{});  // everything unknown
  si::IngestResult result;
  ASSERT_NO_THROW(result = guard.ingest(bytes));
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
  // The audit trail still covers every HDU it examined.
  EXPECT_EQ(result.sanity.size(), stack.frames());
  std::size_t unrepaired = 0;
  for (const auto& report : result.sanity) {
    unrepaired += report.fully_repaired() ? 0 : 1;
  }
  EXPECT_EQ(unrepaired, stack.frames());
}

TEST(IngestGuard, RejectsTooFewReadouts) {
  spacefts::datagen::NgstSimulator sim(6);
  spacefts::datagen::SceneParams params;
  params.width = 4;
  params.height = 4;
  const auto tiny = sim.stack(2, params);
  si::IngestConfig config;
  config.expectation.bitpix = 16;
  const si::IngestGuard guard(config);
  const auto result = guard.ingest(si::IngestGuard::pack(tiny));
  EXPECT_FALSE(result.ok);
}
