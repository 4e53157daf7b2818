#include "spacefts/check/properties.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "spacefts/check/oracle.hpp"
#include "spacefts/core/voter_matrix.hpp"
#include "spacefts/downlink/chain.hpp"
#include "spacefts/downlink/compressed_hdu.hpp"
#include "spacefts/edac/crc32.hpp"
#include "spacefts/edac/hamming.hpp"
#include "spacefts/fault/message_faults.hpp"
#include "spacefts/fits/fits.hpp"
#include "spacefts/rice/bitstream.hpp"
#include "spacefts/rice/rice.hpp"
#include "spacefts/serve/server.hpp"
#include "spacefts/serve/workload.hpp"

namespace spacefts::check {

namespace {

/// printf-style detail builder for failure messages.
template <typename... Args>
[[nodiscard]] std::string format_detail(const char* fmt, Args... args) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), fmt, args...);
  return std::string(buffer);
}

/// The payload shapes the rice properties sample: lengths straddling the
/// 32-sample block boundary plus a couple of larger irregular ones.
constexpr std::size_t kRiceLengths[] = {0, 1, 31, 32, 33, 63, 64, 65, 97, 256};

/// Draws one 16-bit payload of the given kind: 0 = random walk
/// (compressible), 1 = full entropy (escape blocks), 2 = constant,
/// 3 = alternating extremes (worst-case deltas).
[[nodiscard]] std::vector<std::uint16_t> draw_payload(common::Rng& rng,
                                                      std::size_t length,
                                                      std::size_t kind) {
  std::vector<std::uint16_t> out(length);
  std::uint16_t walk = 27000;
  for (std::size_t i = 0; i < length; ++i) {
    switch (kind % 4) {
      case 0:
        walk = static_cast<std::uint16_t>(
            walk + static_cast<std::uint16_t>(rng.below(41)) - 20);
        out[i] = walk;
        break;
      case 1:
        out[i] = static_cast<std::uint16_t>(rng());
        break;
      case 2:
        out[i] = 512;
        break;
      default:
        out[i] = (i % 2 == 0) ? 0 : 0xFFFF;
        break;
    }
  }
  return out;
}

/// Draws full Rice blocks whose largest quotient sits exactly at the
/// 31 − k / 32 − k edge, alternating, each at a k drawn from [0, 11]:
/// one leading block (the first block always codes through the scalar
/// path), then \p blocks test blocks.  In a test block 31 residuals lie in
/// [2^(k−1), 2^k) (0 when k = 0), and the last sample jumps by a residual
/// of quotient Q ∈ {31 − k, 32 − k} at k.  Then saving(k) = ceil(Q / 2)
/// ≤ 32 while saving(k − 1) ≥ 31 + Q, so the encoder picks exactly k; the
/// block costs at most 416 bits and never escapes.  Each step is signed
/// towards mid-scale so the samples stay in range (a jump of quotient Q
/// at k ≤ 11 moves at most 21,504).
[[nodiscard]] std::vector<std::uint16_t> draw_quotient_edge_payload(
    common::Rng& rng, std::size_t blocks) {
  std::vector<std::uint16_t> out(rice::kBlockSamples, 32768);
  std::int32_t value = 32768;
  // The sample a zigzag residual of the given magnitude class reaches:
  // an even residual r steps up by r / 2, an odd one down by (r + 1) / 2.
  const auto step = [&value](std::uint32_t even_residual) {
    const auto half = static_cast<std::int32_t>(even_residual / 2);
    value += value < 32768 ? half : -half - 1;
    return static_cast<std::uint16_t>(value);
  };
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto k = static_cast<unsigned>(rng.below(12));
    const std::uint32_t quotient = (b % 2 == 0 ? 31 : 32) - k;
    for (std::size_t j = 0; j + 1 < rice::kBlockSamples; ++j) {
      // k = 0: residual 0.  k = 1: residual 1 (one step down).
      // k >= 2: residual 2^(k-1) or 2^(k-1) + 1, by direction.
      if (k == 0) {
        out.push_back(static_cast<std::uint16_t>(value));
      } else if (k == 1) {
        out.push_back(static_cast<std::uint16_t>(--value));
      } else {
        out.push_back(step(1u << (k - 1)));
      }
    }
    const std::uint32_t low =
        k == 0 ? 0 : static_cast<std::uint32_t>(rng.below(1u << k)) & ~1u;
    if (k == 0) {
      // Residual Q itself: Q even steps up by Q / 2, Q odd down.
      value += quotient % 2 == 0 ? static_cast<std::int32_t>(quotient / 2)
                                 : -static_cast<std::int32_t>(quotient + 1) / 2;
      out.push_back(static_cast<std::uint16_t>(value));
    } else {
      out.push_back(step((quotient << k) | low));
    }
  }
  return out;
}

}  // namespace

PropertyResult property_failed(std::string detail) {
  return PropertyResult{false, std::move(detail)};
}

// ---- rice -------------------------------------------------------------------

PropertyResult check_rice_roundtrip(common::Rng& rng) {
  for (std::size_t kind = 0; kind < 4; ++kind) {
    for (const std::size_t length : kRiceLengths) {
      const auto payload = draw_payload(rng, length, kind);
      const auto stream = rice::compress16(payload);
      if (stream != oracle_rice_encode(payload)) {
        return property_failed(format_detail(
            "rice encoder differs from the oracle: kind=%zu length=%zu", kind,
            length));
      }
      const auto decoded = rice::decompress16(stream, payload.size());
      if (decoded != payload) {
        return property_failed(format_detail(
            "rice round-trip mismatch: kind=%zu length=%zu", kind, length));
      }
    }
  }
  // One irregular length drawn fresh each call.
  const std::size_t length = 1 + rng.below(400);
  const auto payload = draw_payload(rng, length, rng.below(4));
  const auto stream = rice::compress16(payload);
  if (stream != oracle_rice_encode(payload)) {
    return property_failed(format_detail(
        "rice encoder differs from the oracle: random length=%zu", length));
  }
  if (rice::decompress16(stream, payload.size()) != payload) {
    return property_failed(
        format_detail("rice round-trip mismatch: random length=%zu", length));
  }
  // Blocks at the encoders' long-code bound, from a copy of the stream so
  // the properties drawn after this one see the draws they always saw.
  common::Rng edge_rng = rng;
  const auto edge = draw_quotient_edge_payload(edge_rng, 8);
  const auto edge_stream = rice::compress16(edge);
  if (edge_stream != oracle_rice_encode(edge)) {
    return property_failed(
        "rice encoder differs from the oracle: quotient-edge blocks");
  }
  if (rice::decompress16(edge_stream, edge.size()) != edge) {
    return property_failed("rice round-trip mismatch: quotient-edge blocks");
  }
  return {};
}

PropertyResult check_rice_writer_reuse(common::Rng& rng) {
  // Record a random op sequence, then play it into a reused writer and into
  // fresh writers; the streams must agree and the reused writer must reset.
  struct Op {
    std::uint64_t value;
    unsigned count;  ///< 0 marks a unary op
  };
  for (int round = 0; round < 4; ++round) {
    const auto draw_ops = [&rng] {
      std::vector<Op> ops(12 + rng.below(20));
      for (Op& op : ops) {
        op = rng.bernoulli(0.3)
                 ? Op{rng.below(24), 0}
                 : Op{rng(), 1 + static_cast<unsigned>(rng.below(32))};
      }
      return ops;
    };
    const std::vector<Op> first_ops = draw_ops();
    const std::vector<Op> second_ops = draw_ops();
    const auto play = [](rice::BitWriter& w, const std::vector<Op>& ops) {
      for (const Op& op : ops) {
        if (op.count == 0) {
          w.write_unary(op.value);
        } else {
          w.write_bits(op.value, op.count);
        }
      }
    };
    rice::BitWriter reused;
    play(reused, first_ops);
    const auto first = reused.finish();
    if (reused.bit_count() != 0) {
      return property_failed("BitWriter::finish left bit_count non-zero");
    }
    play(reused, second_ops);
    const auto second = reused.finish();

    rice::BitWriter fresh_a, fresh_b;
    play(fresh_a, first_ops);
    play(fresh_b, second_ops);
    if (first != fresh_a.finish() || second != fresh_b.finish()) {
      return property_failed(
          format_detail("reused BitWriter diverged from fresh (round %d)",
                        round));
    }
  }
  return {};
}

PropertyResult check_rice_corrupt_contract(common::Rng& rng) {
  const auto payload = draw_payload(rng, 48 + rng.below(80), rng.below(4));
  const auto pristine = rice::compress16(payload);

  const auto decode_is_contained = [&](std::span<const std::uint8_t> stream,
                                       const char* what) -> PropertyResult {
    try {
      const auto decoded = rice::decompress16(stream, payload.size());
      if (decoded.size() != payload.size()) {
        return property_failed(format_detail(
            "corrupt rice stream (%s) returned %zu of %zu samples", what,
            decoded.size(), payload.size()));
      }
    } catch (const rice::BitstreamError&) {
      // The documented failure mode.
    }
    return {};
  };

  // Random single-bit damage.
  for (int trial = 0; trial < 16 && !pristine.empty(); ++trial) {
    auto damaged = pristine;
    const auto bit = rng.below(damaged.size() * 8);
    damaged[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    if (auto r = decode_is_contained(damaged, "bit flip"); !r.ok) return r;
  }
  // Truncation at a random byte (covers truncated escape blocks whenever
  // the payload drew full-entropy data).
  if (!pristine.empty()) {
    auto truncated = pristine;
    truncated.resize(rng.below(truncated.size()));
    if (auto r = decode_is_contained(truncated, "truncation"); !r.ok) return r;
  }
  // Trailing garbage must not disturb the decoded prefix: the stream is
  // self-delimiting given the sample count.
  {
    auto padded = pristine;
    for (int i = 0; i < 16; ++i) {
      padded.push_back(static_cast<std::uint8_t>(rng()));
    }
    const auto decoded = rice::decompress16(padded, payload.size());
    if (decoded != payload) {
      return property_failed("trailing garbage changed the decoded samples");
    }
  }
  // An oversized unary quotient must hit the run bound, not demand a
  // gigabit-scale read: k = 0 header followed by ~160k one-bits.
  {
    std::vector<std::uint8_t> hostile(20500, 0xFF);
    hostile[0] = 0x07;  // 00000 (k = 0) then ones
    try {
      (void)rice::decompress16(hostile, 1);
      return property_failed("oversized unary quotient was not rejected");
    } catch (const rice::BitstreamError&) {
    }
  }
  return {};
}

PropertyResult check_rice_decode_oracle(common::Rng& rng) {
  std::size_t count = 0;
  const auto diff = [&count](std::span<const std::uint8_t> stream,
                             const char* what,
                             std::size_t kind) -> PropertyResult {
    const auto outcome = [&](auto&& decode) {
      std::pair<std::vector<std::uint16_t>, std::string> result;
      try {
        result.first = decode(stream, count);
      } catch (const rice::BitstreamError& e) {
        result.second = e.what();
      }
      return result;
    };
    const auto got = outcome(rice::decompress16);
    const auto want = outcome(oracle_rice_decode);
    if (got != want) {
      return property_failed(format_detail(
          "rice decode (%s, kind=%zu, %zu bytes, count=%zu) diverged from "
          "the oracle: \"%s\" vs \"%s\"",
          what, kind, stream.size(), count, got.second.c_str(),
          want.second.c_str()));
    }
    return {};
  };

  // draw_payload's four shapes, then telemetry-like i.i.d. noise of +-4000
  // around a level, which codes at k = 12..13.
  for (std::size_t kind = 0; kind < 5; ++kind) {
    auto payload = draw_payload(rng, 1 + rng.below(300), kind);
    if (kind == 4) {
      for (auto& v : payload) {
        v = static_cast<std::uint16_t>(26000 + rng.below(8001));
      }
    }
    const auto pristine = rice::compress16(payload);
    count = payload.size();
    if (auto r = diff(pristine, "intact", kind); !r.ok) return r;
    for (int trial = 0; trial < 8; ++trial) {
      auto damaged = pristine;
      for (auto flips = 1 + rng.below(3); flips > 0; --flips) {
        const auto bit = rng.below(damaged.size() * 8);
        damaged[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      }
      if (auto r = diff(damaged, "bit flips", kind); !r.ok) return r;
    }
    // Every cut inside the last 8 bytes, where the reader goes from word
    // loads to byte loads, and one anywhere.
    for (std::size_t cut = 1; cut <= 8 && cut <= pristine.size(); ++cut) {
      const auto kept = std::span(pristine).first(pristine.size() - cut);
      if (auto r = diff(kept, "tail cut", kind); !r.ok) return r;
    }
    auto extended = pristine;
    extended.resize(rng.below(pristine.size() + 1));
    if (auto r = diff(extended, "cut", kind); !r.ok) return r;
    // A run of ones longer than the reader's buffer.
    extended.insert(extended.end(), 9 + rng.below(24), 0xFF);
    if (auto r = diff(extended, "0xFF tail", kind); !r.ok) return r;
    // Counts the stream cannot hold.
    for (const std::size_t hostile :
         {payload.size() + 1 + rng.below(64), pristine.size() * 8 + 1,
          std::size_t{1} << 40}) {
      count = hostile;
      if (auto r = diff(pristine, "hostile count", kind); !r.ok) return r;
    }
  }
  return {};
}

// ---- edac -------------------------------------------------------------------

PropertyResult check_crc_frame(common::Rng& rng) {
  // Log-uniform lengths in [1, 4096): every scale equally often, half of
  // them at or past the 64 bytes where crc32 can switch to its folding
  // kernel.
  std::vector<std::uint8_t> payload(
      static_cast<std::size_t>(std::exp2(rng.uniform(0.0, 12.0))));
  for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng());
  const auto seed = static_cast<std::uint32_t>(rng());
  for (const std::uint32_t crc : {0u, seed}) {
    const std::uint32_t got = edac::crc32(payload, crc);
    const std::uint32_t want = oracle_crc32(payload, crc);
    if (got != want) {
      return property_failed(format_detail(
          "crc32 of %zu bytes from %08x: %08x, oracle %08x", payload.size(),
          crc, got, want));
    }
  }
  auto frame = payload;
  edac::frame_append_crc(frame);
  if (!edac::frame_verify(frame)) {
    return property_failed("freshly framed payload failed verification");
  }
  const auto recovered = edac::frame_payload(frame);
  if (recovered.size() != payload.size() ||
      !std::equal(recovered.begin(), recovered.end(), payload.begin())) {
    return property_failed("frame_payload did not return the framed bytes");
  }
  for (int trial = 0; trial < 8; ++trial) {
    auto damaged = frame;
    const auto bit = rng.below(damaged.size() * 8);
    damaged[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    if (edac::frame_verify(damaged)) {
      return property_failed(
          format_detail("single-bit frame damage at bit %llu went undetected",
                        static_cast<unsigned long long>(bit)));
    }
  }
  return {};
}

PropertyResult check_hamming_contract(common::Rng& rng) {
  const std::uint64_t data = rng();
  const std::uint8_t parity = edac::encode_parity(data);
  // The bulk encoder agrees with the one-word one on the word and on its 72
  // single flips (the last 8 flip parity bits and leave the data as is).
  std::array<std::uint64_t, 73> flipped;
  flipped[0] = data;
  for (int bit = 0; bit < 72; ++bit) {
    flipped[bit + 1] = bit < 64 ? data ^ (std::uint64_t{1} << bit) : data;
  }
  std::array<std::uint8_t, flipped.size()> parities;
  edac::encode_parities(reinterpret_cast<const std::uint8_t*>(flipped.data()),
                        flipped.size(), parities.data());
  for (std::size_t i = 0; i < flipped.size(); ++i) {
    if (parities[i] != edac::encode_parity(flipped[i])) {
      return property_failed(format_detail(
          "encode_parities disagrees with encode_parity on word %zu", i));
    }
  }
  // Every single flip across the 72-bit code word corrects cleanly.
  for (int bit = 0; bit < 72; ++bit) {
    const std::uint64_t d =
        bit < 64 ? data ^ (std::uint64_t{1} << bit) : data;
    const auto p = static_cast<std::uint8_t>(
        bit < 64 ? parity : parity ^ (1u << (bit - 64)));
    const auto result = edac::decode(d, p);
    if (result.status != edac::DecodeStatus::kCorrected ||
        result.data != data) {
      return property_failed(
          format_detail("single flip at bit %d not corrected", bit));
    }
  }
  // Sampled double flips must be detected without miscorrection.
  for (int trial = 0; trial < 48; ++trial) {
    const int b1 = static_cast<int>(rng.below(72));
    int b2 = static_cast<int>(rng.below(72));
    if (b2 == b1) b2 = (b2 + 1) % 72;
    std::uint64_t d = data;
    std::uint8_t p = parity;
    for (const int bit : {b1, b2}) {
      if (bit < 64) {
        d ^= std::uint64_t{1} << bit;
      } else {
        p = static_cast<std::uint8_t>(p ^ (1u << (bit - 64)));
      }
    }
    if (edac::decode(d, p).status != edac::DecodeStatus::kUncorrectable) {
      return property_failed(
          format_detail("double flip (%d, %d) not flagged uncorrectable", b1,
                        b2));
    }
  }
  return {};
}

// ---- voter metamorphics -----------------------------------------------------

PropertyResult check_lambda_monotonicity(std::span<const std::uint16_t> series,
                                         std::size_t upsilon, double lambda_lo,
                                         double lambda_hi) {
  const auto lo =
      core::build_voter_matrix<std::uint16_t>(series, upsilon, lambda_lo);
  const auto hi =
      core::build_voter_matrix<std::uint16_t>(series, upsilon, lambda_hi);
  if (lo.ways.size() != hi.ways.size()) {
    return property_failed("way count changed with lambda alone");
  }
  for (std::size_t w = 0; w < lo.ways.size(); ++w) {
    if (hi.ways[w].v_val > lo.ways[w].v_val) {
      return property_failed(format_detail(
          "way %zu: threshold rose with lambda (%u -> %u)", w,
          unsigned{lo.ways[w].v_val}, unsigned{hi.ways[w].v_val}));
    }
    for (std::size_t i = 0; i < lo.ways[w].xors.size(); ++i) {
      const bool survives_lo = lo.voter(w, i) != 0;
      const bool survives_hi = hi.voter(w, i) != 0;
      if (survives_lo && !survives_hi) {
        return property_failed(format_detail(
            "way %zu pair %zu survived lambda=%g but not lambda=%g", w, i,
            lambda_lo, lambda_hi));
      }
    }
  }
  return {};
}

PropertyResult check_window_c_invariance(
    std::span<const std::uint16_t> series,
    const core::AlgoNgstConfig& config) {
  std::vector<std::uint16_t> corrected(series.begin(), series.end());
  const core::AlgoNgst algo(config);
  const auto report = algo.preprocess(corrected);
  for (std::size_t i = 0; i < series.size(); ++i) {
    const auto diff = static_cast<std::uint16_t>(series[i] ^ corrected[i]);
    if (report.lsb_mask == 0 ? diff != 0
                             : (diff & static_cast<std::uint16_t>(
                                           ~report.lsb_mask)) != 0) {
      return property_failed(format_detail(
          "pixel %zu changed below the window-C delimiter (diff=%04x "
          "lsb_mask=%04x)",
          i, unsigned{diff}, unsigned{report.lsb_mask}));
    }
  }
  return {};
}

PropertyResult check_ngst_idempotence(std::span<const std::uint16_t> series,
                                      const core::AlgoNgstConfig& config) {
  // Strict preprocess∘preprocess = preprocess does NOT hold for Algo_NGST:
  // the thresholds are *dynamic* (re-derived from the data), so repairing
  // faults tightens the next pass's thresholds, which can unlock a further
  // correction.  The true invariant is convergence: iterating the operator
  // reaches a fixed point within a few passes, and at the fixed point
  // preprocess really is idempotent (same input ⇒ same thresholds ⇒ same
  // decisions ⇒ same output).
  constexpr int kMaxPasses = 8;
  std::vector<std::uint16_t> current(series.begin(), series.end());
  const core::AlgoNgst algo(config);
  (void)algo.preprocess(current);
  for (int pass = 2; pass <= kMaxPasses; ++pass) {
    std::vector<std::uint16_t> next = current;
    (void)algo.preprocess(next);
    if (next == current) return {};
    current = std::move(next);
  }
  return property_failed(
      format_detail("no fixed point within %d passes", kMaxPasses));
}

PropertyResult check_kernel_invariance(
    const common::TemporalStack<std::uint16_t>& stack,
    const core::AlgoNgstConfig& config) {
  auto golden = stack;
  const auto golden_report = oracle_ngst_stack(golden, config);
  core::AlgoNgstConfig cfg = config;
  for (const core::Kernel kernel : core::available_kernels()) {
    cfg.kernel = kernel;
    auto work = stack;
    const auto report = core::AlgoNgst(cfg).preprocess(work);
    if (work != golden) {
      const auto a = work.cube().voxels();
      const auto b = golden.cube().voxels();
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i] != b[i]) {
          return property_failed(format_detail(
              "kernel %s diverged from the oracle at voxel %zu (%04x vs %04x)",
              core::kernel_name(kernel), i, unsigned{a[i]}, unsigned{b[i]}));
        }
      }
    }
    const bool reports_match = report.lsb_mask == golden_report.lsb_mask &&
                               report.msb_mask == golden_report.msb_mask &&
                               report.pixels_examined ==
                                   golden_report.pixels_examined &&
                               report.pixels_corrected ==
                                   golden_report.pixels_corrected &&
                               report.bits_corrected ==
                                   golden_report.bits_corrected &&
                               report.pixels_vetoed ==
                                   golden_report.pixels_vetoed;
    if (!reports_match) {
      return property_failed(format_detail(
          "kernel %s produced a different report than the oracle",
          core::kernel_name(kernel)));
    }
  }
  return {};
}

// ---- serve ------------------------------------------------------------------

PropertyResult check_serve_workload_roundtrip(common::Rng& rng) {
  serve::WorkloadSpec spec;
  spec.requests = 8 + rng.below(25);
  spec.rate_hz = rng.uniform(50.0, 500.0);
  spec.seed = rng();
  spec.otis_fraction = rng.uniform();
  spec.priority_levels = 1 + static_cast<int>(rng.below(4));
  spec.deadline_ms = rng.bernoulli(0.5) ? 0.0 : rng.uniform(1.0, 50.0);

  const auto items = serve::generate_workload(spec);
  const std::string once = serve::to_jsonl(items);
  const std::string again = serve::to_jsonl(serve::parse_workload_jsonl(once));
  if (once != again) {
    return property_failed("workload JSONL is not a serialise/parse fixed point");
  }
  if (serve::to_jsonl(serve::generate_workload(spec)) != once) {
    return property_failed("workload regeneration from the same spec diverged");
  }
  return {};
}

PropertyResult check_serve_determinism(common::Rng& rng) {
  serve::WorkloadSpec spec;
  spec.requests = 6;
  spec.seed = rng();
  spec.ngst_side = 12;
  spec.ngst_frames = 8;
  spec.otis_side = 8;
  spec.otis_bands = 4;
  spec.otis_fraction = 0.3;
  const auto items = serve::generate_workload(spec);

  std::string previous;
  for (const std::size_t max_batch : {std::size_t{1}, std::size_t{4}}) {
    serve::ServerConfig config;
    config.workers = 0;  // manual step mode: deterministic batch formation
    config.capacity = 64;
    config.max_batch = max_batch;
    serve::Server server(config);
    for (const auto& item : items) (void)server.submit(item.request);
    while (server.step() > 0) {
    }
    server.drain();
    const std::string results = serve::results_to_jsonl(server.take_results());
    if (!previous.empty() && results != previous) {
      return property_failed(format_detail(
          "serve results changed between batch sizes 1 and %zu", max_batch));
    }
    previous = results;
  }
  return {};
}

// ---- downlink ---------------------------------------------------------------

namespace {

/// Draws a random-walk image; height 1 exercises the telemetry shape.
[[nodiscard]] common::Image<std::uint16_t> draw_image(common::Rng& rng,
                                                      std::size_t width,
                                                      std::size_t height) {
  common::Image<std::uint16_t> image(width, height);
  std::uint16_t walk = 30000;
  for (auto& pixel : image.pixels()) {
    walk = static_cast<std::uint16_t>(
        walk + static_cast<std::uint16_t>(rng.below(61)) - 30);
    pixel = walk;
  }
  return image;
}

/// Recovers \p frame, parses it, and decompresses the first HDU; the full
/// base-station receive path of downlink::run_chain.
[[nodiscard]] std::optional<common::Image<std::uint16_t>> receive_frame(
    std::span<const std::uint8_t> frame) {
  const auto payload = downlink::recover_frame(frame);
  if (!payload) return std::nullopt;
  const auto file = fits::FitsFile::parse(*payload);
  if (file.hdus().empty()) throw fits::FitsError("frame held no HDU");
  return downlink::read_compressed_hdu(file.hdus().front());
}

}  // namespace

PropertyResult check_downlink_roundtrip(common::Rng& rng) {
  // A 0-area image must be refused at write time, not shipped as a frame
  // the reader would reject.
  try {
    (void)downlink::make_compressed_hdu(common::Image<std::uint16_t>());
    return property_failed("make_compressed_hdu accepted a 0x0 image");
  } catch (const fits::FitsError&) {
  }

  for (std::size_t round = 0; round < 4; ++round) {
    const std::size_t height = rng.bernoulli(0.25) ? 1 : 1 + rng.below(24);
    const std::size_t width = 1 + rng.below(48);
    const auto image = draw_image(rng, width, height);

    fits::FitsFile file;
    file.hdus().push_back(downlink::make_compressed_hdu(image));
    const auto frame = downlink::protect_frame(file.serialize());

    const auto clean = receive_frame(frame);
    if (!clean || *clean != image) {
      return property_failed(format_detail(
          "downlink round-trip mismatch: %zux%zu", width, height));
    }

    // Any single bit flip in the data or parity region must be repaired
    // back to the exact original payload (a trailer flip is an erasure,
    // covered by the corrupt contract).
    auto damaged = frame;
    const std::size_t bit = rng.below((damaged.size() - 4) * 8);
    damaged[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    const auto repaired = receive_frame(damaged);
    if (!repaired || *repaired != image) {
      return property_failed(format_detail(
          "downlink single-bit flip at bit %zu not repaired (%zux%zu)", bit,
          width, height));
    }
  }
  return {};
}

PropertyResult check_downlink_corrupt_contract(common::Rng& rng) {
  const auto image = draw_image(rng, 1 + rng.below(32), 1 + rng.below(16));

  // Header-field damage: a wild ZNAXIS claim must throw at the reader
  // (regression for the Z-geometry overflow), never allocate the claim.
  {
    auto hdu = downlink::make_compressed_hdu(image);
    hdu.header.set_int("ZNAXIS1", 1 << 30);
    hdu.header.set_int("ZNAXIS2", 1 << 30);
    try {
      (void)downlink::read_compressed_hdu(hdu);
      return property_failed("wild ZNAXIS geometry was not rejected");
    } catch (const fits::FitsError&) {
    }
  }

  // Stream damage below the framing layer: truncation and bit soup must
  // surface as FitsError from the decode path, never a wrong image.
  {
    auto hdu = downlink::make_compressed_hdu(image);
    hdu.data.shrink(hdu.data.size() / 2);
    hdu.header.set_int("NAXIS1", static_cast<std::int64_t>(hdu.data.size()));
    try {
      const auto decoded = downlink::read_compressed_hdu(hdu);
      if (decoded == image) {
        return property_failed("half the stream still decoded bit-exact");
      }
    } catch (const fits::FitsError&) {
    }
  }

  // Frame damage beyond SEC-DED: whatever MessageFaultModel or random
  // mangling does, recover_frame returns the exact payload or nullopt.
  fits::FitsFile file;
  file.hdus().push_back(downlink::make_compressed_hdu(image));
  const auto frame = downlink::protect_frame(file.serialize());
  fault::MessageFaultConfig link;
  link.corrupt_prob = 1.0;
  link.corrupt_gamma0 = 0.002;
  const fault::MessageFaultModel model(link);
  for (std::size_t round = 0; round < 8; ++round) {
    auto damaged = frame;
    if (round % 2 == 0) {
      (void)model.corrupt(damaged, rng);
    } else {
      const std::size_t flips = 2 + rng.below(16);
      for (std::size_t f = 0; f < flips; ++f) {
        const std::size_t bit = rng.below(damaged.size() * 8);
        damaged[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      }
    }
    if (rng.bernoulli(0.25)) damaged.resize(rng.below(damaged.size() + 1));
    try {
      const auto received = receive_frame(damaged);
      if (received && *received != image) {
        return property_failed(format_detail(
            "mangled frame decoded to a wrong image (round %zu)", round));
      }
    } catch (const fits::FitsError&) {
      // A recovered-but-damaged payload may still fail structurally; the
      // contract only forbids a silently wrong product.
    }
  }
  return {};
}

}  // namespace spacefts::check
