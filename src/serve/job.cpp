#include "spacefts/serve/job.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>

#include "spacefts/common/random.hpp"
#include "spacefts/core/algo_otis.hpp"
#include "spacefts/datagen/ngst.hpp"
#include "spacefts/datagen/otis_scenes.hpp"
#include "spacefts/datagen/telemetry.hpp"
#include "spacefts/dist/pipeline.hpp"
#include "spacefts/edac/crc32.hpp"
#include "spacefts/fault/message_faults.hpp"
#include "spacefts/ingest/guard.hpp"
#include "spacefts/telemetry/telemetry.hpp"

namespace spacefts::serve {
namespace {

/// Sub-stream indices of a request's derived fault/compute streams.  Fixed
/// and documented so replays stay stable across refactors.
enum StreamIndex : std::uint64_t {
  kStreamIngress = 1,   ///< ingress payload corruption pattern
  kStreamPipeline = 2,  ///< dist pipeline memory/link fault stream
};

template <typename T, std::size_t N>
std::span<const std::uint8_t> byte_view(std::span<T, N> values) {
  return {reinterpret_cast<const std::uint8_t*>(values.data()),
          values.size() * sizeof(T)};
}

template <typename T, std::size_t N>
std::span<std::uint8_t> writable_byte_view(std::span<T, N> values) {
  return {reinterpret_cast<std::uint8_t*>(values.data()),
          values.size() * sizeof(T)};
}

/// Resolves the sensitivity/voter point this request runs at.  Without a
/// tuner the point mirrors the JobSpec's Λ and the algorithms' default Υ
/// exactly, so the untuned path is bit-identical to the pre-controller
/// service.  A tuned Υ is clamped per instrument: NGST to the largest even
/// count the job's frames can pair (Υ/2 forward + Υ/2 backward neighbours
/// need Υ < frames), OTIS to its discrete neighbourhoods {2, 4, 8}.
core::OperatingPoint resolve_point(const Request& request,
                                   const ExecContext& ctx,
                                   std::size_t default_upsilon) {
  core::OperatingPoint point;
  point.lambda = request.job.lambda;
  point.upsilon = default_upsilon;
  if (!ctx.tuner) return point;
  point = ctx.tuner(request);
  if (request.job.kind != JobKind::kOtis) {
    // NGST and telemetry both run the temporal voter: Υ is bounded by the
    // job's frame (sample) count, not the OTIS spatial neighbourhoods.
    std::size_t cap = request.job.frames > 0 ? request.job.frames - 1 : 2;
    cap -= cap % 2;
    point.upsilon = std::clamp<std::size_t>(point.upsilon, 2,
                                            std::max<std::size_t>(cap, 2));
  } else {
    point.upsilon = point.upsilon >= 8 ? 8 : point.upsilon >= 4 ? 4 : 2;
  }
  return point;
}

/// The transit leg: flips \p bytes (headers included — the sanity layer
/// exists precisely to repair those) with the request's own replayable
/// fault stream.
void corrupt_in_transit(std::span<std::uint8_t> bytes, const Request& request,
                        const ExecContext& ctx, RequestResult& result) {
  const fault::MessageFaultModel link(ctx.ingress);
  common::Rng fault_rng(
      common::derive_stream_seed(kIngressSeed, request.id, kStreamIngress));
  result.ingress_bits_corrupted = link.corrupt(bytes, fault_rng);
}

/// The temporal path NGST images and telemetry banks share: pack the
/// synthesised \p stack, corrupt it in transit, and ingest it through the
/// guard, which expects BITPIX 16 readouts of job.side x \p height and
/// routes the voter through the compute backend when there is one.  Fills
/// \p result's operating point and counters, and its checksum with the
/// CRC-32 of the ingested voxels.  Returns the ingested stack, or nullopt
/// once \p result records the failure.
std::optional<common::TemporalStack<std::uint16_t>> run_temporal(
    const Request& request, bool corrupt_ingress, const ExecContext& ctx,
    const common::TemporalStack<std::uint16_t>& stack, std::size_t height,
    RequestResult& result) {
  auto payload = ingest::IngestGuard::pack(stack);
  if (corrupt_ingress) corrupt_in_transit(payload, request, ctx, result);

  ingest::IngestConfig ic;
  ic.expectation.bitpix = 16;
  ic.expectation.width = static_cast<std::int64_t>(request.job.side);
  ic.expectation.height = static_cast<std::int64_t>(height);
  const core::OperatingPoint point =
      resolve_point(request, ctx, ic.algo.upsilon);
  ic.algo.lambda = point.lambda;
  ic.algo.upsilon = point.upsilon;
  ic.algo.kernel = ctx.kernel;
  result.lambda_eff = point.lambda;
  result.upsilon_eff = point.upsilon;
  if (ctx.backend) {
    // Main serve compute runs as epoch 0 of the request's backend stream
    // (pipeline fragments get epochs 1+i) — fixed so fault plans and
    // shadow samples replay identically on any shard or thread count.
    ic.executor = [&ctx, &request, &result](
                      common::TemporalStack<std::uint16_t>& stack,
                      const core::AlgoNgstConfig& algo) {
      backend::ComputeOutcome outcome;
      auto report = ctx.backend->preprocess(
          stack, algo, backend::ComputeMeta{request.id, 0}, &outcome);
      result.backend_mismatch |= outcome.shadow_mismatch;
      return report;
    };
  }
  const ingest::IngestGuard guard(ic);
  auto ingested = guard.ingest(payload);
  if (!ingested.ok) {
    result.status = ServeStatus::kFailed;
    result.error = "ingest: " + ingested.error;
    return std::nullopt;
  }
  result.pixels_corrected = ingested.preprocess.pixels_corrected;
  result.bits_corrected = ingested.preprocess.bits_corrected;
  result.pixels_vetoed = ingested.preprocess.pixels_vetoed;
  result.checksum = edac::crc32(byte_view(ingested.stack.cube().voxels()));
  result.status = ServeStatus::kOk;
  return std::move(ingested.stack);
}

void execute_ngst(const Request& request, bool corrupt_ingress,
                  const ExecContext& ctx, RequestResult& result) {
  const JobSpec& job = request.job;
  datagen::NgstSimulator sim(job.seed);
  datagen::SceneParams scene;
  scene.width = job.side;
  scene.height = job.side;
  const auto stack = run_temporal(request, corrupt_ingress, ctx,
                                  sim.stack(job.frames, scene), job.side,
                                  result);
  if (!stack || !job.run_pipeline) return;

  dist::PipelineConfig pc;
  pc.workers = ctx.pipeline_workers;
  pc.fragment_side = ctx.fragment_side;
  pc.gamma0 = job.gamma0;
  pc.worker_crash_prob = 0.0;
  pc.link.faults = fault::link_loss_faults(job.link_loss);
  pc.algo.lambda = result.lambda_eff;
  pc.algo.upsilon = result.upsilon_eff;
  pc.algo.kernel = ctx.kernel;
  if (ctx.backend) {
    pc.ngst_executor = [&ctx, &request, &result](
                           common::TemporalStack<std::uint16_t>& tile,
                           const core::AlgoNgstConfig& algo,
                           std::size_t fragment) {
      backend::ComputeOutcome outcome;
      auto report = ctx.backend->preprocess(
          tile, algo, backend::ComputeMeta{request.id, 1 + fragment},
          &outcome);
      result.backend_mismatch |= outcome.shadow_mismatch;
      return report;
    };
  }
  common::Rng pipeline_rng(
      common::derive_stream_seed(job.seed, request.id, kStreamPipeline));
  const auto pipeline = dist::run_pipeline(*stack, pc, pipeline_rng);
  result.coverage = pipeline.coverage;
  result.pixels_corrected += pipeline.pixels_corrected;
  result.checksum =
      edac::crc32(byte_view(pipeline.flux.pixels()), result.checksum);
}

/// The 1D workload: a telemetry channel bank is a 1-row temporal stack
/// (width = channels, height = 1, frames = samples), so it rides the exact
/// NGST path with only the dataset generator and the expected height
/// changing.
void execute_telemetry(const Request& request, bool corrupt_ingress,
                       const ExecContext& ctx, RequestResult& result) {
  datagen::TelemetrySimulator sim(request.job.seed);
  datagen::TelemetryParams params;
  params.channels = request.job.side;
  params.samples = request.job.frames;
  (void)run_temporal(request, corrupt_ingress, ctx, sim.stack(params), 1,
                     result);
}

void execute_otis(const Request& request, bool corrupt_ingress,
                  const ExecContext& ctx, RequestResult& result) {
  const JobSpec& job = request.job;
  datagen::OtisSceneGenerator gen(job.seed);
  datagen::OtisSceneParams params;
  params.width = job.side;
  params.height = job.side;
  params.bands = job.frames;
  // The morphology rotates with the seed so a mixed workload covers the
  // paper's whole gamut (Blob / Stripe / Spots).
  const auto kind = static_cast<datagen::OtisSceneKind>(job.seed % 3);
  auto scene = gen.generate(kind, params);
  if (corrupt_ingress) {
    corrupt_in_transit(writable_byte_view(scene.radiance.voxels()), request,
                       ctx, result);
  }

  core::AlgoOtisConfig oc;
  const core::OperatingPoint point = resolve_point(request, ctx, oc.upsilon);
  oc.lambda = point.lambda;
  oc.upsilon = point.upsilon;
  oc.kernel = ctx.kernel;
  result.lambda_eff = point.lambda;
  result.upsilon_eff = point.upsilon;
  core::AlgoOtisReport report;
  if (ctx.backend) {
    backend::ComputeOutcome outcome;
    report = ctx.backend->preprocess(scene.radiance, scene.wavelengths_um, oc,
                                     backend::ComputeMeta{request.id, 0},
                                     &outcome);
    result.backend_mismatch |= outcome.shadow_mismatch;
  } else {
    const core::AlgoOtis algo(oc);
    report = algo.preprocess(scene.radiance, scene.wavelengths_um);
  }
  result.pixels_corrected = report.bit_corrected + report.median_replaced;
  result.bits_corrected = report.bit_corrected;
  // The trend test is OTIS's false-alarm averter: natural exceptions it
  // protects are the spatial analogue of the NGST gate's vetoed pixels.
  result.pixels_vetoed = report.trend_protected;
  result.checksum = edac::crc32(byte_view(scene.radiance.voxels()));
  result.status = ServeStatus::kOk;
}

}  // namespace

void validate_job(const JobSpec& job, const ExecContext& ctx) {
  if (job.side == 0) throw std::invalid_argument("serve: job side must be > 0");
  if (job.kind == JobKind::kNgst && job.frames < 3) {
    throw std::invalid_argument(
        "serve: NGST jobs need >= 3 readouts (temporal voting)");
  }
  if (job.kind == JobKind::kOtis && job.frames == 0) {
    throw std::invalid_argument("serve: OTIS jobs need >= 1 band");
  }
  if (job.kind == JobKind::kTelemetry && job.frames < 3) {
    throw std::invalid_argument(
        "serve: telemetry jobs need >= 3 samples (temporal voting)");
  }
  if (!(job.lambda >= 0.0 && job.lambda <= 100.0)) {
    throw std::invalid_argument("serve: lambda outside [0, 100]");
  }
  if (!(job.gamma0 >= 0.0 && job.gamma0 <= 1.0) ||
      !(job.link_loss >= 0.0 && job.link_loss <= 1.0)) {
    throw std::invalid_argument("serve: fault probability outside [0, 1]");
  }
  if (job.run_pipeline) {
    if (job.kind != JobKind::kNgst) {
      throw std::invalid_argument(
          "serve: run_pipeline applies to NGST image jobs only");
    }
    if (ctx.fragment_side == 0 || job.side % ctx.fragment_side != 0) {
      throw std::invalid_argument(
          "serve: job side must be a multiple of fragment_side");
    }
  }
}

RequestResult execute_job(const Request& request, bool corrupt_ingress,
                          const ExecContext& ctx) {
  SPACEFTS_TSPAN("serve.request",
                 {"id", static_cast<double>(request.id)},
                 {"priority", static_cast<double>(request.priority)});
  try {
    RequestResult result;
    result.id = request.id;
    result.kind = request.job.kind;
    if (request.job.kind == JobKind::kNgst) {
      execute_ngst(request, corrupt_ingress, ctx, result);
    } else if (request.job.kind == JobKind::kTelemetry) {
      execute_telemetry(request, corrupt_ingress, ctx, result);
    } else {
      execute_otis(request, corrupt_ingress, ctx, result);
    }
    result.kernel = core::resolve_kernel(ctx.kernel);
    result.backend = ctx.backend ? ctx.backend->name() : "cpu";
    return result;
  } catch (const std::exception& e) {
    RequestResult result;
    result.id = request.id;
    result.kind = request.job.kind;
    result.status = ServeStatus::kFailed;
    result.error = e.what();
    return result;
  }
}

ShapeKey shape_of(const JobSpec& job) noexcept {
  return ShapeKey{job.kind, job.side, job.frames, job.lambda};
}

}  // namespace spacefts::serve
