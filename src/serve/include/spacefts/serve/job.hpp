/// \file job.hpp
/// Job execution: one request through the instrument stack.
///
/// This is where the serving layer meets the paper's machinery.  A batch is
/// a set of requests agreeing on (kind, side, frames, Λ), taken in one
/// dequeue, but it shares no work: Server::execute_batch runs each member
/// through its own execute_job, with its own ingest guard or Algo_OTIS
/// (DESIGN.md §10).  Execution is a pure function of each request's JobSpec
/// (datasets and fault streams are derived from the request seed via
/// common::derive_stream_seed), which makes every product bit-identical to
/// the single-request path regardless of batching, worker count, or load.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "spacefts/backend/backend.hpp"
#include "spacefts/core/kernel.hpp"
#include "spacefts/core/sensitivity.hpp"
#include "spacefts/fault/message_faults.hpp"
#include "spacefts/serve/queue.hpp"
#include "spacefts/serve/request.hpp"

namespace spacefts::serve {

/// Base of the per-request ingress fault streams: the server's admission
/// draw and the payload-corruption pattern both derive from it.
inline constexpr std::uint64_t kIngressSeed = 0x5e12e;

/// Server-wide execution knobs shared by every batch.  Each request's
/// preprocessing runs serially; parallelism comes from the worker pool.
struct ExecContext {
  /// Voter kernel for every preprocessing stage (NGST ingest, pipeline,
  /// OTIS planes).  kAuto resolves to the widest the host supports;
  /// results are bit-identical for every choice.
  core::Kernel kernel = core::Kernel::kAuto;
  /// Shape of the dist pipeline for run_pipeline jobs.
  std::size_t pipeline_workers = 4;
  std::size_t fragment_side = 16;
  /// Ingress link model (drop is applied at admission by the server;
  /// corruption is applied here, to the packed request payload).
  fault::MessageFaultConfig ingress{};
  /// Adaptive-sensitivity hook (src/control): when set, resolves the
  /// operating point (Λ, Υ, batch ceiling) each request runs at, overriding
  /// the JobSpec's Λ and the algorithms' default Υ.  Called at batch
  /// formation (for the batch hint) and again right before compute; both
  /// calls must be pure in the request id — a replayed request resolves the
  /// same point on any shard, which keeps results byte-identical across
  /// topologies.  Υ is clamped to the job's frame budget; Λ is validated
  /// like any JobSpec Λ.  A throwing tuner fails the request (kFailed).
  std::function<core::OperatingPoint(const Request&)> tuner;
  /// Compute backend every preprocessing stage executes on (NGST ingest,
  /// pipeline fragments, OTIS planes); null = inline CPU compute, exactly
  /// the pre-backend service.  Shared because one instance serves every
  /// shard's workers concurrently — backends are thread-safe by contract.
  /// Fault and shadow streams inside derive from (request id, epoch), so
  /// results stay byte-identical across threads, shards, and replays:
  /// serve main compute uses epoch 0, pipeline fragment i uses epoch 1+i.
  std::shared_ptr<backend::Backend> backend;
};

/// Validates a JobSpec against the context.
/// \throws std::invalid_argument with a message naming the offending field.
void validate_job(const JobSpec& job, const ExecContext& ctx);

/// Executes one request.  `corrupt_ingress` marks a payload the ingress
/// link corrupted in transit (decided by the server's admission sampling);
/// the corruption pattern itself is drawn from the request's derived fault
/// stream, so it is replayable.  Never throws: execution errors come back
/// as status kFailed.  Timing fields are left zeroed (the server owns the
/// clocks).
[[nodiscard]] RequestResult execute_job(const Request& request,
                                        bool corrupt_ingress,
                                        const ExecContext& ctx);

/// The shape key a request batches under.
[[nodiscard]] ShapeKey shape_of(const JobSpec& job) noexcept;

}  // namespace spacefts::serve
