#include "spacefts/backend/backend.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "spacefts/check/divergence.hpp"
#include "spacefts/common/random.hpp"
#include "spacefts/telemetry/jsonl.hpp"

namespace spacefts::backend {

namespace {

template <typename T>
std::span<const std::uint8_t> byte_view(std::span<T> values) noexcept {
  return {reinterpret_cast<const std::uint8_t*>(values.data()),
          values.size_bytes()};
}

void stall_for(double ms) {
  if (ms <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

// ---------------------------------------------------------------- CpuBackend

core::AlgoNgstReport CpuBackend::preprocess(
    common::TemporalStack<std::uint16_t>& stack,
    const core::AlgoNgstConfig& config, const ComputeMeta& /*meta*/,
    ComputeOutcome* /*outcome*/) {
  return core::AlgoNgst(config).preprocess(stack);
}

core::AlgoOtisReport CpuBackend::preprocess(
    common::Cube<float>& radiance, std::span<const double> wavelengths_um,
    const core::AlgoOtisConfig& config, const ComputeMeta& /*meta*/,
    ComputeOutcome* /*outcome*/) {
  return core::AlgoOtis(config).preprocess(radiance, wavelengths_um);
}

// --------------------------------------------------------- UnreliableBackend

UnreliableBackend::UnreliableBackend(std::shared_ptr<Backend> inner,
                                     const fault::ComputeFaultConfig& faults)
    : inner_(std::move(inner)), model_(faults) {
  if (!inner_) {
    throw std::invalid_argument("UnreliableBackend: null inner backend");
  }
}

core::AlgoNgstReport UnreliableBackend::preprocess(
    common::TemporalStack<std::uint16_t>& stack,
    const core::AlgoNgstConfig& config, const ComputeMeta& meta,
    ComputeOutcome* outcome) {
  auto report = inner_->preprocess(stack, config, meta, outcome);
  const auto plan = model_.plan(meta.request_id, meta.epoch);
  // The corruption lands *after* a faithful compute: the report still
  // describes a healthy run, so the only trace is in the output bytes.
  model_.corrupt(stack.cube().voxels(), stack.width(), plan);
  stall_for(plan.stall_ms);
  if (outcome != nullptr) {
    outcome->fault = plan.kind;
    outcome->stall_ms += plan.stall_ms;
  }
  return report;
}

core::AlgoOtisReport UnreliableBackend::preprocess(
    common::Cube<float>& radiance, std::span<const double> wavelengths_um,
    const core::AlgoOtisConfig& config, const ComputeMeta& meta,
    ComputeOutcome* outcome) {
  auto report = inner_->preprocess(radiance, wavelengths_um, config, meta,
                                   outcome);
  const auto plan = model_.plan(meta.request_id, meta.epoch);
  model_.corrupt(radiance.voxels(), radiance.width(), plan);
  stall_for(plan.stall_ms);
  if (outcome != nullptr) {
    outcome->fault = plan.kind;
    outcome->stall_ms += plan.stall_ms;
  }
  return report;
}

// ------------------------------------------------------------- ShadowBackend

ShadowBackend::ShadowBackend(std::shared_ptr<Backend> primary,
                             std::shared_ptr<Backend> guard,
                             const ShadowConfig& config)
    : config_(config), primary_(std::move(primary)), guard_(std::move(guard)) {
  if (!primary_ || !guard_) {
    throw std::invalid_argument("ShadowBackend: null primary or guard");
  }
  if (!(config_.shadow_rate >= 0.0 && config_.shadow_rate <= 1.0)) {
    throw std::invalid_argument("ShadowBackend: shadow_rate outside [0, 1]");
  }
}

bool ShadowBackend::sampled(std::uint64_t request,
                            std::uint64_t epoch) const noexcept {
  if (config_.shadow_rate >= 1.0) return true;
  if (config_.shadow_rate <= 0.0) return false;
  common::Rng rng(common::derive_stream_seed(config_.seed, request, epoch));
  return rng.uniform() < config_.shadow_rate;
}

core::AlgoNgstReport ShadowBackend::preprocess(
    common::TemporalStack<std::uint16_t>& stack,
    const core::AlgoNgstConfig& config, const ComputeMeta& meta,
    ComputeOutcome* outcome) {
  ShadowDecision decision{meta.request_id, meta.epoch, false, false, false};
  if (!sampled(meta.request_id, meta.epoch)) {
    record(decision);
    return primary_->preprocess(stack, config, meta, outcome);
  }
  decision.sampled = true;
  // Keep the pristine input so the guard re-executes the same computation,
  // not the primary's (possibly corrupted) output.
  common::TemporalStack<std::uint16_t> pristine = stack;
  auto report = primary_->preprocess(stack, config, meta, outcome);
  auto guard_report = guard_->preprocess(pristine, config, meta, nullptr);
  const auto diff =
      check::first_divergence(byte_view(stack.cube().voxels()),
                              byte_view(pristine.cube().voxels()));
  if (diff.has_value()) {
    decision.mismatch = true;
    decision.from_guard = true;
    stack = std::move(pristine);  // adopt the trusted re-execution
    report = guard_report;
  }
  record(decision);
  if (outcome != nullptr) {
    outcome->shadow_sampled = true;
    outcome->shadow_mismatch = decision.mismatch;
  }
  return report;
}

core::AlgoOtisReport ShadowBackend::preprocess(
    common::Cube<float>& radiance, std::span<const double> wavelengths_um,
    const core::AlgoOtisConfig& config, const ComputeMeta& meta,
    ComputeOutcome* outcome) {
  ShadowDecision decision{meta.request_id, meta.epoch, false, false, false};
  if (!sampled(meta.request_id, meta.epoch)) {
    record(decision);
    return primary_->preprocess(radiance, wavelengths_um, config, meta,
                                outcome);
  }
  decision.sampled = true;
  common::Cube<float> pristine = radiance;
  auto report =
      primary_->preprocess(radiance, wavelengths_um, config, meta, outcome);
  auto guard_report =
      guard_->preprocess(pristine, wavelengths_um, config, meta, nullptr);
  const auto diff = check::first_divergence(byte_view(radiance.voxels()),
                                            byte_view(pristine.voxels()));
  if (diff.has_value()) {
    decision.mismatch = true;
    decision.from_guard = true;
    radiance = std::move(pristine);
    report = guard_report;
  }
  record(decision);
  if (outcome != nullptr) {
    outcome->shadow_sampled = true;
    outcome->shadow_mismatch = decision.mismatch;
  }
  return report;
}

void ShadowBackend::record(const ShadowDecision& decision) {
  const std::lock_guard<std::mutex> lock(mutex_);
  log_.push_back(decision);
}

std::vector<ShadowDecision> ShadowBackend::decisions() const {
  std::vector<ShadowDecision> out;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    out = log_;
  }
  std::sort(out.begin(), out.end(),
            [](const ShadowDecision& a, const ShadowDecision& b) {
              return a.request_id != b.request_id
                         ? a.request_id < b.request_id
                         : a.epoch < b.epoch;
            });
  // Replayed requests (serve re-executes in-flight work after shard death)
  // log identical entries; collapse them so the canonical log depends only
  // on the request set, not on how often the scheduler ran each one.
  out.erase(std::unique(out.begin(), out.end(),
                        [](const ShadowDecision& a, const ShadowDecision& b) {
                          return a.request_id == b.request_id &&
                                 a.epoch == b.epoch;
                        }),
            out.end());
  return out;
}

BackendHealth ShadowBackend::health() const {
  const auto canonical = decisions();
  BackendHealth out;
  out.executed = canonical.size();
  for (const auto& d : canonical) out.sampled += d.sampled ? 1 : 0;
  out.mismatches = count_mismatches(canonical);
  out.quarantined = out.mismatches >= kQuarantineThreshold;
  return out;
}

// ------------------------------------------------------------ canonical fold

std::uint64_t count_mismatches(
    std::span<const ShadowDecision> decisions) noexcept {
  std::uint64_t n = 0;
  for (const auto& d : decisions) n += d.mismatch ? 1 : 0;
  return n;
}

ShadowDecision quarantine_after(
    std::span<const ShadowDecision> decisions) noexcept {
  std::uint64_t seen = 0;
  for (const auto& d : decisions) {
    if (d.mismatch && ++seen >= kQuarantineThreshold) return d;
  }
  constexpr auto kNone = ~std::uint64_t{0};
  return ShadowDecision{kNone, kNone, false, false, false};
}

/// The decision-log row of one shadow decision.
template <typename Visit>
void fields(const ShadowDecision& d, Visit&& visit) {
  visit("request", d.request_id);
  visit("epoch", d.epoch);
  visit("sampled", d.sampled);
  visit("mismatch", d.mismatch);
  visit("from_guard", d.from_guard);
}

std::string decisions_to_jsonl(std::span<const ShadowDecision> decisions) {
  return telemetry::jsonl::to_lines(decisions);
}

}  // namespace spacefts::backend
