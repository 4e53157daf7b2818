#include "spacefts/serve/workload.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "spacefts/common/random.hpp"
#include "spacefts/telemetry/jsonl.hpp"

namespace spacefts::serve {
namespace jsonl = telemetry::jsonl;
namespace {

/// Sub-stream indices of the generator's derived streams (documented so a
/// committed workload file can be re-derived forever).
enum WorkloadStream : std::uint64_t {
  kStreamArrival = 0,
  kStreamMix = 1,
  kStreamDataset = 2,
};

}  // namespace

std::vector<WorkloadItem> generate_workload(const WorkloadSpec& spec) {
  if (spec.requests == 0) {
    throw std::invalid_argument("workload: requests must be > 0");
  }
  if (!(spec.rate_hz > 0.0)) {
    throw std::invalid_argument("workload: rate_hz must be > 0");
  }
  for (const double f : {spec.otis_fraction, spec.pipeline_fraction,
                         spec.telemetry_fraction}) {
    if (!(f >= 0.0 && f <= 1.0)) {
      throw std::invalid_argument("workload: fraction outside [0, 1]");
    }
  }
  if (spec.priority_levels <= 0) {
    throw std::invalid_argument("workload: priority_levels must be > 0");
  }

  std::vector<WorkloadItem> items;
  items.reserve(spec.requests);
  common::Rng arrivals(
      common::derive_stream_seed(spec.seed, kStreamArrival, 0));
  double clock_s = 0.0;
  for (std::size_t i = 0; i < spec.requests; ++i) {
    // Exponential inter-arrival gap: open-loop Poisson process.
    clock_s += -std::log1p(-arrivals.uniform()) / spec.rate_hz;

    common::Rng mix(common::derive_stream_seed(spec.seed, kStreamMix, i));
    WorkloadItem item;
    item.arrival_s = clock_s;
    Request& req = item.request;
    req.id = i;
    // Stream ids start at 1 so 0 keeps meaning "no affinity" in the wire
    // format (and for hand-written workload files omitting the field).
    req.stream = spec.streams > 0 ? 1 + (i % spec.streams) : 0;
    req.priority = static_cast<int>(
        mix.below(static_cast<std::uint64_t>(spec.priority_levels)));
    req.deadline_ms = spec.deadline_ms;
    JobSpec& job = req.job;
    job.lambda = spec.lambda;
    job.seed = common::derive_stream_seed(spec.seed, kStreamDataset, i);
    // The telemetry draw is consumed only when the fraction is positive:
    // Rng::bernoulli always advances the stream, and older committed
    // workload files must keep regenerating bit-identically at 0.
    if (spec.telemetry_fraction > 0.0 &&
        mix.bernoulli(spec.telemetry_fraction)) {
      job.kind = JobKind::kTelemetry;
      job.side = spec.telemetry_channels;
      job.frames = spec.telemetry_samples;
    } else if (mix.bernoulli(spec.otis_fraction)) {
      job.kind = JobKind::kOtis;
      job.side = spec.otis_side;
      job.frames = spec.otis_bands;
    } else {
      job.kind = JobKind::kNgst;
      job.side = spec.ngst_side;
      job.frames = spec.ngst_frames;
      if (mix.bernoulli(spec.pipeline_fraction)) {
        job.run_pipeline = true;
        job.gamma0 = spec.gamma0;
        job.link_loss = spec.link_loss;
      }
    }
    items.push_back(std::move(item));
  }
  return items;
}

/// The replay line of one request.  `stream` and the pipeline knobs are
/// optional: workload files written before they existed still replay, at
/// the defaults.
template <jsonl::RowOf<WorkloadItem> Item, typename Visit>
void fields(Item& item, Visit&& visit) {
  auto& req = item.request;
  auto& job = req.job;
  visit("id", req.id);
  visit("stream", req.stream, jsonl::kOptional);
  visit("arrival_s", item.arrival_s);
  visit("kind", job.kind);
  visit("side", job.side, jsonl::kNonZero);
  visit("frames", job.frames, jsonl::kNonZero);
  visit("lambda", job.lambda);
  visit("seed", job.seed);
  visit("priority", req.priority);
  visit("deadline_ms", req.deadline_ms);
  visit("run_pipeline", job.run_pipeline, jsonl::kOptional);
  visit("gamma0", job.gamma0, jsonl::kOptional);
  visit("link_loss", job.link_loss, jsonl::kOptional);
}

/// The deterministic result line.  The applied operating point
/// (lambda_eff, upsilon_eff) stays in the payload, before the kernel/shard
/// metadata the CI cross-topology compare strips.
template <typename Visit>
void fields(const RequestResult& r, Visit&& visit) {
  visit("id", r.id);
  visit("kind", r.kind);
  visit("status", r.status);
  visit("checksum", r.checksum);
  visit("pixels_corrected", r.pixels_corrected);
  visit("bits_corrected", r.bits_corrected);
  visit("pixels_vetoed", r.pixels_vetoed);
  visit("ingress_bits", r.ingress_bits_corrupted);
  visit("coverage", r.coverage);
  visit("lambda_eff", r.lambda_eff);
  visit("upsilon_eff", r.upsilon_eff);
  visit("kernel", core::kernel_name(r.kernel));
  visit("shard", r.shard);
  visit("backend", r.backend != nullptr ? r.backend : "cpu");
}

std::string to_jsonl(const std::vector<WorkloadItem>& items) {
  return jsonl::to_lines(items);
}

std::vector<WorkloadItem> parse_workload_jsonl(std::string_view text) {
  return jsonl::parse_lines<WorkloadItem>(text, "workload");
}

std::string results_to_jsonl(std::vector<RequestResult> results) {
  std::sort(results.begin(), results.end(),
            [](const RequestResult& a, const RequestResult& b) {
              return a.id < b.id;
            });
  return jsonl::to_lines(results);
}

}  // namespace spacefts::serve
