#include "spacefts/serve/workload.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "spacefts/common/random.hpp"
#include "spacefts/telemetry/jsonl.hpp"

namespace spacefts::serve {
namespace {

using telemetry::jsonl::append_fmt;
using telemetry::jsonl::find_number;
using telemetry::jsonl::find_token;
using telemetry::jsonl::find_u64;

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

std::string to_jsonl(const std::vector<WorkloadItem>& items) {
  std::string out;
  out.reserve(items.size() * 192);
  for (const WorkloadItem& item : items) {
    const Request& req = item.request;
    const JobSpec& job = req.job;
    out += "{\"id\":" + std::to_string(req.id);
    out += ",\"stream\":" + std::to_string(req.stream);
    append_fmt(out, ",\"arrival_s\":%.10g", item.arrival_s);
    out += ",\"kind\":\"";
    out += to_string(job.kind);
    out += "\",\"side\":" + std::to_string(job.side);
    out += ",\"frames\":" + std::to_string(job.frames);
    append_fmt(out, ",\"lambda\":%.10g", job.lambda);
    out += ",\"seed\":" + std::to_string(job.seed);
    out += ",\"priority\":" + std::to_string(req.priority);
    append_fmt(out, ",\"deadline_ms\":%.10g", req.deadline_ms);
    out += ",\"run_pipeline\":";
    out += job.run_pipeline ? "true" : "false";
    append_fmt(out, ",\"gamma0\":%.10g", job.gamma0);
    append_fmt(out, ",\"link_loss\":%.10g", job.link_loss);
    out += "}\n";
  }
  return out;
}

std::vector<WorkloadItem> parse_workload_jsonl(std::string_view text) {
  std::vector<WorkloadItem> items;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const auto eol = text.find('\n', pos);
    const auto line = text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    pos = eol == std::string_view::npos ? text.size() : eol + 1;
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) continue;

    const auto fail = [&](const char* what) -> std::vector<WorkloadItem> {
      throw std::runtime_error("workload line " + std::to_string(line_no) +
                               ": " + what);
    };
    WorkloadItem item;
    Request& req = item.request;
    JobSpec& job = req.job;
    double value = 0.0;
    std::string token;

    if (!find_u64(line, "id", req.id)) fail("bad id");
    // Optional for workload files committed before stream affinity existed.
    if (!find_u64(line, "stream", req.stream)) req.stream = 0;
    if (!find_number(line, "arrival_s", item.arrival_s)) fail("bad arrival_s");
    if (!find_token(line, "kind", token)) fail("missing kind");
    if (token == "\"ngst\"") {
      job.kind = JobKind::kNgst;
    } else if (token == "\"otis\"") {
      job.kind = JobKind::kOtis;
    } else if (token == "\"telemetry\"") {
      job.kind = JobKind::kTelemetry;
    } else {
      fail("unknown kind");
    }
    if (!find_number(line, "side", value) || value <= 0) fail("bad side");
    job.side = static_cast<std::size_t>(value);
    if (!find_number(line, "frames", value) || value <= 0) fail("bad frames");
    job.frames = static_cast<std::size_t>(value);
    if (!find_number(line, "lambda", job.lambda)) fail("bad lambda");
    if (!find_u64(line, "seed", job.seed)) fail("bad seed");
    if (!find_number(line, "priority", value)) fail("bad priority");
    req.priority = static_cast<int>(value);
    if (!find_number(line, "deadline_ms", req.deadline_ms)) {
      fail("bad deadline_ms");
    }
    if (find_token(line, "run_pipeline", token)) {
      if (token != "true" && token != "false") fail("bad run_pipeline");
      job.run_pipeline = token == "true";
    }
    if (!find_number(line, "gamma0", job.gamma0)) job.gamma0 = 0.0;
    if (!find_number(line, "link_loss", job.link_loss)) job.link_loss = 0.0;
    items.push_back(std::move(item));
  }
  return items;
}

std::string results_to_jsonl(std::vector<RequestResult> results) {
  std::sort(results.begin(), results.end(),
            [](const RequestResult& a, const RequestResult& b) {
              return a.id < b.id;
            });
  std::string out;
  out.reserve(results.size() * 128);
  for (const RequestResult& r : results) {
    out += "{\"id\":" + std::to_string(r.id);
    out += ",\"kind\":\"";
    out += to_string(r.kind);
    out += "\",\"status\":\"";
    out += to_string(r.status);
    out += "\",\"checksum\":" + std::to_string(r.checksum);
    out += ",\"pixels_corrected\":" + std::to_string(r.pixels_corrected);
    out += ",\"bits_corrected\":" + std::to_string(r.bits_corrected);
    out += ",\"pixels_vetoed\":" + std::to_string(r.pixels_vetoed);
    out += ",\"ingress_bits\":" + std::to_string(r.ingress_bits_corrupted);
    append_fmt(out, ",\"coverage\":%.10g", r.coverage);
    // Applied operating point: JobSpec values unless a controller retuned
    // them — deterministic either way, so it stays in the payload section
    // (before the kernel/shard metadata the CI cross-topology compare
    // strips).
    append_fmt(out, ",\"lambda_eff\":%.10g", r.lambda_eff);
    out += ",\"upsilon_eff\":" + std::to_string(r.upsilon_eff);
    out += ",\"kernel\":\"";
    out += core::kernel_name(r.kernel);
    out += "\",\"shard\":" + std::to_string(r.shard);
    out += ",\"backend\":\"";
    out += r.backend != nullptr ? r.backend : "cpu";
    out += "\"}\n";
  }
  return out;
}

}  // namespace spacefts::serve
