#include "spacefts/campaign/drift.hpp"

#include <cstdio>
#include <stdexcept>

#include "spacefts/common/random.hpp"
#include "spacefts/control/bank.hpp"
#include "spacefts/serve/router.hpp"
#include "spacefts/serve/server.hpp"
#include "spacefts/telemetry/jsonl.hpp"
#include "sweep.hpp"

namespace spacefts::campaign {
namespace {

using telemetry::jsonl::append_fmt;

/// Sub-stream tag of the per-request dataset seeds (fixed forever so a
/// committed BENCH_control.json stays reproducible).
constexpr std::uint64_t kStreamDrift = 7;
/// Dist workers inside each request's pipeline.
constexpr std::size_t kPipelineWorkers = 2;

void validate(const DriftConfig& cfg) {
  std::vector<double> phase_gamma0;
  for (const DriftPhase& phase : cfg.phases) {
    if (phase.requests == 0) {
      throw std::invalid_argument("drift: phase with zero requests");
    }
    phase_gamma0.push_back(phase.gamma0);
  }
  check_axis(phase_gamma0, "drift", "phase gamma0", 0.0, 1.0);
  check_axis(cfg.lambda_grid, "drift", "lambda", 0.0, 100.0);
  if (cfg.workers == 0) {
    throw std::invalid_argument(
        "drift: workers must be > 0 (the admission gate needs a running "
        "worker to make fold progress)");
  }
  if (cfg.frames < 3) {
    throw std::invalid_argument("drift: NGST jobs need >= 3 frames");
  }
  if (cfg.fragment_side == 0 || cfg.side % cfg.fragment_side != 0) {
    throw std::invalid_argument(
        "drift: side must be a multiple of fragment_side");
  }
  for (const auto& [shard, after] : cfg.shard_kills) {
    (void)after;
    if (cfg.shards == 0 || shard >= cfg.shards) {
      throw std::invalid_argument("drift: shard kill index out of range");
    }
  }
  control::validate_config(cfg.control);
}

/// The identical request list every arm replays; only job.lambda differs
/// between arms (and the adaptive arm's tuner overrides it anyway).
std::vector<serve::Request> build_requests(const DriftConfig& cfg,
                                           double lambda) {
  std::vector<serve::Request> requests;
  std::uint64_t id = 0;
  for (const DriftPhase& phase : cfg.phases) {
    for (std::size_t i = 0; i < phase.requests; ++i, ++id) {
      serve::Request req;
      req.id = id;
      req.stream = cfg.streams > 0 ? 1 + (id % cfg.streams) : 0;
      req.priority = 0;
      // No wall deadline: expiry would make statuses depend on scheduling
      // luck and break the byte-identical decision log.  Deadline pressure
      // is judged in virtual time instead.
      req.deadline_ms = 0.0;
      serve::JobSpec& job = req.job;
      job.kind = serve::JobKind::kNgst;
      job.side = cfg.side;
      job.frames = cfg.frames;
      job.lambda = lambda;
      job.seed = common::derive_stream_seed(cfg.seed, kStreamDrift, id);
      job.run_pipeline = true;
      job.gamma0 = phase.gamma0;
      job.link_loss = 0.0;
      requests.push_back(req);
    }
  }
  return requests;
}

struct ArmRun {
  std::vector<serve::RequestResult> results;
  std::vector<control::Decision> decisions;
};

ArmRun run_arm(const DriftConfig& cfg,
               const std::vector<serve::Request>& requests, bool adaptive) {
  control::ControllerBank bank(cfg.control);

  serve::ServerConfig sc;
  sc.capacity = requests.size() + 1;  // never reject: sheds are not folded
  sc.workers = cfg.workers;
  sc.max_batch = cfg.max_batch;
  sc.exec.fragment_side = cfg.fragment_side;
  sc.exec.pipeline_workers = kPipelineWorkers;
  if (adaptive) {
    sc.exec.tuner = [&bank](const serve::Request& r) {
      return bank.point(r.id);
    };
    sc.on_result = [&bank](const serve::RequestResult& r) {
      bank.observe(r);
    };
  }

  // One submission path for both tiers: the Server and the Router share
  // the submit / wait_idle / drain / take_results surface.
  ArmRun run;
  const auto fly = [&](auto& tier) {
    for (const serve::Request& req : requests) {
      if (adaptive) (void)bank.admit(req);
      (void)tier.submit(req);
    }
    tier.wait_idle();
    tier.drain();
    run.results = tier.take_results();
  };
  if (cfg.shards > 0) {
    serve::RouterConfig rc;
    rc.shards = cfg.shards;
    rc.shard = sc;
    // The router clears the shard-level observer and calls its own exactly
    // once per request, replays included.
    rc.on_result = sc.on_result;
    serve::Router router(rc);
    for (const auto& [shard, after] : cfg.shard_kills) {
      router.schedule_kill(shard, after);
    }
    fly(router);
  } else {
    serve::Server server(sc);
    fly(server);
  }
  if (adaptive) run.decisions = bank.decisions();
  return run;
}

DriftArm aggregate(const DriftConfig& cfg, std::string name, bool adaptive,
                   double fixed_lambda, const std::vector<double>& gamma_of,
                   const ArmRun& run) {
  DriftArm arm;
  arm.name = std::move(name);
  arm.adaptive = adaptive;
  arm.fixed_lambda = fixed_lambda;
  arm.requests = run.results.size();

  const std::size_t pixels = cfg.side * cfg.side * cfg.frames;
  double cost_sum = 0.0;
  for (const serve::RequestResult& r : run.results) {
    if (r.status == serve::ServeStatus::kOk) ++arm.completed;
    const bool faulty = r.id < gamma_of.size() && gamma_of[r.id] > 0.0;
    (faulty ? arm.corrected_faulty : arm.corrected_clean) +=
        r.pixels_corrected;
    arm.bits_corrected += r.bits_corrected;
    arm.vetoed += r.pixels_vetoed;
    core::OperatingPoint point;
    point.lambda = r.lambda_eff;
    point.upsilon = r.upsilon_eff;
    const double cost = control::virtual_cost_ms(pixels, point);
    cost_sum += cost;
    if (cost > cfg.control.deadline_budget_ms) ++arm.virtual_misses;
  }
  arm.science = static_cast<double>(arm.corrected_faulty) -
                static_cast<double>(arm.corrected_clean);
  if (arm.requests > 0) {
    arm.virtual_cost_ms_mean = cost_sum / static_cast<double>(arm.requests);
    arm.virtual_compliance =
        1.0 - static_cast<double>(arm.virtual_misses) /
                  static_cast<double>(arm.requests);
  }

  arm.decisions = run.decisions.size();
  for (const control::Decision& d : run.decisions) {
    switch (d.action) {
      case control::Action::kRaise:
        ++arm.raises;
        break;
      case control::Action::kRelax:
        ++arm.relaxes;
        break;
      case control::Action::kShedPrecision:
        ++arm.sheds;
        break;
      case control::Action::kHold:
        break;
    }
  }
  return arm;
}

}  // namespace

DriftReport run_drift(const DriftConfig& config) {
  validate(config);

  // id -> the Γ₀ climate the request was issued under.
  std::vector<double> gamma_of;
  for (const DriftPhase& phase : config.phases) {
    gamma_of.insert(gamma_of.end(), phase.requests, phase.gamma0);
  }

  DriftReport report;
  // Flies one arm over the shared request list; returns its decision log.
  const auto fly_arm = [&](std::string name, bool adaptive, double lambda) {
    const ArmRun run =
        run_arm(config, build_requests(config, lambda), adaptive);
    report.arms.push_back(aggregate(config, std::move(name), adaptive,
                                    adaptive ? 0.0 : lambda, gamma_of, run));
    return run.decisions;
  };
  report.decisions_jsonl = control::decisions_to_jsonl(
      fly_arm("adaptive", true, control::kLambdaInitial));
  for (const double lambda : config.lambda_grid) {
    char name[32];
    std::snprintf(name, sizeof name, "lambda=%.10g", lambda);
    fly_arm(name, false, lambda);
  }
  return report;
}

std::string to_jsonl(const DriftReport& report) {
  std::string out;
  for (const DriftArm& a : report.arms) {
    out += "{\"bench\":\"control_drift\",\"arm\":\"" + a.name + "\"";
    out += ",\"adaptive\":";
    out += a.adaptive ? "true" : "false";
    append_fmt(out, ",\"fixed_lambda\":%.10g", a.fixed_lambda);
    out += ",\"requests\":" + std::to_string(a.requests);
    out += ",\"completed\":" + std::to_string(a.completed);
    out += ",\"corrected_faulty\":" + std::to_string(a.corrected_faulty);
    out += ",\"corrected_clean\":" + std::to_string(a.corrected_clean);
    out += ",\"bits_corrected\":" + std::to_string(a.bits_corrected);
    out += ",\"vetoed\":" + std::to_string(a.vetoed);
    append_fmt(out, ",\"science\":%.10g", a.science);
    append_fmt(out, ",\"virtual_cost_ms_mean\":%.10g", a.virtual_cost_ms_mean);
    out += ",\"virtual_misses\":" + std::to_string(a.virtual_misses);
    append_fmt(out, ",\"virtual_compliance\":%.10g", a.virtual_compliance);
    out += ",\"decisions\":" + std::to_string(a.decisions);
    out += ",\"raises\":" + std::to_string(a.raises);
    out += ",\"relaxes\":" + std::to_string(a.relaxes);
    out += ",\"sheds\":" + std::to_string(a.sheds);
    out += "}\n";
  }
  out += report.decisions_jsonl;
  return out;
}

std::size_t enforce_drift(const DriftReport& report,
                          std::string& diagnostics) {
  if (report.arms.empty() || !report.arms.front().adaptive) {
    diagnostics += "drift: report has no adaptive arm\n";
    return 1;
  }
  std::size_t violations = 0;
  const DriftArm& ctl = report.arms.front();
  char line[160];
  for (const DriftArm& arm : report.arms) {
    if (arm.completed != arm.requests) {
      std::snprintf(line, sizeof line,
                    "drift: arm %s completed %zu of %zu requests\n",
                    arm.name.c_str(), arm.completed, arm.requests);
      diagnostics += line;
      ++violations;
    }
  }
  for (const DriftArm& arm : report.arms) {
    if (arm.adaptive) continue;
    if (ctl.science < arm.science) {
      std::snprintf(line, sizeof line,
                    "drift: %s beats adaptive on science (%.10g > %.10g)\n",
                    arm.name.c_str(), arm.science, ctl.science);
      diagnostics += line;
      ++violations;
    }
    if (ctl.virtual_compliance < arm.virtual_compliance) {
      std::snprintf(
          line, sizeof line,
          "drift: %s beats adaptive on compliance (%.10g > %.10g)\n",
          arm.name.c_str(), arm.virtual_compliance, ctl.virtual_compliance);
      diagnostics += line;
      ++violations;
    }
  }
  return violations;
}

}  // namespace spacefts::campaign
