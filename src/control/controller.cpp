#include "spacefts/control/controller.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "spacefts/telemetry/jsonl.hpp"

namespace spacefts::control {
namespace {

// The operating-point grid.  Level L is Λ = kLambdaMin + L·kLambdaStep.
constexpr double kLambdaMin = 45.0;       ///< floor the controller may shed to
constexpr double kLambdaMax = 95.0;       ///< ceiling it may raise to
constexpr double kLambdaStep = 10.0;      ///< bounded Λ step per decision epoch
constexpr std::size_t kUpsilonMin = 2;    ///< voter-way floor (even)
constexpr std::size_t kUpsilonInitial = 4;  ///< nominal voter ways (even)
constexpr std::size_t kUpsilonMax = 8;    ///< voter-way ceiling (even)
/// Highest Λ grid level, and the level kLambdaInitial sits on.
constexpr int kLevelCap =
    static_cast<int>((kLambdaMax - kLambdaMin) / kLambdaStep);
constexpr int kInitialLevel =
    static_cast<int>((kLambdaInitial - kLambdaMin) / kLambdaStep);
static_assert(0.0 <= kLambdaMin && kLambdaMin <= kLambdaInitial &&
                  kLambdaInitial <= kLambdaMax && kLambdaMax <= 100.0,
              "Λ bounds must satisfy 0 <= min <= initial <= max <= 100");
static_assert(kLambdaMin + kInitialLevel * kLambdaStep == kLambdaInitial,
              "the initial Λ must lie on the level grid");
static_assert(kUpsilonMin >= 2 && kUpsilonMin % 2 == 0 &&
                  kUpsilonInitial >= kUpsilonMin &&
                  kUpsilonInitial <= kUpsilonMax && kUpsilonInitial % 2 == 0,
              "Υ bounds must be even with 2 <= min <= initial <= max");

/// EWMA half-life of the windowed signals, in observations.
constexpr double kEwmaHalflife = 4.0;
static_assert(kEwmaHalflife > 0.0);
const double kEwmaAlpha = 1.0 - std::exp2(-1.0 / kEwmaHalflife);

// Signal bands: each *High > *Low pair gives hysteresis.
/// Activity is EWMA corrected *pixels* per Mpixel.  Calibration (32²×8
/// NGST jobs): clean frames run ≈1.2k–13k px/Mpix of pseudo-corrections
/// depending on Λ, while Γ₀ ≥ 0.004 drives ≥35k — the bands sit between.
constexpr double kActivityHigh = 8000.0;  ///< raise above this
constexpr double kActivityLow = 3500.0;   ///< relax toward the floor below
static_assert(0.0 <= kActivityLow && kActivityLow < kActivityHigh);
/// Veto ratio (plausibility-gate rejections / detections) above which
/// raising is blocked — the gate is already averting false alarms, so more
/// sensitivity would feed it, not science.  On clean data the gate vetoes
/// ≈95% of detections; under real faults ≈50–65%.
constexpr double kVetoCap = 0.75;
/// Veto ratio treated as a false-alarm storm: relax even if activity is
/// high, because the corrections are mostly pseudo.
constexpr double kVetoHigh = 0.80;
static_assert(0.0 <= kVetoCap && kVetoCap <= kVetoHigh && kVetoHigh <= 1.0);
/// Cost/deadline ratios: shed precision above kPressureHigh; raising is
/// re-enabled only below kPressureLow, so the band between is the pressure
/// hysteresis.
constexpr double kPressureHigh = 0.95;
constexpr double kPressureLow = 0.80;
static_assert(kPressureHigh > kPressureLow);

/// Epochs to dwell after a *downward* step (relax/shed) before another
/// one.  Raises are exempt: the loop attacks fast, decays slow.
constexpr std::size_t kHold = 1;
// Batch hints: latency-biased when idle, throughput-biased under load.
constexpr std::size_t kBatchCalm = 4;
constexpr std::size_t kBatchPressed = 8;
constexpr double kCostBaseNsPerPix = 40.0;   ///< Λ-independent per-pixel work
constexpr double kCostVoterNsPerPix = 25.0;  ///< per voter way, × B width

/// Per-pixel virtual cost of a point, in ns — pixels cancel out of the
/// pressure projection, so decide() needs no knowledge of the job shape.
double per_pixel_cost(const core::OperatingPoint& point) {
  return kCostBaseNsPerPix + kCostVoterNsPerPix *
                                 static_cast<double>(point.upsilon) *
                                 core::window_b_fraction(point.lambda);
}

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(std::string("control: ") + what);
}

}  // namespace

void validate_config(const ControlConfig& cfg) {
  require(cfg.window >= 1, "window must be >= 1");
  require(cfg.lag >= 1, "lag must be >= 1");
  require(cfg.deadline_budget_ms > 0.0 && std::isfinite(cfg.deadline_budget_ms),
          "deadline_budget_ms must be > 0");
}

const char* to_string(Action action) noexcept {
  switch (action) {
    case Action::kHold:
      return "hold";
    case Action::kRaise:
      return "raise";
    case Action::kRelax:
      return "relax";
    case Action::kShedPrecision:
      return "shed_precision";
  }
  return "hold";
}

core::OperatingPoint point_at(int level, std::size_t upsilon, bool pressed) {
  core::OperatingPoint point;
  point.lambda = std::min(
      kLambdaMin + static_cast<double>(level) * kLambdaStep, kLambdaMax);
  point.upsilon = upsilon;
  point.max_batch = pressed ? kBatchPressed : kBatchCalm;
  return point;
}

double virtual_cost_ms(std::size_t pixels, const core::OperatingPoint& point) {
  return static_cast<double>(pixels) * per_pixel_cost(point) * 1e-6;
}

core::OperatingPoint fit_budget(const ControlConfig& cfg,
                                std::size_t pixels) {
  validate_config(cfg);
  const double budget = kPressureHigh * cfg.deadline_budget_ms;
  const auto fits = [&](int level, std::size_t upsilon) {
    return virtual_cost_ms(pixels, point_at(level, upsilon, false)) <=
           budget;
  };
  // Walk the controller's own raise order so the open-loop fit lands on the
  // closed loop's steady state: Λ climbs at nominal Υ first, and only at
  // the Λ ceiling does surplus budget buy extra voter ways.
  std::size_t upsilon =
      fits(0, kUpsilonInitial) ? kUpsilonInitial : kUpsilonMin;
  if (!fits(0, upsilon)) {
    // Even the floor misses the budget: precision sheds, requests do not.
    return point_at(0, kUpsilonMin, false);
  }
  int level = 0;
  while (level < kLevelCap && fits(level + 1, upsilon)) ++level;
  if (level == kLevelCap) {
    while (upsilon + 2 <= kUpsilonMax && fits(level, upsilon + 2)) {
      upsilon += 2;
    }
  }
  return point_at(level, upsilon, false);
}

namespace {

/// Feed-forward pressure check: projected virtual cost of `next` at the
/// stream's observed load, against the shed threshold.  Using the load EWMA
/// (not the pressure EWMA, which trails the applied point by the feedback
/// lag) means a fast climb stops exactly at the strongest sustainable point
/// instead of overshooting and shed-cascading a lag later.
bool raise_fits(const ControllerState& state, const ControlConfig& cfg,
                const core::OperatingPoint& next) {
  return state.signals.load_mpix * per_pixel_cost(next) <=
         kPressureHigh * cfg.deadline_budget_ms;
}

}  // namespace

Action decide(ControllerState& state, const ControlConfig& cfg) {
  const Signals& s = state.signals;
  Action action = Action::kHold;

  // Dwell: a downward step must be observed through the loop (window + lag
  // observations) before the next one, or the controller chases its own
  // transient.  Raising is exempt from the dwell — reacting slowly to a
  // fault burst is the one direction where hysteresis costs science, so the
  // loop has fast attack and slow decay; chatter is excluded by the banded
  // thresholds (kActivityLow < kActivityHigh, kVetoCap < kVetoHigh), which
  // keep raise and relax conditions disjoint.
  const bool dwelling = state.hold_remaining > 0;
  if (dwelling) --state.hold_remaining;

  if (s.pressure > kPressureHigh) {
    // Deadline pressure outranks everything: a loop that misses deadlines
    // protects nothing.  Shed in the relax order — surplus voter ways back
    // to nominal first (they are the steepest cost term), then Λ, then the
    // last ways — so an overload never strands a hot Υ on a gutted Λ.
    if (dwelling) {
      // fall through to the epoch bookkeeping
    } else if (state.upsilon > kUpsilonInitial) {
      state.upsilon -= 2;
      action = Action::kShedPrecision;
    } else if (state.level > 0) {
      --state.level;
      action = Action::kShedPrecision;
    } else if (state.upsilon > kUpsilonMin) {
      state.upsilon -= 2;
      action = Action::kShedPrecision;
    }
  } else if (s.pressure < kPressureLow) {
    // Only a clearly calm loop may spend more: the (low, high) band is the
    // pressure hysteresis.
    const bool false_alarm_storm = s.veto_ratio > kVetoHigh;
    if (!false_alarm_storm && s.activity > kActivityHigh &&
        s.veto_ratio <= kVetoCap) {
      if (state.level < kLevelCap) {
        const auto next = point_at(state.level + 1, state.upsilon, false);
        if (raise_fits(state, cfg, next)) {
          ++state.level;
          action = Action::kRaise;
        }
      } else if (state.upsilon < kUpsilonMax) {
        const auto next = point_at(state.level, state.upsilon + 2, false);
        if (raise_fits(state, cfg, next)) {
          state.upsilon += 2;
          action = Action::kRaise;
        }
      }
    } else if (dwelling) {
      // downward steps wait out the dwell
    } else if (false_alarm_storm || s.activity < kActivityLow) {
      // Quiet stream (or pseudo-corrections dominating): back off toward
      // the nominal Υ first, then the Λ floor — on clean data a hotter
      // point only buys false alarms and compute.
      if (state.upsilon > kUpsilonInitial) {
        state.upsilon -= 2;
        action = Action::kRelax;
      } else if (state.level > 0) {
        --state.level;
        action = Action::kRelax;
      } else if (state.upsilon > kUpsilonMin) {
        state.upsilon -= 2;
        action = Action::kRelax;
      }
    }
  }

  // Only downward steps arm the dwell — see the asymmetry note above.
  if (action == Action::kRelax || action == Action::kShedPrecision) {
    state.hold_remaining = kHold;
  }
  ++state.epochs;
  return action;
}

SensitivityController::SensitivityController(ControlConfig cfg,
                                             std::uint64_t stream)
    : cfg_(cfg), stream_(stream) {
  validate_config(cfg_);
  state_.level = kInitialLevel;
  state_.upsilon = kUpsilonInitial;
  schedule_.push_back(
      Epoch{0, point_at(state_.level, state_.upsilon, false)});
}

void SensitivityController::fold(const Observation& obs) {
  if (obs.completed && obs.pixels > 0) {
    Signals& s = state_.signals;
    const double mpix = static_cast<double>(obs.pixels) * 1e-6;
    // Corrected *pixels*, not bits: pixel corrections include the
    // distributed pipeline's repairs — the part of the signal that actually
    // tracks the memory fault rate Γ₀ — while the bit tally is dominated by
    // the ingest stage's constant background and would mask the drift.
    const double activity =
        static_cast<double>(obs.pixels_corrected) / mpix;
    s.activity += kEwmaAlpha * (activity - s.activity);
    const double detections = static_cast<double>(obs.pixels_vetoed) +
                              static_cast<double>(obs.pixels_corrected);
    if (detections > 0.0) {
      const double veto = static_cast<double>(obs.pixels_vetoed) / detections;
      s.veto_ratio += kEwmaAlpha * (veto - s.veto_ratio);
    }
    const double pressure = obs.cost_ms / cfg_.deadline_budget_ms;
    s.pressure += kEwmaAlpha * (pressure - s.pressure);
    s.load_mpix += kEwmaAlpha * (mpix - s.load_mpix);
  }

  const std::uint64_t seq = state_.folds;  // the observation just folded
  ++state_.folds;

  if (state_.folds % cfg_.window == 0) {
    const Action action = decide(state_, cfg_);
    const bool pressed = state_.signals.pressure > kPressureLow;
    const core::OperatingPoint point =
        point_at(state_.level, state_.upsilon, pressed);
    // The fresh point governs from the seq this fold schedules: seq + lag.
    schedule_.push_back(Epoch{seq + cfg_.lag, point});
    Decision record;
    record.stream = stream_;
    record.epoch = state_.epochs - 1;
    record.first_seq = seq + cfg_.lag;
    record.action = action;
    record.point = point;
    record.signals = state_.signals;
    decisions_.push_back(record);
  }
}

core::OperatingPoint SensitivityController::point_for(
    std::uint64_t seq) const {
  if (seq >= ready_through()) {
    throw std::out_of_range(
        "control: operating point not yet scheduled for this seq");
  }
  // Last schedule entry whose first_seq <= seq (the schedule is append-only
  // and first_seq-monotone, so this is a reverse scan of a short vector).
  for (auto it = schedule_.rbegin(); it != schedule_.rend(); ++it) {
    if (it->first_seq <= seq) return it->point;
  }
  return schedule_.front().point;
}

std::string decisions_to_jsonl(const std::vector<Decision>& decisions) {
  std::vector<const Decision*> order;
  order.reserve(decisions.size());
  for (const Decision& d : decisions) order.push_back(&d);
  std::stable_sort(order.begin(), order.end(),
                   [](const Decision* a, const Decision* b) {
                     if (a->stream != b->stream) return a->stream < b->stream;
                     return a->epoch < b->epoch;
                   });
  std::string out;
  char buf[512];
  for (const Decision* d : order) {
    std::snprintf(
        buf, sizeof buf,
        "{\"bench\":\"control\",\"stream\":%llu,\"epoch\":%llu,"
        "\"first_seq\":%llu,\"action\":\"%s\",\"lambda\":%.10g,"
        "\"upsilon\":%zu,\"batch\":%zu,\"window_b\":%.6g,"
        "\"activity\":%.6g,\"veto\":%.6g,\"pressure\":%.6g}\n",
        static_cast<unsigned long long>(d->stream),
        static_cast<unsigned long long>(d->epoch),
        static_cast<unsigned long long>(d->first_seq), to_string(d->action),
        d->point.lambda, d->point.upsilon, d->point.max_batch,
        core::window_b_fraction(d->point.lambda), d->signals.activity,
        d->signals.veto_ratio, d->signals.pressure);
    out += buf;
  }
  return out;
}

}  // namespace spacefts::control
