#include "spacefts/control/bank.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "spacefts/telemetry/telemetry.hpp"

namespace spacefts::control {

ControllerBank::ControllerBank(ControlConfig cfg) : cfg_(cfg) {
  validate_config(cfg_);
}

core::OperatingPoint ControllerBank::admit(const serve::Request& request) {
  std::unique_lock lock(mu_);
  auto [it, inserted] = streams_.try_emplace(request.stream, cfg_,
                                             request.stream);
  StreamCtl& ctl = it->second;
  const std::uint64_t seq = ctl.next_seq++;
  // The gate: until observation seq − lag folds, the point for seq does not
  // exist yet.  Workers folding completions make progress, so this wait is
  // bounded by the stream's own service time.
  cv_.wait(lock, [&] { return ctl.controller.ready_through() > seq; });
  const core::OperatingPoint point = ctl.controller.point_for(seq);
  Slot slot;
  slot.stream = request.stream;
  slot.seq = seq;
  slot.pixels = request.job.side * request.job.side * request.job.frames;
  slot.point = point;
  slots_[request.id] = slot;
  telemetry::counter("control.admitted").add(1);
  return point;
}

core::OperatingPoint ControllerBank::point(std::uint64_t id) const {
  std::lock_guard lock(mu_);
  const auto it = slots_.find(id);
  if (it == slots_.end()) {
    throw std::out_of_range("control: request id was never admitted");
  }
  return it->second.point;
}

void ControllerBank::observe(const serve::RequestResult& result) {
  std::lock_guard lock(mu_);
  const auto it = slots_.find(result.id);
  if (it == slots_.end() || it->second.observed) return;
  Slot& slot = it->second;
  slot.observed = true;

  Observation obs;
  obs.pixels = slot.pixels;
  obs.bits_corrected = result.bits_corrected;
  obs.pixels_corrected = result.pixels_corrected;
  obs.pixels_vetoed = result.pixels_vetoed;
  obs.cost_ms = virtual_cost_ms(slot.pixels, slot.point);
  obs.completed = result.status == serve::ServeStatus::kOk;

  StreamCtl& ctl = streams_.at(slot.stream);
  ctl.pending.emplace(slot.seq, obs);
  drain_locked(ctl);
  cv_.notify_all();
}

void ControllerBank::drain_locked(StreamCtl& ctl) {
  SPACEFTS_TSPAN("control.fold");
  const std::size_t before = ctl.controller.decisions().size();
  while (!ctl.pending.empty() &&
         ctl.pending.begin()->first == ctl.controller.state().folds) {
    ctl.controller.fold(ctl.pending.begin()->second);
    ctl.pending.erase(ctl.pending.begin());
  }
  const auto& decisions = ctl.controller.decisions();
  for (std::size_t i = before; i < decisions.size(); ++i) {
    const Decision& d = decisions[i];
    telemetry::counter("control.decisions").add(1);
    switch (d.action) {
      case Action::kRaise:
        telemetry::counter("control.raise").add(1);
        break;
      case Action::kRelax:
        telemetry::counter("control.relax").add(1);
        break;
      case Action::kShedPrecision:
        telemetry::counter("control.shed_precision").add(1);
        break;
      case Action::kHold:
        telemetry::counter("control.hold").add(1);
        break;
    }
    telemetry::gauge("control.lambda").set(d.point.lambda);
    telemetry::gauge("control.upsilon").set(
        static_cast<double>(d.point.upsilon));
    telemetry::gauge("control.pressure").set(d.signals.pressure);
  }
}

std::vector<Decision> ControllerBank::decisions() const {
  std::lock_guard lock(mu_);
  std::vector<Decision> all;
  for (const auto& [stream, ctl] : streams_) {
    const auto& d = ctl.controller.decisions();
    all.insert(all.end(), d.begin(), d.end());
  }
  return all;
}

std::string ControllerBank::applied_jsonl() const {
  std::lock_guard lock(mu_);
  std::vector<std::pair<std::uint64_t, const Slot*>> order;
  order.reserve(slots_.size());
  for (const auto& [id, slot] : slots_) order.emplace_back(id, &slot);
  std::sort(order.begin(), order.end());
  std::string out;
  char buf[320];
  for (const auto& [id, slot] : order) {
    std::snprintf(
        buf, sizeof buf,
        "{\"bench\":\"control_applied\",\"id\":%llu,\"stream\":%llu,"
        "\"seq\":%llu,\"lambda\":%.10g,\"upsilon\":%zu,\"batch\":%zu,"
        "\"cost_ms\":%.6g}\n",
        static_cast<unsigned long long>(id),
        static_cast<unsigned long long>(slot->stream),
        static_cast<unsigned long long>(slot->seq), slot->point.lambda,
        slot->point.upsilon, slot->point.max_batch,
        virtual_cost_ms(slot->pixels, slot->point));
    out += buf;
  }
  return out;
}

std::size_t ControllerBank::stream_count() const {
  std::lock_guard lock(mu_);
  return streams_.size();
}

}  // namespace spacefts::control
