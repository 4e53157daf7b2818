/// \file guard.hpp
/// The deployable preprocessing layer: everything between "bytes arrived
/// from the detector/transport" and "the application gets a trustworthy
/// dataset", in one call.
///
/// This is the paper's scheme as a downstream system would actually adopt
/// it (§9 suggests integrating it "as a separate preprocessing layer in the
/// fault-tolerance scheme"):
///
///   1. parse the FITS transport container,
///   2. run the Λ=0 header sanity analysis on every HDU, repairing
///      structural keywords from the expected geometry,
///   3. decode the N temporal readouts into a stack,
///   4. run Algo_NGST over every coordinate's time series,
///   5. hand back the repaired stack plus a full audit trail.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "spacefts/common/image.hpp"
#include "spacefts/core/algo_ngst.hpp"
#include "spacefts/fits/sanity.hpp"

namespace spacefts::ingest {

/// Configuration of the ingest layer.
struct IngestConfig {
  /// Expected geometry of every readout HDU (what the node knows a priori).
  fits::ImageExpectation expectation;
  /// Preprocessing parameters; lambda = 0 degrades the layer to
  /// sanity-checking only, exactly as §3.2 specifies.
  core::AlgoNgstConfig algo;
  /// Optional compute executor.  When set, step 4 routes the stack
  /// preprocessing through it instead of running AlgoNgst inline — this is
  /// how the serve tier swaps in a pluggable (possibly untrusted, possibly
  /// shadow-guarded) backend without ingest knowing any of that exists.
  /// Must be semantically equivalent to AlgoNgst(config).preprocess(stack).
  std::function<core::AlgoNgstReport(common::TemporalStack<std::uint16_t>&,
                                     const core::AlgoNgstConfig&)>
      executor;
};

/// Outcome of one baseline ingest.
struct IngestResult {
  /// The repaired temporal stack; empty when ok == false.
  common::TemporalStack<std::uint16_t> stack;
  /// Per-HDU sanity findings, in HDU order.
  std::vector<fits::SanityReport> sanity;
  /// Aggregate preprocessing report (zeroed at Λ = 0).
  core::AlgoNgstReport preprocess;
  /// False when the container was unusable; see error.
  bool ok = false;
  std::string error;
};

/// The ingest layer.  Stateless; one instance can serve many baselines.
class IngestGuard {
 public:
  /// \throws std::invalid_argument for invalid algo parameters.
  explicit IngestGuard(IngestConfig config);

  [[nodiscard]] const IngestConfig& config() const noexcept { return config_; }

  /// Ingests a serialized FITS file whose HDUs are the baseline's N
  /// temporal readouts (equal geometry, BITPIX 16).  Never throws on bad
  /// *data* — container-level failures, fewer than three readouts among
  /// them, are reported via IngestResult::ok.
  [[nodiscard]] IngestResult ingest(std::span<const std::uint8_t> bytes) const;

  /// Convenience for the transmit side: packs a stack into the container
  /// format ingest() expects.
  [[nodiscard]] static std::vector<std::uint8_t> pack(
      const common::TemporalStack<std::uint16_t>& stack);

 private:
  IngestConfig config_;
};

}  // namespace spacefts::ingest
