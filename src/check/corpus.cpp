#include "spacefts/check/corpus.hpp"

#include "spacefts/telemetry/jsonl.hpp"

namespace spacefts::check {
namespace jsonl = telemetry::jsonl;
namespace {

constexpr const char* kFamilyNames[kCaseFamilyCount] = {
    "ngst_diff",      "otis_diff", "rice_roundtrip", "crc_frame",
    "hamming",        "properties", "serve_workload", "downlink",
};

}  // namespace

const char* to_string(CaseFamily family) noexcept {
  return kFamilyNames[static_cast<std::size_t>(family)];
}

bool from_string(std::string_view name, CaseFamily& out) noexcept {
  return jsonl::from_names(kFamilyNames, name, out);
}

/// The corpus line of one case.
template <jsonl::RowOf<CaseSpec> Spec, typename Visit>
void fields(Spec& spec, Visit&& visit) {
  visit("family", spec.family);
  visit("seed", spec.seed);
  visit("width", spec.width);
  visit("height", spec.height);
  visit("frames", spec.frames);
  visit("lambda", spec.lambda);
  visit("upsilon", spec.upsilon);
  visit("gamma", spec.gamma);
  visit("scene", spec.scene);
}

std::string to_json(const CaseSpec& spec) {
  std::string out;
  jsonl::append_row(out, spec);
  return out;
}

std::string corpus_to_jsonl(const std::vector<CaseSpec>& specs) {
  return jsonl::to_lines(specs);
}

std::vector<CaseSpec> parse_corpus_jsonl(std::string_view text) {
  return jsonl::parse_lines<CaseSpec>(text, "check corpus");
}

}  // namespace spacefts::check
