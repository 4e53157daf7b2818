#include "spacefts/check/corpus.hpp"

#include <stdexcept>

#include "spacefts/telemetry/jsonl.hpp"

namespace spacefts::check {
namespace {

using telemetry::jsonl::append_fmt;
using telemetry::jsonl::find_number;
using telemetry::jsonl::find_token;
using telemetry::jsonl::find_u64;

constexpr const char* kFamilyNames[kCaseFamilyCount] = {
    "ngst_diff",      "otis_diff", "rice_roundtrip", "crc_frame",
    "hamming",        "properties", "serve_workload", "downlink",
};

}  // namespace

const char* to_string(CaseFamily family) noexcept {
  return kFamilyNames[static_cast<std::size_t>(family)];
}

bool parse_family(std::string_view name, CaseFamily& out) {
  for (std::size_t i = 0; i < kCaseFamilyCount; ++i) {
    if (name == kFamilyNames[i]) {
      out = static_cast<CaseFamily>(i);
      return true;
    }
  }
  return false;
}

std::string to_json(const CaseSpec& spec) {
  std::string out;
  out.reserve(160);
  out += "{\"family\":\"";
  out += to_string(spec.family);
  out += "\",\"seed\":" + std::to_string(spec.seed);
  out += ",\"width\":" + std::to_string(spec.width);
  out += ",\"height\":" + std::to_string(spec.height);
  out += ",\"frames\":" + std::to_string(spec.frames);
  append_fmt(out, ",\"lambda\":%.10g", spec.lambda);
  out += ",\"upsilon\":" + std::to_string(spec.upsilon);
  append_fmt(out, ",\"gamma\":%.10g", spec.gamma);
  out += ",\"scene\":" + std::to_string(spec.scene);
  out += "}";
  return out;
}

std::string corpus_to_jsonl(const std::vector<CaseSpec>& specs) {
  std::string out;
  out.reserve(specs.size() * 176);
  for (const CaseSpec& spec : specs) {
    out += to_json(spec);
    out += '\n';
  }
  return out;
}

std::vector<CaseSpec> parse_corpus_jsonl(std::string_view text) {
  std::vector<CaseSpec> specs;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const auto nl = text.find('\n', pos);
    const auto line = text.substr(
        pos, nl == std::string_view::npos ? std::string_view::npos : nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    if (line.empty()) continue;

    const auto fail = [&](const char* what) {
      throw std::runtime_error("check corpus line " + std::to_string(line_no) +
                               ": " + what);
    };
    CaseSpec spec;
    std::string family_token;
    if (!find_token(line, "family", family_token) ||
        family_token.size() < 3 || family_token.front() != '"' ||
        family_token.back() != '"') {
      fail("missing or malformed family");
    }
    if (!parse_family(
            std::string_view(family_token).substr(1, family_token.size() - 2),
            spec.family)) {
      fail("unknown family");
    }
    if (!find_u64(line, "seed", spec.seed)) fail("missing seed");
    if (!find_u64(line, "width", spec.width)) fail("missing width");
    if (!find_u64(line, "height", spec.height)) fail("missing height");
    if (!find_u64(line, "frames", spec.frames)) fail("missing frames");
    if (!find_number(line, "lambda", spec.lambda)) fail("missing lambda");
    if (!find_u64(line, "upsilon", spec.upsilon)) fail("missing upsilon");
    if (!find_number(line, "gamma", spec.gamma)) fail("missing gamma");
    if (!find_u64(line, "scene", spec.scene)) fail("missing scene");
    specs.push_back(spec);
  }
  return specs;
}

}  // namespace spacefts::check
