/// \file jsonl.hpp
/// Shared JSON / JSON-lines building blocks for every exporter in the tree.
///
/// Three places grew the same three helpers independently — the bench
/// harnesses (`bench_util.hpp`), the campaign runner, and now the telemetry
/// exporters: escape a string for a JSON literal, format a double the same
/// way everywhere (`%.10g`, so artifacts stay byte-identical across
/// writers), and append a rendered line to a `BENCH_*.json`-style file.
/// They live here, at the bottom of the dependency stack and header-only,
/// so every layer can use them without a link edge.
///
/// These helpers are always available regardless of `SPACEFTS_TELEMETRY`.
#pragma once

#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace spacefts::telemetry::jsonl {

/// Escapes \p text for embedding inside a double-quoted JSON string:
/// quotes, backslashes, and control characters (\n, \r, \t named; the rest
/// as \u00XX).  The surrounding quotes are the caller's job.
[[nodiscard]] inline std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Appends `printf(format, value)` to \p out.  The canonical numeric format
/// for JSONL artifacts is "%.10g": enough digits that accumulated files
/// compare byte-identical across thread counts, short enough to stay
/// readable.
inline void append_fmt(std::string& out, const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, value);
  out += buf;
}

/// Appends \p text verbatim to the JSON-lines file at \p path, the shared
/// accumulation pattern of every BENCH_*.json artifact.  Returns false
/// (with a message on stderr) when the file cannot be opened.
[[nodiscard]] inline bool append_file(const std::string& path,
                                      std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "jsonl: cannot append to %s\n", path.c_str());
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return true;
}

/// Extracts the raw token following `"key":` in a JSON-lines record — just
/// enough parsing to build a dedupe key; not a JSON parser.  Tolerates a
/// space after the colon (both row styles in the tree).  Returns "" when
/// the key is absent (legacy records predating a field).
[[nodiscard]] inline std::string json_field(std::string_view line,
                                            std::string_view key) {
  std::string needle;
  needle.reserve(key.size() + 3);
  needle += '"';
  needle += key;
  needle += "\":";
  const auto pos = line.find(needle);
  if (pos == std::string_view::npos) return "";
  std::size_t begin = pos + needle.size();
  while (begin < line.size() && line[begin] == ' ') ++begin;
  std::size_t end = begin;
  if (begin < line.size() && line[begin] == '"') {
    end = line.find('"', begin + 1);
    return end == std::string_view::npos
               ? ""
               : std::string(line.substr(begin + 1, end - begin - 1));
  }
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return std::string(line.substr(begin, end - begin));
}

/// The strict field readers of the replay parse boundaries (serve
/// workloads, check corpora).  Unlike json_field they take the raw token
/// after `"key":` verbatim, up to ',' or '}' (these records are written
/// whitespace-free), and report absence or a malformed value as false.

/// Strict double parse of a whole token.
[[nodiscard]] inline bool parse_double_token(const std::string& token,
                                             double& out) {
  if (token.empty()) return false;
  char* end = nullptr;
  out = std::strtod(token.c_str(), &end);
  return end == token.c_str() + token.size();
}

/// Extracts the raw token following `"key":` into \p out.  False when the
/// key is absent or its token is empty.
[[nodiscard]] inline bool find_token(std::string_view line,
                                     std::string_view key, std::string& out) {
  std::string needle;
  needle.reserve(key.size() + 3);
  needle += '"';
  needle += key;
  needle += "\":";
  const auto pos = line.find(needle);
  if (pos == std::string_view::npos) return false;
  const auto start = pos + needle.size();
  auto end = start;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  out.assign(line.substr(start, end - start));
  return !out.empty();
}

[[nodiscard]] inline bool find_number(std::string_view line,
                                      std::string_view key, double& out) {
  std::string token;
  return find_token(line, key, token) && parse_double_token(token, out);
}

/// Full-precision unsigned parse (a 64-bit seed does not survive a double
/// round-trip) into any unsigned type of up to 64 bits; a sign is refused.
template <std::unsigned_integral Unsigned>
[[nodiscard]] bool find_u64(std::string_view line, std::string_view key,
                            Unsigned& out) {
  std::string token;
  if (!find_token(line, key, token) || token[0] == '-') return false;
  char* end = nullptr;
  out = static_cast<Unsigned>(std::strtoull(token.c_str(), &end, 10));
  return end == token.c_str() + token.size();
}

/// Hygiene guard for values destined for a BENCH_*.json row: a NaN or (for
/// inherently non-negative metrics) negative reading means the harness is
/// broken, and silently committing it would poison every downstream
/// comparison — recorders must refuse the whole row instead.  Pass
/// signed_ok for metrics that are legitimately signed differences.
[[nodiscard]] inline bool valid_metric(double value, bool signed_ok = false) {
  return std::isfinite(value) && (signed_ok || value >= 0.0);
}

/// Rewrites the JSONL file at \p path so it holds exactly one row per
/// configuration, then appends the rows of \p text (each ending in '\n').
/// `key_of` maps a row to its configuration identity; among duplicates the
/// newest row wins.  This is the shared upsert under every BENCH_*.json
/// recorder — re-running a bench or campaign replaces its rows instead of
/// accumulating them.  Returns false (with a message on stderr) when the
/// file cannot be rewritten.
inline bool upsert_jsonl(
    std::string_view text,
    const std::function<std::string(std::string_view)>& key_of,
    const std::string& path) {
  std::vector<std::string> fresh;
  for (std::size_t begin = 0; begin < text.size();) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string_view::npos) end = text.size();
    if (end > begin) fresh.emplace_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  std::vector<std::string> existing;
  {
    std::ifstream in(path);
    std::string row;
    while (std::getline(in, row))
      if (!row.empty()) existing.push_back(row);
  }
  const auto superseded = [&](const std::string& key, std::size_t after) {
    for (std::size_t j = after; j < existing.size(); ++j)
      if (key_of(existing[j]) == key) return true;
    for (const std::string& row : fresh)
      if (key_of(row) == key) return true;
    return false;
  };
  std::string out_text;
  for (std::size_t i = 0; i < existing.size(); ++i) {
    if (!superseded(key_of(existing[i]), i + 1)) {
      out_text += existing[i];
      out_text += '\n';
    }
  }
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    // Among the fresh rows themselves the last write of a key wins too.
    bool last = true;
    for (std::size_t j = i + 1; j < fresh.size() && last; ++j)
      last = key_of(fresh[j]) != key_of(fresh[i]);
    if (last) {
      out_text += fresh[i];
      out_text += '\n';
    }
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "jsonl: cannot rewrite %s\n", path.c_str());
    return false;
  }
  out << out_text;
  return true;
}

}  // namespace spacefts::telemetry::jsonl
