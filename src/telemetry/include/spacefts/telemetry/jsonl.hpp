/// \file jsonl.hpp
/// The JSON-lines building blocks of the tree's artifacts, in one place.
///
/// `escape` quotes a string, `append_fmt` formats a number (`%.10g` is the
/// canonical double, so artifacts stay byte-identical across writers), and
/// `upsert_jsonl` keeps one row per configuration in a `BENCH_*.json`
/// file.  The library's row types declare their fields once (see "Field
/// lists" below); `Writer` renders them and `Reader` parses them back, so
/// no row is written or parsed field by field.  Header-only, at the
/// bottom of the dependency stack, so every layer can use it without a
/// link edge, and always available regardless of `SPACEFTS_TELEMETRY`.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
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

/// The raw value after `"key":` in a JSON-lines record, with one run of
/// spaces after the colon skipped (both row styles in the tree): a quoted
/// string with its quotes, anything else up to ',' or '}'.  Just enough
/// parsing for the tree's own flat rows; not a JSON parser.  nullopt when
/// the key is absent.
[[nodiscard]] inline std::optional<std::string_view> find_value(
    std::string_view line, std::string_view key) {
  const std::string needle = '"' + std::string(key) + "\":";
  const auto at = line.find(needle);
  if (at == std::string_view::npos) return std::nullopt;
  const auto begin = std::min(
      line.find_first_not_of(' ', at + needle.size()), line.size());
  if (!line.substr(begin).starts_with('"')) {
    return line.substr(begin, line.find_first_of(",}", begin) - begin);
  }
  const auto close = line.find('"', begin + 1);
  return line.substr(begin, close == std::string_view::npos
                                ? std::string_view::npos
                                : close + 1 - begin);
}

/// The value of \p key without its quotes, for building a dedupe key.
/// Returns "" when the key is absent (legacy records predating a field) or
/// its string is unterminated.
[[nodiscard]] inline std::string json_field(std::string_view line,
                                            std::string_view key) {
  const std::string_view value = find_value(line, key).value_or("");
  if (!value.starts_with('"')) return std::string(value);
  return value.size() >= 2 && value.ends_with('"')
             ? std::string(value.substr(1, value.size() - 2))
             : "";
}

/// Calls \p on_line(line, line_no) for each line of \p text holding more
/// than blanks (' ', '\t', '\r'); line numbers are 1-based and count the
/// skipped lines too, so an error can name the line an editor shows.
template <typename OnLine>
void for_each_line(std::string_view text, OnLine&& on_line) {
  std::size_t line_no = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.find_first_not_of(" \t\r") != std::string_view::npos) {
      on_line(line, line_no);
    }
  }
}

// ---------------------------------------------------------------------------
// Field lists.  A JSONL row type declares its fields once, in output order,
// as a function template found by argument-dependent lookup:
//
//   template <typename Visit> void fields(const Row& row, Visit&& visit) {
//     visit("id", row.id);
//     visit("lambda", row.lambda);
//   }
//
// Writer renders a row from that list and Reader fills one from a line, so
// a format's writer and parser cannot drift apart.  A row that is read back
// takes `jsonl::RowOf<Row> R` in place of `const Row&`, so one list serves
// both.  A value is an integer, a double (%.10g), a bool, an enum (quoted
// through the `to_string` / `from_string` pair of its namespace) or a
// string (quoted, escaped; written only).  Optional tags after the value:

/// Reader: an absent key leaves the row's default in place.
inline constexpr struct Optional {} kOptional{};
/// Reader: zero is refused like a malformed value.
inline constexpr struct NonZero {} kNonZero{};
/// Writer: the double is rendered "%.6g" instead of "%.10g".
inline constexpr struct SixDigits {} kSixDigits{};

/// The `from_string` of an enum whose names are a table indexed by value:
/// sets \p out to the value named \p name; false for an unknown name.
template <typename Enum, std::size_t N>
[[nodiscard]] bool from_names(const char* const (&names)[N],
                              std::string_view name, Enum& out) noexcept {
  for (std::size_t i = 0; i < N; ++i) {
    if (name == names[i]) {
      out = static_cast<Enum>(i);
      return true;
    }
  }
  return false;
}

/// A field list's row parameter: \p Row, const or not.
template <typename T, typename Row>
concept RowOf = std::same_as<std::remove_const_t<T>, Row>;

template <typename Tag, typename... Tags>
inline constexpr bool kHasTag = (std::is_same_v<Tag, Tags> || ...);

/// The writer visitor: appends one whitespace-free JSON object, the fields
/// in list order.  See append_row.
class Writer {
 public:
  explicit Writer(std::string& out) : out_(out) {}

  template <typename T, typename... Tags>
  void operator()(std::string_view key, const T& value, Tags... tags) {
    if constexpr (std::is_enum_v<T>) {
      (*this)(key, std::string_view(to_string(value)), tags...);
    } else {
      out_ += std::exchange(first_, false) ? "{\"" : ",\"";
      out_ += key;
      out_ += "\":";
      if constexpr (std::is_same_v<T, bool>) {
        out_ += value ? "true" : "false";
      } else if constexpr (std::is_integral_v<T>) {
        out_ += std::to_string(value);
      } else if constexpr (std::is_floating_point_v<T>) {
        append_fmt(out_, kHasTag<SixDigits, Tags...> ? "%.6g" : "%.10g",
                   value);
      } else {
        out_ += '"' + escape(value) + '"';
      }
    }
  }

 private:
  std::string& out_;
  bool first_ = true;
};

/// Appends \p row, rendered from its field list, to \p out (no newline).
template <typename Row>
void append_row(std::string& out, const Row& row) {
  Writer writer(out);
  fields(row, writer);
  out += '}';
}

/// One line per row, each newline-terminated.
template <typename Rows>
[[nodiscard]] std::string to_lines(const Rows& rows) {
  std::string out;
  for (const auto& row : rows) {
    append_row(out, row);
    out += '\n';
  }
  return out;
}

/// The strict reader visitor of the replay parse boundaries (serve
/// workloads, check corpora): each field's value is its find_value token.
/// An integer must be all digits (a sign only for signed types) and fit
/// its type, a double must be finite, a bool `true` or `false`, an enum a
/// quoted name its `from_string` accepts.  \throws std::runtime_error
/// "<what> line <n>: missing|bad <key>".
class Reader {
 public:
  Reader(std::string_view line, std::string_view what, std::size_t line_no)
      : line_(line), what_(what), line_no_(line_no) {}

  template <typename T, typename... Tags>
  void operator()(std::string_view key, T& value, Tags...) {
    const auto token = find_value(line_, key);
    if (!token) {
      if (kHasTag<Optional, Tags...>) return;
      fail("missing ", key);
    }
    if (!parse(*token, value) ||
        (kHasTag<NonZero, Tags...> && value == T{})) {
      fail("bad ", key);
    }
  }

 private:
  [[noreturn]] void fail(const char* problem, std::string_view key) const {
    throw std::runtime_error(std::string(what_) + " line " +
                             std::to_string(line_no_) + ": " + problem +
                             std::string(key));
  }

  template <typename T>
  static bool parse(std::string_view token, T& out) {
    if constexpr (std::is_same_v<T, bool>) {
      out = token == "true";
      return out || token == "false";
    } else if constexpr (std::is_enum_v<T>) {
      return token.size() >= 2 && token.front() == '"' &&
             token.back() == '"' &&
             from_string(token.substr(1, token.size() - 2), out);
    } else {
      const char* end = token.data() + token.size();
      const auto [stop, error] = std::from_chars(token.data(), end, out);
      if constexpr (std::is_floating_point_v<T>) {
        if (error == std::errc{} && !std::isfinite(out)) return false;
      }
      return error == std::errc{} && stop == end;
    }
  }

  std::string_view line_;
  std::string_view what_;
  std::size_t line_no_;
};

/// Parses every non-blank line of \p text into a Row through its field
/// list.  \throws std::runtime_error naming \p what, the line and the key
/// of the first missing or malformed field.
template <typename Row>
[[nodiscard]] std::vector<Row> parse_lines(std::string_view text,
                                           std::string_view what) {
  std::vector<Row> rows;
  for_each_line(text, [&](std::string_view line, std::size_t line_no) {
    Reader reader(line, what, line_no);
    fields(rows.emplace_back(), reader);
  });
  return rows;
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
  // The file's rows, then the fresh ones: a row survives unless a later
  // row has its key.
  std::vector<std::string> rows;
  {
    std::ifstream in(path);
    std::string row;
    while (std::getline(in, row))
      if (!row.empty()) rows.push_back(row);
  }
  for_each_line(text, [&](std::string_view line, std::size_t) {
    rows.emplace_back(line);
  });
  std::vector<std::string> keys;
  for (const std::string& row : rows) keys.push_back(key_of(row));
  std::string out_text;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (std::find(keys.begin() + i + 1, keys.end(), keys[i]) == keys.end()) {
      out_text += rows[i];
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
