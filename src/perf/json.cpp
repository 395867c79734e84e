#include "perf/json.hpp"

// GCC 12 reports a -Wmaybe-uninitialized false positive when the JsonValue
// variant destructor is inlined into optional-returning parser frames
// (gcc PR 105562 family); there is no actual uninitialized read.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include <cctype>
#include <cstdio>

#include "common/text_codec.hpp"

namespace tcast::perf {

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  const auto& obj = as_object();
  const auto it = obj.find(std::string(key));
  return it == obj.end() ? nullptr : &it->second;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

void append_number(std::string& out, double d) {
  char buf[40];
  // %.17g round-trips every finite double exactly.
  std::snprintf(buf, sizeof buf, "%.17g", d);
  out += buf;
}

void append_newline_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

}  // namespace

void JsonValue::dump_to(std::string& out, int indent, int depth) const {
  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += as_bool() ? "true" : "false";
  } else if (is_number()) {
    append_number(out, as_number());
  } else if (is_string()) {
    out += '"';
    out += json_escape(as_string());
    out += '"';
  } else if (is_array()) {
    const auto& arr = as_array();
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    bool first = true;
    for (const auto& v : arr) {
      if (!first) out += ',';
      first = false;
      append_newline_indent(out, indent, depth + 1);
      v.dump_to(out, indent, depth + 1);
    }
    append_newline_indent(out, indent, depth);
    out += ']';
  } else {
    const auto& obj = as_object();
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    bool first = true;
    for (const auto& [k, v] : obj) {
      if (!first) out += ',';
      first = false;
      append_newline_indent(out, indent, depth + 1);
      out += '"';
      out += json_escape(k);
      out += "\":";
      if (indent > 0) out += ' ';
      v.dump_to(out, indent, depth + 1);
    }
    append_newline_indent(out, indent, depth);
    out += '}';
  }
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> run(std::string* error) {
    auto v = parse_value();
    if (v) {
      skip_ws();
      if (pos_ != text_.size()) {
        fail("trailing characters after document");
        v.reset();
      }
    }
    if (!v && error) *error = error_;
    return v;
  }

 private:
  void fail(const std::string& why) {
    if (error_.empty())
      error_ = why + " at offset " + std::to_string(pos_);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  std::optional<JsonValue> parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    const char c = text_[pos_];
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      auto s = parse_string();
      if (!s) return std::nullopt;
      return JsonValue(std::move(*s));
    }
    if (consume_literal("true")) return JsonValue(true);
    if (consume_literal("false")) return JsonValue(false);
    if (consume_literal("null")) return JsonValue(nullptr);
    return parse_number();
  }

  std::optional<std::string> parse_string() {
    if (!consume('"')) {
      fail("expected '\"'");
      return std::nullopt;
    }
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
            return std::nullopt;
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else {
              fail("bad \\u escape digit");
              return std::nullopt;
            }
          }
          // The harness only emits ASCII control escapes; decode BMP code
          // points as UTF-8 so foreign files still parse.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("unknown escape");
          return std::nullopt;
      }
    }
    fail("unterminated string");
    return std::nullopt;
  }

  std::optional<JsonValue> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
      ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) {
      fail("expected a value");
      return std::nullopt;
    }
    const auto d = parse_double(text_.substr(start, pos_ - start));
    if (!d) {
      fail("malformed number");
      return std::nullopt;
    }
    return JsonValue(*d);
  }

  std::optional<JsonValue> parse_array() {
    consume('[');
    JsonValue::Array arr;
    skip_ws();
    if (consume(']')) return JsonValue(std::move(arr));
    for (;;) {
      auto v = parse_value();
      if (!v) return std::nullopt;
      arr.push_back(std::move(*v));
      skip_ws();
      if (consume(']')) return JsonValue(std::move(arr));
      if (!consume(',')) {
        fail("expected ',' or ']'");
        return std::nullopt;
      }
    }
  }

  std::optional<JsonValue> parse_object() {
    consume('{');
    JsonValue::Object obj;
    skip_ws();
    if (consume('}')) return JsonValue(std::move(obj));
    for (;;) {
      skip_ws();
      auto key = parse_string();
      if (!key) return std::nullopt;
      skip_ws();
      if (!consume(':')) {
        fail("expected ':'");
        return std::nullopt;
      }
      auto v = parse_value();
      if (!v) return std::nullopt;
      obj.insert_or_assign(std::move(*key), std::move(*v));
      skip_ws();
      if (consume('}')) return JsonValue(std::move(obj));
      if (!consume(',')) {
        fail("expected ',' or '}'");
        return std::nullopt;
      }
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<JsonValue> parse_json(std::string_view text,
                                    std::string* error) {
  return Parser(text).run(error);
}

}  // namespace tcast::perf
