#include "util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace ode {

void JsonAppendEscaped(std::string* out, std::string_view s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  JsonAppendEscaped(&out, s);
  return out;
}

namespace {

// Recursive-descent parser: accepts exactly one JSON value surrounded by
// optional whitespace, and reports the first problem found.  With `out` it
// also records every number and string leaf under its path; without, it
// only checks.  Both modes run the same grammar, so they agree on every
// accept and reject.
class Parser {
 public:
  Parser(std::string_view s, JsonLeaves* out) : s_(s), out_(out) {}

  bool Parse(std::string* error) {
    SkipWs();
    if (!Value()) {
      if (error != nullptr) {
        *error = error_ + " at offset " + std::to_string(i_);
      }
      return false;
    }
    SkipWs();
    if (i_ != s_.size()) {
      if (error != nullptr) {
        *error = "trailing bytes at offset " + std::to_string(i_);
      }
      return false;
    }
    return true;
  }

 private:
  bool Digit() const {
    return i_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[i_]));
  }

  void SkipDigits() {
    while (Digit()) ++i_;
  }

  void SkipWs() {
    while (i_ < s_.size() &&
           (s_[i_] == ' ' || s_[i_] == '\t' || s_[i_] == '\n' ||
            s_[i_] == '\r')) {
      ++i_;
    }
  }

  bool Fail(const char* what) {
    if (error_.empty()) error_ = what;
    return false;
  }

  bool Literal(std::string_view lit) {
    if (s_.compare(i_, lit.size(), lit) != 0) return Fail("bad literal");
    i_ += lit.size();
    return true;
  }

  /// Parses a string literal, decoding it into `*decoded` when non-null.
  bool String(std::string* decoded) {
    if (i_ >= s_.size() || s_[i_] != '"') return Fail("expected string");
    ++i_;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') {
        ++i_;
        if (i_ >= s_.size()) return Fail("truncated escape");
        const char e = s_[i_];
        if (e == 'u') {
          uint32_t unit = 0;
          for (int k = 0; k < 4; ++k) {
            ++i_;
            if (i_ >= s_.size() ||
                !std::isxdigit(static_cast<unsigned char>(s_[i_]))) {
              return Fail("bad \\u escape");
            }
            const char h = static_cast<char>(
                std::tolower(static_cast<unsigned char>(s_[i_])));
            unit = unit * 16 + static_cast<uint32_t>(
                                   h <= '9' ? h - '0' : h - 'a' + 10);
          }
          if (decoded != nullptr) AppendUtf16Unit(decoded, unit);
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' &&
                   e != 'f' && e != 'n' && e != 'r' && e != 't') {
          return Fail("bad escape");
        } else if (decoded != nullptr) {
          constexpr std::string_view kFrom = "\"\\/bfnrt";
          constexpr std::string_view kTo = "\"\\/\b\f\n\r\t";
          decoded->push_back(kTo[kFrom.find(e)]);
        }
        ++i_;
      } else if (static_cast<unsigned char>(s_[i_]) < 0x20) {
        return Fail("raw control char in string");
      } else {
        if (decoded != nullptr) decoded->push_back(s_[i_]);
        ++i_;
      }
    }
    if (i_ >= s_.size()) return Fail("unterminated string");
    ++i_;  // Closing quote.
    return true;
  }

  /// Appends one \u escape's code unit as UTF-8.  Surrogate pairs are not
  /// joined (each half is encoded alone); the writer above never emits
  /// them, it escapes only control characters.
  static void AppendUtf16Unit(std::string* out, uint32_t unit) {
    if (unit < 0x80) {
      out->push_back(static_cast<char>(unit));
    } else if (unit < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (unit >> 6)));
      out->push_back(static_cast<char>(0x80 | (unit & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xE0 | (unit >> 12)));
      out->push_back(static_cast<char>(0x80 | ((unit >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (unit & 0x3F)));
    }
  }

  bool Number() {
    const size_t start = i_;
    if (!NumberToken()) return false;
    if (out_ != nullptr) {
      const std::string token(s_.substr(start, i_ - start));
      out_->numbers[path_] = std::strtod(token.c_str(), nullptr);
    }
    return true;
  }

  bool NumberToken() {
    if (i_ < s_.size() && s_[i_] == '-') ++i_;
    if (!Digit()) return Fail("expected digit");
    if (s_[i_] == '0') {
      ++i_;
    } else {
      SkipDigits();
    }
    if (i_ < s_.size() && s_[i_] == '.') {
      ++i_;
      if (!Digit()) return Fail("bad fraction");
      SkipDigits();
    }
    if (i_ < s_.size() && (s_[i_] == 'e' || s_[i_] == 'E')) {
      ++i_;
      if (i_ < s_.size() && (s_[i_] == '+' || s_[i_] == '-')) ++i_;
      if (!Digit()) return Fail("bad exponent");
      SkipDigits();
    }
    return true;
  }

  bool Value() {
    if (++depth_ > 64) return Fail("nesting too deep");
    SkipWs();
    if (i_ >= s_.size()) return Fail("unexpected end");
    bool ok = false;
    switch (s_[i_]) {
      case '{': ok = Object(); break;
      case '[': ok = Array(); break;
      case '"': {
        std::string value;
        ok = String(out_ != nullptr ? &value : nullptr);
        if (ok && out_ != nullptr) out_->strings[path_] = std::move(value);
        break;
      }
      case 't': ok = Literal("true"); break;
      case 'f': ok = Literal("false"); break;
      case 'n': ok = Literal("null"); break;
      default: ok = Number(); break;
    }
    --depth_;
    return ok;
  }

  bool Object() {
    ++i_;  // '{'
    SkipWs();
    if (i_ < s_.size() && s_[i_] == '}') { ++i_; return true; }
    for (;;) {
      SkipWs();
      std::string key;
      if (!String(out_ != nullptr ? &key : nullptr)) return false;
      SkipWs();
      if (i_ >= s_.size() || s_[i_] != ':') return Fail("expected ':'");
      ++i_;
      if (!Child(key)) return false;
      SkipWs();
      if (i_ < s_.size() && s_[i_] == ',') { ++i_; continue; }
      if (i_ < s_.size() && s_[i_] == '}') { ++i_; return true; }
      return Fail("expected ',' or '}'");
    }
  }

  bool Array() {
    ++i_;  // '['
    SkipWs();
    if (i_ < s_.size() && s_[i_] == ']') { ++i_; return true; }
    for (size_t index = 0;; ++index) {
      if (!Child(out_ != nullptr ? std::to_string(index) : std::string()))
        return false;
      SkipWs();
      if (i_ < s_.size() && s_[i_] == ',') { ++i_; continue; }
      if (i_ < s_.size() && s_[i_] == ']') { ++i_; return true; }
      return Fail("expected ',' or ']'");
    }
  }

  /// Parses a member or element value with `segment` appended to the path.
  bool Child(const std::string& segment) {
    const size_t mark = path_.size();
    if (out_ != nullptr) {
      if (mark > 0) path_.push_back('.');
      path_.append(segment);
    }
    const bool ok = Value();
    path_.resize(mark);
    return ok;
  }

  std::string_view s_;
  size_t i_ = 0;
  int depth_ = 0;
  std::string error_;
  JsonLeaves* out_;
  std::string path_;  // Dotted path of the value being parsed.
};

}  // namespace

bool IsWellFormedJson(std::string_view s, std::string* error) {
  return Parser(s, nullptr).Parse(error);
}

StatusOr<JsonLeaves> ReadJson(std::string_view s) {
  JsonLeaves leaves;
  std::string error;
  if (!Parser(s, &leaves).Parse(&error)) {
    return Status::InvalidArgument("malformed JSON: " + error);
  }
  return leaves;
}

void JsonWriter::Comma() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // Value directly follows "key": — no comma.
  }
  if (!need_comma_.empty()) {
    if (need_comma_.back()) out_.push_back(',');
    need_comma_.back() = true;
  }
}

void JsonWriter::BeginObject() {
  Comma();
  out_.push_back('{');
  need_comma_.push_back(false);
}

void JsonWriter::EndObject() {
  if (!need_comma_.empty()) need_comma_.pop_back();
  out_.push_back('}');
}

void JsonWriter::BeginArray() {
  Comma();
  out_.push_back('[');
  need_comma_.push_back(false);
}

void JsonWriter::EndArray() {
  if (!need_comma_.empty()) need_comma_.pop_back();
  out_.push_back(']');
}

void JsonWriter::Value(std::string_view s) {
  Comma();
  JsonAppendEscaped(&out_, s);
}

void JsonWriter::Value(uint64_t v) {
  Comma();
  out_.append(std::to_string(v));
}

void JsonWriter::Value(int64_t v) {
  Comma();
  out_.append(std::to_string(v));
}

void JsonWriter::Value(double v) {
  Comma();
  if (!std::isfinite(v)) {
    out_.push_back('0');
    return;
  }
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  out_.append(buf, result.ptr);
}

void JsonWriter::Value(bool v) {
  Comma();
  out_.append(v ? "true" : "false");
}

void JsonWriter::Null() {
  Comma();
  out_.append("null");
}

void JsonWriter::Key(std::string_view k) {
  Comma();
  JsonAppendEscaped(&out_, k);
  out_.push_back(':');
  pending_key_ = true;
}

}  // namespace ode
