#include "util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

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

// Recursive-descent checker: accepts exactly one JSON value surrounded by
// optional whitespace, and reports the first problem found.
class Checker {
 public:
  explicit Checker(std::string_view s) : s_(s) {}

  bool Check(std::string* error) {
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

  bool String() {
    if (i_ >= s_.size() || s_[i_] != '"') return Fail("expected string");
    ++i_;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') {
        ++i_;
        if (i_ >= s_.size()) return Fail("truncated escape");
        const char e = s_[i_];
        if (e == 'u') {
          for (int k = 0; k < 4; ++k) {
            ++i_;
            if (i_ >= s_.size() ||
                !std::isxdigit(static_cast<unsigned char>(s_[i_]))) {
              return Fail("bad \\u escape");
            }
          }
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' &&
                   e != 'f' && e != 'n' && e != 'r' && e != 't') {
          return Fail("bad escape");
        }
        ++i_;
      } else if (static_cast<unsigned char>(s_[i_]) < 0x20) {
        return Fail("raw control char in string");
      } else {
        ++i_;
      }
    }
    if (i_ >= s_.size()) return Fail("unterminated string");
    ++i_;  // Closing quote.
    return true;
  }

  bool Number() {
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
      case '"': ok = String(); break;
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
      if (!String()) return false;
      SkipWs();
      if (i_ >= s_.size() || s_[i_] != ':') return Fail("expected ':'");
      ++i_;
      if (!Value()) return false;
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
    for (;;) {
      if (!Value()) return false;
      SkipWs();
      if (i_ < s_.size() && s_[i_] == ',') { ++i_; continue; }
      if (i_ < s_.size() && s_[i_] == ']') { ++i_; return true; }
      return Fail("expected ',' or ']'");
    }
  }

  std::string_view s_;
  size_t i_ = 0;
  int depth_ = 0;
  std::string error_;
};

}  // namespace

bool IsWellFormedJson(std::string_view s, std::string* error) {
  return Checker(s).Check(error);
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
