// SymCeX -- minimal strict JSON parser for the standalone tools.
//
// Header-only and standard-library-only on purpose: symcex-verify must be
// able to re-check an evidence bundle with zero dependence on the engine
// libraries (and the test suite reuses this parser to assert that every
// JSON export is strictly valid).  The parser accepts exactly the JSON
// grammar of RFC 8259 -- one top-level value, no trailing content, no
// trailing commas, no comments, no bare inf/nan tokens -- and throws
// std::runtime_error with a byte offset on the first deviation.
//
// A caller may read the value of one object member itself (MemberReader):
// symcex-verify reads each cover's "cubes" array straight into a flat
// literal buffer instead of a Value tree, through the Parser primitives
// below, so the document is still checked in full against the grammar.

#pragma once

#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

namespace symcex::jsonmini {

struct Value {
  /// kCaptured: a member value a MemberReader consumed; `number` holds
  /// whatever handle the reader stored there.
  enum class Kind {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
    kCaptured
  };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  /// Members in document order (duplicate keys are rejected at parse time).
  std::vector<std::pair<std::string, Value>> object;

  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }
  [[nodiscard]] bool is_bool() const { return kind == Kind::kBool; }

  /// Object member lookup; nullptr when absent (or not an object).
  [[nodiscard]] const Value* find(std::string_view key) const {
    if (kind != Kind::kObject) return nullptr;
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class Parser;

/// Reads the value of every object member named `key` in place of the
/// parser: `read` must consume exactly one JSON value through the Parser's
/// public primitives, and its result is stored as the member's value.
struct MemberReader {
  std::string_view key;
  std::function<Value(Parser&)> read;
};

class Parser {
 public:
  explicit Parser(std::string_view text, const MemberReader* reader = nullptr)
      : text_(text), reader_(reader) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after JSON value");
    return v;
  }

  // -- primitives for a MemberReader ------------------------------------------

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json: " + what + " at byte " +
                             std::to_string(pos_));
  }

  /// The next non-whitespace character (end of input fails).
  char next() {
    skip_ws();
    return peek();
  }

  /// Parse one value of any kind into a tree.
  Value parse_value() {
    // Nesting is recursion: without a cap, a pathological "[[[[..." input
    // turns the parser's stack into the attack surface.  256 levels is
    // far beyond any bundle the emitters produce.
    if (depth_ >= kMaxDepth) fail("nesting too deep");
    switch (next()) {
      case '{':
        return parse_object();
      case '[': {
        Value v;
        v.kind = Value::Kind::kArray;
        for_each_element([&] { v.array.push_back(parse_value()); });
        return v;
      }
      case '"': {
        Value v;
        v.kind = Value::Kind::kString;
        v.string = parse_string();
        return v;
      }
      case 't': {
        if (!consume_literal("true")) fail("invalid literal");
        Value v;
        v.kind = Value::Kind::kBool;
        v.boolean = true;
        return v;
      }
      case 'f': {
        if (!consume_literal("false")) fail("invalid literal");
        Value v;
        v.kind = Value::Kind::kBool;
        v.boolean = false;
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) fail("invalid literal");
        return Value{};
      }
      default: {
        Value v;
        v.kind = Value::Kind::kNumber;
        v.number = parse_number();
        return v;
      }
    }
  }

  /// Parse an array, calling `element()` once per element with the parser
  /// positioned at it; `element` must consume exactly that element.
  template <typename F>
  void for_each_element(F&& element) {
    if (depth_ >= kMaxDepth) fail("nesting too deep");
    skip_ws();
    expect('[');
    ++depth_;
    if (next() == ']') {
      ++pos_;
      --depth_;
      return;
    }
    while (true) {
      element();
      const char c = next();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        --depth_;
        return;
      }
      fail("expected ',' or ']' in array");
    }
  }

  /// Does a number token start at the next non-whitespace character?
  bool at_number() {
    const char c = next();
    return c == '-' || (c >= '0' && c <= '9');
  }

  /// Parse one number token (RFC 8259 grammar) to the nearest double.
  double parse_number() {
    if (depth_ >= kMaxDepth) fail("nesting too deep");
    skip_ws();
    const std::size_t start = pos_;
    bool integral = true;
    if (peek() == '-') {
      ++pos_;
      integral = false;
    }
    // Integer part: one digit, or a nonzero digit followed by digits
    // (leading zeros are not JSON).
    if (pos_ >= text_.size() || !is_digit(text_[pos_])) fail("invalid number");
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      skip_digits();
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      integral = false;
      if (pos_ >= text_.size() || !is_digit(text_[pos_])) {
        fail("digit required after decimal point");
      }
      skip_digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      integral = false;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || !is_digit(text_[pos_])) {
        fail("digit required in exponent");
      }
      skip_digits();
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    // Short digit runs (every index and bit in a bundle) convert exactly
    // through an integer; everything else rounds as strtod would.
    if (integral && last - first <= 15) {
      std::uint64_t u = 0;
      std::from_chars(first, last, u);
      return static_cast<double>(u);
    }
    double d = 0.0;
    if (std::from_chars(first, last, d).ec == std::errc::result_out_of_range) {
      // Overflow and underflow saturate exactly as strtod's do.
      d = std::strtod(std::string(first, last).c_str(), nullptr);
    }
    return d;
  }

 private:
  static bool is_digit(char c) { return c >= '0' && c <= '9'; }

  void skip_digits() {
    while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_object() {
    expect('{');
    Value v;
    v.kind = Value::Kind::kObject;
    if (next() == '}') {
      ++pos_;
      return v;
    }
    ++depth_;
    while (true) {
      skip_ws();
      std::string key = parse_string();
      for (const auto& [k, unused] : v.object) {
        (void)unused;
        if (k == key) fail("duplicate object key \"" + key + "\"");
      }
      skip_ws();
      expect(':');
      const bool read_here = reader_ != nullptr && key == reader_->key;
      if (read_here && depth_ >= kMaxDepth) fail("nesting too deep");
      Value member = read_here ? reader_->read(*this) : parse_value();
      v.object.emplace_back(std::move(key), std::move(member));
      const char c = next();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        --depth_;
        return v;
      }
      fail("expected ',' or '}' in object");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_++]);
      if (c == '"') return out;
      if (c < 0x20) fail("unescaped control character in string");
      if (c != '\\') {
        out.push_back(static_cast<char>(c));
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          unsigned code = parse_hex4();
          if (code >= 0xd800 && code <= 0xdbff) {
            // High surrogate: a \uXXXX low surrogate must follow.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              fail("unpaired surrogate");
            }
            pos_ += 2;
            const unsigned low = parse_hex4();
            if (low < 0xdc00 || low > 0xdfff) fail("unpaired surrogate");
            code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
          } else if (code >= 0xdc00 && code <= 0xdfff) {
            fail("unpaired surrogate");
          }
          append_utf8(out, code);
          break;
        }
        default:
          fail("invalid escape character");
      }
    }
  }

  unsigned parse_hex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) fail("truncated \\u escape");
      const char h = text_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') {
        code += static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        code += static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        code += static_cast<unsigned>(h - 'A' + 10);
      } else {
        fail("invalid hex digit in \\u escape");
      }
    }
    return code;
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xc0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xe0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
    } else {
      out.push_back(static_cast<char>(0xf0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3f)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
    }
  }

  static constexpr std::size_t kMaxDepth = 256;

  std::string_view text_;
  const MemberReader* reader_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

/// Parse one strict JSON document; throws std::runtime_error on deviation.
[[nodiscard]] inline Value parse(std::string_view text) {
  return Parser(text).parse_document();
}

/// parse(), with every member named reader.key read by `reader`.
[[nodiscard]] inline Value parse(std::string_view text,
                                 const MemberReader& reader) {
  return Parser(text, &reader).parse_document();
}

}  // namespace symcex::jsonmini
