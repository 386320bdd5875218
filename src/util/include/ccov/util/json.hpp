#pragma once
/// \file json.hpp
/// The minimal JSON layer shared by the serve protocol and the HTTP
/// front end: a Reader for exactly the subset the protocols accept
/// (objects, arrays, strings with escapes, integer numbers, booleans,
/// null — no floats), and a Writer that renders compact one-line JSON
/// with deterministic, byte-stable output. The serve response lines are
/// golden-tested against this writer, so its byte behaviour (no
/// whitespace, \uXXXX for control characters, no \b/\f shorthands) is
/// part of the wire contract.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ccov::util::json {

/// A parsed JSON value. Objects preserve key order (the protocols care
/// about "op" detection and deterministic error messages, not lookup
/// speed).
struct Value {
  enum class Type { kNull, kBool, kInt, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  std::int64_t integer = 0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;
};

/// Parse one complete JSON document. Errors are reported by message,
/// never by exception; trailing non-whitespace is an error. Nesting is
/// bounded (kMaxDepth) so adversarial input like "[[[[..." reports an
/// error instead of exhausting the call stack — the reader sits on
/// untrusted protocol bytes.
class Reader {
 public:
  /// Deepest accepted object/array nesting. Protocol documents are 2-3
  /// levels deep; 64 leaves generous headroom while keeping recursion
  /// trivially within any thread's stack.
  static constexpr int kMaxDepth = 64;

  explicit Reader(const std::string& text)
      : p_(text.data()), end_(p_ + text.size()) {}

  bool parse(Value* out, std::string* error);

 private:
  void skip_ws();
  bool literal(const char* word, std::string* error);
  bool value(Value* out, std::string* error);
  bool object(Value* out, std::string* error);
  bool array(Value* out, std::string* error);
  bool string(std::string* out, std::string* error);
  bool number(Value* out, std::string* error);

  const char* p_;
  const char* end_;
  int depth_ = 0;
};

/// Append `s` to `out` as a quoted JSON string: '"' and '\\' escaped,
/// \n \r \t shorthands, every other control character as \u00XX.
void append_escaped(std::string* out, std::string_view s);

/// `s` rendered as a quoted JSON string.
std::string escaped(std::string_view s);

/// Compact single-line JSON writer with automatic comma placement.
/// Produces exactly the bytes of the hand-rolled renderers it replaced:
/// no whitespace anywhere, keys in call order.
///
///   JsonWriter w;
///   w.begin_object().key("id").value(7).key("ok").value(true)
///    .key("algo").value_string("solve").end_object();
///   w.str() == R"({"id":7,"ok":true,"algo":"solve"})"
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emit the separating ',' (if needed) and `"k":`. Keys are written
  /// verbatim — callers pass literal identifiers, not untrusted text.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(bool v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  /// Quoted and escaped.
  JsonWriter& value_string(std::string_view v);
  /// Pre-rendered JSON spliced in verbatim (still comma-managed).
  JsonWriter& value_raw(std::string_view v);
  /// The same splice with no intermediate string: emit the separating
  /// ',' (if needed), then return the buffer, to which the caller must
  /// append exactly one complete JSON value.
  std::string& value_buffer();

  /// Pre-size the output buffer — a renderer that knows roughly how big
  /// the document will be skips the geometric-growth reallocations.
  void reserve(std::size_t n) { out_.reserve(n); }

  /// Drop the buffered text and any open-container state, keeping the
  /// buffer's capacity — a hot loop reuses one writer allocation-free.
  void clear() {
    out_.clear();
    has_element_.clear();
    after_key_ = false;
  }

  const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  /// Called before any value/begin in an array context.
  void comma_for_value();

  std::string out_;
  /// One flag per open container: true once it holds an element, so the
  /// next key()/array value knows to lead with ','.
  std::vector<bool> has_element_;
  /// True immediately after key() — the next value is an object member,
  /// not an array element, so it must not emit its own comma.
  bool after_key_ = false;
};

}  // namespace ccov::util::json
