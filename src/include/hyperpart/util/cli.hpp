#pragma once
// Declarative command-line flag table shared by every tool and bench binary.
//
// A program declares each flag once — name, value placeholder (none for a
// switch), target variable, and for numbers the accepted range — and the
// parser owns the rest: walking argv, checked numeric conversion via
// util/parse.hpp, every diagnostic, and the usage text, which is generated
// from the same table so it cannot drift from what is accepted.
//
// Error contract: a malformed command line prints exactly one `error:` line
// and then the usage on stderr, and exits with code 2. The diagnostics are
//   error: invalid value 'TOK' for --flag (EXPECTED)
//   error: --flag expects a value
//   error: unknown flag '--x'
//   error: unexpected argument 'x'   /   error: missing <placeholder>
// fail() applies the same contract to checks a tool makes after parsing;
// try_parse() returns the diagnostic instead of exiting.
//
// A flag's value is always the next token, even when it starts with '-'.
// A token that is not a registered flag is a positional argument unless it
// starts with '-' and is not "-" alone, which makes it an unknown flag.
// Repeating a non-repeatable flag keeps the last value.

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "hyperpart/util/parse.hpp"

namespace hp::cli {

/// T for both `T` and `std::optional<T>` flag targets; an optional target
/// records whether the flag was given at all.
template <typename T> struct Underlying { using type = T; };
template <typename T> struct Underlying<std::optional<T>> { using type = T; };

/// The largest value of integer type Int.
template <typename Int>
inline constexpr auto kMaxOf =
    static_cast<std::uint64_t>(std::numeric_limits<Int>::max());

/// Default upper bound of a real-valued flag: large enough for any
/// tolerance or epsilon, small enough that arithmetic on it cannot overflow.
inline constexpr double kRealMax = 1e9;

/// Split `text` at every `sep`; empty pieces are kept.
[[nodiscard]] std::vector<std::string_view> split(std::string_view text,
                                                  char sep);

class Parser {
 public:
  /// Receives a flag's value token; false rejects it.
  using Setter = std::function<bool(std::string_view)>;

  /// `synopsis` follows "usage: <program> " and may span several lines.
  Parser(std::string program, std::string synopsis);

  /// A flag whose value `set` parses; a rejected token is reported as an
  /// invalid value described by `expected` (omitted when empty).
  Parser& custom(std::string name, std::string placeholder,
                 std::string expected, Setter set);

  /// A string flag (`std::string` or `std::optional<std::string>` target).
  template <typename S>
  Parser& text(std::string name, std::string placeholder, S& target) {
    return custom(std::move(name), std::move(placeholder), "",
                  [&target](std::string_view v) {
                    target = std::string(v);
                    return true;
                  });
  }

  /// A repeatable string flag; every occurrence is inserted at the end of
  /// `target` (a std::vector keeps them in order, a std::set dedups).
  template <typename C>
  Parser& list(std::string name, std::string placeholder, C& target) {
    return custom(std::move(name), std::move(placeholder) + "...", "",
                  [&target](std::string_view v) {
                    target.insert(target.end(), std::string(v));
                    return true;
                  });
  }

  /// A switch: takes no value and sets `target` to `value`.
  Parser& flag(std::string name, bool& target, bool value = true);

  /// An integer flag in [min_value, max_value], of any width; the default
  /// maximum is the target type's.
  template <typename T, typename Int = typename Underlying<T>::type>
  Parser& integer(std::string name, std::string placeholder, T& target,
                  std::uint64_t min_value,
                  std::uint64_t max_value = kMaxOf<Int>) {
    const bool open = max_value == kMaxOf<Int>;
    return custom(std::move(name), std::move(placeholder),
                  "integer " + range_text(std::to_string(min_value),
                                          std::to_string(max_value), open),
                  [&target, min_value, max_value](std::string_view v) {
                    const auto parsed = parse_u64(v, min_value, max_value);
                    if (parsed) target = static_cast<Int>(*parsed);
                    return parsed.has_value();
                  });
  }

  /// A finite real flag in [min_value, max_value].
  template <typename T>
  Parser& real(std::string name, std::string placeholder, T& target,
               double min_value, double max_value = kRealMax) {
    return custom(std::move(name), std::move(placeholder),
                  "finite number " + range_text(number_text(min_value),
                                                number_text(max_value),
                                                max_value == kRealMax),
                  [&target, min_value, max_value](std::string_view v) {
                    const auto parsed = parse_f64(v, min_value, max_value);
                    if (parsed) target = *parsed;
                    return parsed.has_value();
                  });
  }

  /// A flag whose value is one of a fixed set of names, each mapped to the
  /// value stored in `target`; the placeholder is "a|b|...".
  template <typename T>
  Parser& choice(std::string name, T& target,
                 std::vector<std::pair<std::string, T>> choices) {
    std::vector<std::string> names;
    for (const auto& c : choices) names.push_back(c.first);
    return custom(std::move(name), join(names, "|"), alternatives(names),
                  [&target, choices = std::move(choices)](std::string_view v) {
                    for (const auto& [key, value] : choices) {
                      if (v != key) continue;
                      target = value;
                      return true;
                    }
                    return false;
                  });
  }

  /// A string choice flag: `target` receives the name itself.
  Parser& choice(std::string name, std::string& target,
                 const std::vector<std::string>& names);

  /// Positional arguments, collected in order; fewer than `min_count` or
  /// more than `max_count` is a usage error.
  Parser& positional(std::string placeholder, std::vector<std::string>& target,
                     std::size_t min_count, std::size_t max_count);

  /// Free text printed after the flag list (presets, families, ops).
  Parser& epilogue(std::string text);

  /// Parse argv[1..argc): nullopt on success, else the diagnostic without
  /// its "error: " prefix. Flags before the error keep their new values.
  [[nodiscard]] std::optional<std::string> try_parse(
      int argc, const char* const* argv) const;

  /// try_parse, exiting through fail() on a diagnostic.
  void parse(int argc, const char* const* argv) const;

  /// Print "error: <message>" and then the usage to stderr; exit 2.
  [[noreturn]] void fail(const std::string& message) const;

  /// The generated usage: synopsis, one line per flag, epilogue.
  [[nodiscard]] std::string usage() const;

 private:
  struct Flag {
    std::string name;
    std::string placeholder;  ///< empty for a switch
    std::string expected;
    Setter set;
  };

  /// ">= MIN" when `open`, else "in [MIN, MAX]".
  static std::string range_text(const std::string& min_value,
                                const std::string& max_value, bool open);
  static std::string number_text(double value);
  /// "a or b" / "a, b, or c".
  static std::string alternatives(const std::vector<std::string>& names);
  static std::string join(const std::vector<std::string>& parts,
                          const char* sep);

  std::string program_;
  std::string synopsis_;
  std::string epilogue_;
  std::vector<Flag> flags_;
  std::string positional_placeholder_;
  std::vector<std::string>* positional_ = nullptr;
  std::size_t positional_min_ = 0;
  std::size_t positional_max_ = 0;
};

}  // namespace hp::cli
