#include "hyperpart/util/cli.hpp"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <sstream>

namespace hp::cli {

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> parts;
  for (;;) {
    const std::size_t at = text.find(sep);
    parts.push_back(text.substr(0, at));
    if (at == std::string_view::npos) return parts;
    text.remove_prefix(at + 1);
  }
}

Parser::Parser(std::string program, std::string synopsis)
    : program_(std::move(program)), synopsis_(std::move(synopsis)) {}

Parser& Parser::custom(std::string name, std::string placeholder,
                       std::string expected, Setter set) {
  flags_.push_back(Flag{std::move(name), std::move(placeholder),
                        std::move(expected), std::move(set)});
  return *this;
}

Parser& Parser::flag(std::string name, bool& target, bool value) {
  return custom(std::move(name), "", "", [&target, value](std::string_view) {
    target = value;
    return true;
  });
}

Parser& Parser::choice(std::string name, std::string& target,
                       const std::vector<std::string>& names) {
  std::vector<std::pair<std::string, std::string>> choices;
  for (const std::string& n : names) choices.emplace_back(n, n);
  return choice<std::string>(std::move(name), target, std::move(choices));
}

Parser& Parser::positional(std::string placeholder,
                           std::vector<std::string>& target,
                           std::size_t min_count, std::size_t max_count) {
  positional_placeholder_ = std::move(placeholder);
  positional_ = &target;
  positional_min_ = min_count;
  positional_max_ = max_count;
  return *this;
}

Parser& Parser::epilogue(std::string text) {
  epilogue_ = std::move(text);
  return *this;
}

std::optional<std::string> Parser::try_parse(int argc,
                                             const char* const* argv) const {
  std::size_t positionals = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto f = std::find_if(flags_.begin(), flags_.end(),
                                [&](const Flag& g) { return g.name == arg; });
    if (f == flags_.end()) {
      if (arg.size() > 1 && arg.front() == '-') {
        return "unknown flag '" + std::string(arg) + "'";
      }
      if (positional_ == nullptr || positionals == positional_max_) {
        return "unexpected argument '" + std::string(arg) + "'";
      }
      positional_->emplace_back(arg);
      ++positionals;
    } else if (f->placeholder.empty()) {
      f->set({});
    } else if (i + 1 == argc) {
      return f->name + " expects a value";
    } else if (const std::string_view value = argv[++i]; !f->set(value)) {
      return "invalid value '" + std::string(value) + "' for " + f->name +
             (f->expected.empty() ? "" : " (" + f->expected + ")");
    }
  }
  if (positionals < positional_min_) {
    return "missing " + positional_placeholder_;
  }
  return std::nullopt;
}

void Parser::parse(int argc, const char* const* argv) const {
  if (const auto error = try_parse(argc, argv)) fail(*error);
}

void Parser::fail(const std::string& message) const {
  std::cerr << "error: " << message << "\n" << usage();
  std::exit(2);
}

std::string Parser::usage() const {
  // Descriptions start in one column; a longer head gets its own line.
  constexpr std::size_t kColumn = 28;
  std::string out = "usage: " + program_ + ' ' + synopsis_ + "\noptions:\n";
  for (const Flag& f : flags_) {
    const std::string head =
        "  " + f.name + (f.placeholder.empty() ? "" : " " + f.placeholder);
    out += head;
    if (!f.expected.empty()) {
      out += head.size() < kColumn ? std::string(kColumn - head.size(), ' ')
                                   : '\n' + std::string(kColumn, ' ');
      out += f.expected;
    }
    out += '\n';
  }
  return out + epilogue_;
}

std::string Parser::range_text(const std::string& min_value,
                               const std::string& max_value, bool open) {
  return open ? ">= " + min_value : "in [" + min_value + ", " + max_value + "]";
}

std::string Parser::number_text(double value) {
  std::ostringstream out;
  out << value;
  return out.str();
}

std::string Parser::alternatives(const std::vector<std::string>& names) {
  if (names.size() <= 2) return join(names, " or ");
  std::string out;
  for (std::size_t i = 0; i + 1 < names.size(); ++i) out += names[i] + ", ";
  return out + "or " + names.back();
}

std::string Parser::join(const std::vector<std::string>& parts,
                         const char* sep) {
  std::string out;
  for (const std::string& p : parts) out += (out.empty() ? "" : sep) + p;
  return out;
}

}  // namespace hp::cli
