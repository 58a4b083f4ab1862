// SPDX-License-Identifier: MIT
#include "util/flags.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <stdexcept>

#include "util/parse_number.hpp"

namespace cobra {

namespace {

[[noreturn]] void throw_bad_value(const std::string& flag,
                                  const std::string& expects,
                                  const std::string& text) {
  throw std::invalid_argument("flag --" + flag + " expects " + expects +
                              ", got '" + text + "'");
}

}  // namespace

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (!arg.starts_with("--")) {
      positionals_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
      continue;
    }
    // "--name value" if the next token is not itself a flag; bare boolean
    // otherwise.
    if (i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--") {
      values_[std::string(arg)] = argv[i + 1];
      ++i;
    } else {
      values_[std::string(arg)] = "";
    }
  }
}

void Flags::record_query(std::string_view name, std::string_view kind,
                         std::string fallback) const {
  for (const auto& query : queried_) {
    if (query.name == name) return;
  }
  queried_.push_back(
      {std::string(name), std::string(kind), std::move(fallback)});
}

bool Flags::has(std::string_view name) const {
  record_query(name, "flag", "");
  const auto it = values_.find(name);
  if (it == values_.end()) return false;
  consumed_[it->first] = true;
  return true;
}

std::string Flags::get(std::string_view name, std::string_view fallback) const {
  record_query(name, "string", std::string(fallback));
  const auto it = values_.find(name);
  if (it == values_.end()) return std::string(fallback);
  consumed_[it->first] = true;
  return it->second;
}

std::int64_t Flags::get_int(std::string_view name, std::int64_t fallback) const {
  record_query(name, "int", std::to_string(fallback));
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  consumed_[it->first] = true;
  std::int64_t value = 0;
  if (!parse_integer(it->second, value)) {
    throw_bad_value(it->first, "an integer", it->second);
  }
  return value;
}

double Flags::get_double(std::string_view name, double fallback) const {
  {
    char buffer[48];
    std::snprintf(buffer, sizeof buffer, "%g", fallback);
    record_query(name, "number", buffer);
  }
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  consumed_[it->first] = true;
  double value = 0.0;
  if (!parse_number(it->second, value)) {
    throw_bad_value(it->first, "a finite number", it->second);
  }
  return value;
}

std::vector<std::string> Flags::unconsumed() const {
  std::vector<std::string> out;
  for (const auto& [name, value] : values_) {
    (void)value;
    if (const auto it = consumed_.find(name);
        it == consumed_.end() || !it->second) {
      out.push_back(name);
    }
  }
  return out;
}

void Flags::warn_unconsumed(std::ostream& os) const {
  for (const auto& name : unconsumed()) {
    os << "warning: unrecognized flag --" << name << "\n";
  }
}

void Flags::print_help(std::ostream& os) const {
  std::vector<FlagQuery> sorted = queried_;
  std::sort(sorted.begin(), sorted.end(),
            [](const FlagQuery& a, const FlagQuery& b) {
              return a.name < b.name;
            });
  for (const auto& query : sorted) {
    std::string left = "  --" + query.name;
    if (query.kind != "flag") left += " <" + query.kind + ">";
    // Column 28, or one space after a longer name.
    os << left << std::string(left.size() < 28 ? 28 - left.size() : 1, ' ');
    if (query.kind == "flag") {
      os << "(boolean switch)";
    } else {
      os << "default: " << (query.fallback.empty() ? "\"\"" : query.fallback);
    }
    os << "\n";
  }
}

}  // namespace cobra
