// SPDX-License-Identifier: MIT
#include "scenario/spec.hpp"

#include <fstream>
#include <sstream>

#include "util/parse_number.hpp"

namespace cobra::scenario {

namespace {

std::string_view trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() &&
         (text.back() == ' ' || text.back() == '\t' || text.back() == '\r')) {
    text.remove_suffix(1);
  }
  return text;
}

/// Concatenates string pieces by appending. GCC 12 reports a false
/// -Wrestrict overlap in `"literal" + std::string(...)`, which inserts at
/// the front of a temporary; appends to one string do not trip it.
template <typename... Parts>
std::string concat(const Parts&... parts) {
  std::string out;
  (out.append(std::string_view(parts)), ...);
  return out;
}

[[noreturn]] void fail_at(const std::string& source, std::size_t line,
                          const std::string& message) {
  throw SpecError(source + ":" + std::to_string(line) + ": " + message);
}

std::int64_t parse_int(const std::string& source, std::size_t line,
                       std::string_view text, std::string_view what) {
  std::int64_t value = 0;
  if (!parse_integer(text, value)) {
    fail_at(source, line,
            std::string(what) + " expects an integer, got '" +
                std::string(text) + "'");
  }
  return value;
}

}  // namespace

const SpecEntry* SpecSection::find(std::string_view key) const {
  for (const auto& entry : entries) {
    if (entry.key == key) return &entry;
  }
  return nullptr;
}

ScenarioSpec ScenarioSpec::parse(std::istream& is, std::string source) {
  ScenarioSpec spec;
  spec.source_ = std::move(source);
  std::string raw;
  std::size_t line_no = 0;
  SpecSection* current = nullptr;
  while (std::getline(is, raw)) {
    ++line_no;
    // Strip comments ('#' anywhere) before trimming.
    if (const auto hash = raw.find('#'); hash != std::string::npos) {
      raw.erase(hash);
    }
    const std::string_view line = trim(raw);
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']') {
        fail_at(spec.source_, line_no, "unterminated section header");
      }
      const std::string_view name = trim(line.substr(1, line.size() - 2));
      if (name.empty()) {
        fail_at(spec.source_, line_no, "empty section name");
      }
      if (spec.section(name) != nullptr) {
        fail_at(spec.source_, line_no,
                "duplicate section [" + std::string(name) + "]");
      }
      spec.sections_.push_back({std::string(name), line_no, {}});
      current = &spec.sections_.back();
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string_view::npos) {
      fail_at(spec.source_, line_no,
              "expected 'key = value' or '[section]', got '" +
                  std::string(line) + "'");
    }
    const std::string_view key = trim(line.substr(0, eq));
    const std::string_view value = trim(line.substr(eq + 1));
    if (key.empty()) {
      fail_at(spec.source_, line_no, "empty key before '='");
    }
    if (current == nullptr) {
      fail_at(spec.source_, line_no,
              concat("'", key, "' appears before any [section]"));
    }
    if (current->find(key) != nullptr) {
      fail_at(spec.source_, line_no,
              "duplicate key '" + std::string(key) + "' in [" + current->name +
                  "]");
    }
    current->entries.push_back(
        {std::string(key), std::string(value), line_no});
  }
  return spec;
}

ScenarioSpec ScenarioSpec::parse_string(std::string_view text,
                                        std::string source) {
  std::istringstream is{std::string(text)};
  return parse(is, std::move(source));
}

ScenarioSpec ScenarioSpec::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw SpecError("cannot open scenario spec '" + path + "'");
  }
  return parse(in, path);
}

void ScenarioSpec::set(std::string_view section, std::string_view key,
                       std::string value) {
  SpecSection& target = section_for_write(section);
  for (auto& entry : target.entries) {
    if (entry.key == key) {
      entry.value = std::move(value);
      return;
    }
  }
  target.entries.push_back({std::string(key), std::move(value), 0});
}

std::string ScenarioSpec::render() const {
  std::string out;
  for (const auto& sec : sections_) {
    if (!out.empty()) out += '\n';
    out += '[';
    out += sec.name;
    out += "]\n";
    for (const auto& entry : sec.entries) {
      out += entry.key;
      out += " = ";
      out += entry.value;
      out += '\n';
    }
  }
  return out;
}

const SpecSection* ScenarioSpec::section(std::string_view name) const {
  for (const auto& sec : sections_) {
    if (sec.name == name) return &sec;
  }
  return nullptr;
}

SpecSection& ScenarioSpec::section_for_write(std::string_view name) {
  for (auto& sec : sections_) {
    if (sec.name == name) return sec;
  }
  sections_.push_back({std::string(name), 0, {}});
  return sections_.back();
}

std::string ScenarioSpec::get(std::string_view section_name,
                              std::string_view key,
                              std::string_view fallback) const {
  const SpecSection* sec = section(section_name);
  if (sec == nullptr) return std::string(fallback);
  const SpecEntry* entry = sec->find(key);
  return entry != nullptr ? entry->value : std::string(fallback);
}

std::int64_t ScenarioSpec::get_int(std::string_view section_name,
                                   std::string_view key,
                                   std::int64_t fallback) const {
  const SpecSection* sec = section(section_name);
  const SpecEntry* entry = sec != nullptr ? sec->find(key) : nullptr;
  if (entry == nullptr) return fallback;
  return parse_int(source_, entry->line, entry->value,
                   concat("[", section_name, "] ", key));
}

std::vector<std::string> expand_values(const std::string& value,
                                       const std::string& context) {
  std::vector<std::string> out;
  // Comma list: each element taken verbatim (no nested ranges).
  if (value.find(',') != std::string::npos) {
    std::size_t begin = 0;
    while (begin <= value.size()) {
      const std::size_t comma = value.find(',', begin);
      const std::size_t end = comma == std::string::npos ? value.size() : comma;
      const std::string item{trim(std::string_view(value).substr(
          begin, end - begin))};
      if (item.empty()) {
        throw SpecError(context + ": empty element in list '" + value + "'");
      }
      out.push_back(item);
      if (comma == std::string::npos) break;
      begin = comma + 1;
    }
    return out;
  }
  const std::size_t dots = value.find("..");
  if (dots == std::string::npos) {
    out.push_back(std::string(trim(value)));
    return out;
  }
  // Range "lo..hi" with optional step suffix "*m" (geometric) or "+s"
  // (arithmetic, the default with s = 1).
  const auto parse_endpoint = [&](std::string_view text,
                                  std::string_view what) {
    std::int64_t v = 0;
    if (!parse_integer(trim(text), v)) {
      throw SpecError(context + ": range " + std::string(what) +
                      " must be an integer, got '" + std::string(trim(text)) +
                      "' in '" + value + "'");
    }
    return v;
  };
  const std::string_view whole(value);
  const std::int64_t lo = parse_endpoint(whole.substr(0, dots), "start");
  std::string_view rest = trim(whole.substr(dots + 2));
  bool geometric = false;
  std::int64_t step = 1;
  const std::size_t op = rest.find_first_of("*+");
  if (op != std::string_view::npos) {
    geometric = rest[op] == '*';
    step = parse_endpoint(rest.substr(op + 1), "step");
    rest = trim(rest.substr(0, op));
  }
  const std::int64_t hi = parse_endpoint(rest, "end");
  if (lo > hi) {
    throw SpecError(context + ": range start exceeds end in '" + value + "'");
  }
  constexpr std::int64_t kMaxEndpoint = 1000000000000000;  // 1e15
  if (lo < -kMaxEndpoint || hi > kMaxEndpoint || step > kMaxEndpoint) {
    throw SpecError(context + ": range endpoints/step must stay within "
                    "+-1e15 in '" + value + "'");
  }
  if (geometric && (step < 2 || lo < 1)) {
    throw SpecError(context + ": geometric range needs factor >= 2 and " +
                    "start >= 1 in '" + value + "'");
  }
  if (!geometric && step < 1) {
    throw SpecError(context + ": arithmetic range needs step >= 1 in '" +
                    value + "'");
  }
  constexpr std::size_t kMaxAxis = 10000;
  for (std::int64_t v = lo;;) {
    out.push_back(std::to_string(v));
    if (out.size() > kMaxAxis) {
      throw SpecError(context + ": range '" + value + "' expands past " +
                      std::to_string(kMaxAxis) + " values");
    }
    // Overflow-safe advance: stop when the next step would pass hi (the
    // division/subtraction forms cannot wrap, unlike v*step / v+step).
    if (geometric ? v > hi / step : v > hi - step) break;
    v = geometric ? v * step : v + step;
  }
  return out;
}

}  // namespace cobra::scenario
