#include "util/flags.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/check.h"

namespace car::util {

Flags Flags::parse(int argc, const char* const* argv) {
  Flags flags;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!arg.starts_with("--")) {
      flags.positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    CAR_CHECK(!body.empty(), "Flags: bare '--' is not a valid flag");
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags.values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--name value` unless the next token is another flag (then boolean).
    if (i + 1 < argc && !std::string_view(argv[i + 1]).starts_with("--")) {
      flags.values_[body] = argv[++i];
    } else {
      flags.values_[body] = "true";
    }
  }
  return flags;
}

bool Flags::has(const std::string& name) const {
  return values_.contains(name);
}

std::string Flags::get(const std::string& name,
                       const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Flags::get_int(const std::string& name,
                            std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  try {
    std::size_t pos = 0;
    const std::int64_t value = std::stoll(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument("trailing");
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("Flags: --" + name +
                                " expects an integer, got '" + it->second +
                                "'");
  }
}

double Flags::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  double value = 0.0;
  try {
    std::size_t pos = 0;
    value = std::stod(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument("trailing");
  } catch (const std::exception&) {
    throw std::invalid_argument("Flags: --" + name +
                                " expects a number, got '" + it->second + "'");
  }
  if (!std::isfinite(value)) {
    throw std::invalid_argument("Flags: --" + name +
                                " expects a finite number, got '" +
                                it->second + "'");
  }
  return value;
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

void Flags::check(std::string_view command,
                  std::span<const std::string_view> known,
                  std::span<const std::string_view> non_negative,
                  std::span<const std::string_view> nonzero) const {
  const auto listed = [](std::span<const std::string_view> names,
                         const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  const std::string who(command);
  for (const auto& [name, value] : values_) {
    if (!listed(known, name)) {
      throw std::invalid_argument(who + ": unknown flag --" + name);
    }
    if (!listed(non_negative, name)) continue;
    double number = 0.0;
    try {
      number = get_double(name, 0.0);
    } catch (const std::invalid_argument&) {
      number = -1.0;  // reported below with the flag's own text
    }
    // `!(x >= 0)` also rejects NaN.
    if (!(number >= 0.0)) {
      throw std::invalid_argument(who + ": --" + name +
                                  " must be a non-negative number, got '" +
                                  value + "'");
    }
    if (number < 1.0 && listed(nonzero, name)) {
      throw std::invalid_argument(who + ": --" + name +
                                  " must be at least 1, got '" + value + "'");
    }
  }
}

void Flags::check_bytes_fit(std::string_view command, const std::string& name,
                            std::uint64_t unit) const {
  if (!has(name)) return;
  // 2^64 is exact in a double, and every non-negative double below it
  // converts to uint64_t.
  if (!(get_double(name, 0.0) * static_cast<double>(unit) <
        18446744073709551616.0)) {
    throw std::invalid_argument(std::string(command) + ": --" + name +
                                " must be under 2^64 bytes, got '" +
                                get(name) + "'");
  }
}

std::vector<std::size_t> Flags::get_size_list(
    const std::string& name, const std::vector<std::size_t>& fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  std::vector<std::size_t> out;
  std::string token;
  for (char ch : it->second + ",") {
    if (ch == ',') {
      if (token.empty()) continue;
      try {
        out.push_back(static_cast<std::size_t>(std::stoull(token)));
      } catch (const std::exception&) {
        throw std::invalid_argument("Flags: --" + name +
                                    " expects a comma-separated list of "
                                    "integers, got '" + it->second + "'");
      }
      token.clear();
    } else {
      token += ch;
    }
  }
  return out;
}

}  // namespace car::util
