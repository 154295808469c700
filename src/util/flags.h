// Minimal command-line flag parsing for the repository's CLI tools.
//
// Syntax: `--name value`, `--name=value`, or bare `--switch` (boolean).
// Positional arguments (no leading --) are collected in order.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace car::util {

class Flags {
 public:
  /// Parse argv (excluding argv[0]).  Throws std::invalid_argument on
  /// malformed input (e.g. `--` with no name).
  static Flags parse(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;

  /// String value; `fallback` when absent.
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback = "") const;

  /// Integer value; throws std::invalid_argument when present but
  /// unparseable.
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;

  /// Floating-point value; throws std::invalid_argument when unparseable.
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;

  /// Boolean switch: present with no value (or "true"/"1") -> true.
  [[nodiscard]] bool get_bool(const std::string& name,
                              bool fallback = false) const;

  /// Boundary check for a command's flags, run before the command does any
  /// work.  Throws std::invalid_argument naming `command` and the flag when
  /// a flag is not in `known`, or when a flag in `non_negative` (counts and
  /// sizes) is not a number >= 0.
  void check(std::string_view command, std::span<const std::string_view> known,
             std::span<const std::string_view> non_negative) const;

  /// Comma-separated list of non-negative integers ("4,3,3").
  [[nodiscard]] std::vector<std::size_t> get_size_list(
      const std::string& name,
      const std::vector<std::size_t>& fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace car::util
