// Tiny command-line flag parsing for the examples and bench harnesses.
// Supports --name=value, --name value and bare --name (true); a flag the
// program does not read is an error, so a misspelt one cannot pass
// silently.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace interedge {

class flag_set {
 public:
  // Parses argv against `known`, the names of the flags the program reads;
  // throws std::runtime_error naming the first unknown flag.
  flag_set(int argc, char** argv, std::vector<std::string> known);

  // For main(): parses as above; on an error prints it and a usage line
  // listing `known` to stderr and exits with status 2.
  static flag_set parse_or_exit(int argc, char** argv, std::vector<std::string> known);

  std::string get(const std::string& name, const std::string& default_value) const;
  std::int64_t get_int(const std::string& name, std::int64_t default_value) const;
  double get_double(const std::string& name, double default_value) const;
  bool get_bool(const std::string& name, bool default_value) const;
  bool has(const std::string& name) const { return values_.count(name) > 0; }

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace interedge
