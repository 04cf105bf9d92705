#include "common/flags.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace interedge {

flag_set::flag_set(int argc, char** argv, std::vector<std::string> known) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    std::string name, value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      name = arg;
      value = argv[++i];
    } else {
      name = arg;
      value = "true";  // bare flag
    }
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      throw std::runtime_error("unknown flag --" + name);
    }
    values_[name] = value;
  }
}

flag_set flag_set::parse_or_exit(int argc, char** argv, std::vector<std::string> known) {
  try {
    return flag_set(argc, argv, known);
  } catch (const std::runtime_error& e) {
    std::string usage = std::string("usage: ") + (argc > 0 ? argv[0] : "program");
    for (const std::string& name : known) usage += " [--" + name + "=...]";
    std::fprintf(stderr, "%s\n%s\n", e.what(), usage.c_str());
    std::exit(2);
  }
}

std::string flag_set::get(const std::string& name, const std::string& default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

std::int64_t flag_set::get_int(const std::string& name, std::int64_t default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : std::stoll(it->second);
}

double flag_set::get_double(const std::string& name, double default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : std::stod(it->second);
}

bool flag_set::get_bool(const std::string& name, bool default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

}  // namespace interedge
