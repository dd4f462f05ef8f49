#include "util/flags.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <type_traits>

namespace aujoin {
namespace {

/// Parses all of `text`, the value (or one list item) of --KEY, as a T,
/// or exits 1 naming the flag: atoll and atof would read "abc" as 0 and
/// "4x" as 4.
template <typename T>
T ParseWhole(const std::string& key, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end) {
    std::fprintf(stderr, "error: --%s must be %s (got '%s')\n", key.c_str(),
                 std::is_integral_v<T> ? "an integer" : "a number",
                 text.c_str());
    std::exit(1);
  }
  return value;
}

/// Parses each non-empty comma-separated item of `text` with ParseWhole.
template <typename T>
std::vector<T> ParseList(const std::string& key, const std::string& text) {
  std::vector<T> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(ParseWhole<T>(key, item));
  }
  return out;
}

}  // namespace

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq == std::string::npos) {
      values_[arg] = "true";
    } else {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
}

bool Flags::Has(const std::string& key) const {
  return values_.count(key) > 0;
}

std::string Flags::GetString(const std::string& key,
                             const std::string& default_value) const {
  auto it = values_.find(key);
  return it == values_.end() ? default_value : it->second;
}

int64_t Flags::GetInt(const std::string& key, int64_t default_value) const {
  auto it = values_.find(key);
  return it == values_.end() ? default_value
                             : ParseWhole<int64_t>(key, it->second);
}

double Flags::GetDouble(const std::string& key, double default_value) const {
  auto it = values_.find(key);
  return it == values_.end() ? default_value
                             : ParseWhole<double>(key, it->second);
}

bool Flags::GetBool(const std::string& key, bool default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<double> Flags::GetDoubleList(
    const std::string& key, const std::vector<double>& defaults) const {
  auto it = values_.find(key);
  if (it == values_.end()) return defaults;
  std::vector<double> out = ParseList<double>(key, it->second);
  return out.empty() ? defaults : out;
}

std::vector<int64_t> Flags::GetIntList(
    const std::string& key, const std::vector<int64_t>& defaults) const {
  auto it = values_.find(key);
  if (it == values_.end()) return defaults;
  std::vector<int64_t> out = ParseList<int64_t>(key, it->second);
  return out.empty() ? defaults : out;
}

}  // namespace aujoin
