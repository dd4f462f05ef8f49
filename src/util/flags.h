#ifndef AUJOIN_UTIL_FLAGS_H_
#define AUJOIN_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace aujoin {

/// Minimal `--key=value` / `--flag` command-line parser for the benchmark
/// harnesses and examples. Unknown keys are kept and queryable so every
/// binary can expose its own knobs without a registry. Integer and
/// number values, and each item of a list, must parse whole
/// (std::from_chars): a malformed one such as `abc` or `4x` exits 1 with
/// an error naming the flag.
class Flags {
 public:
  /// Parses argv; arguments not starting with "--" are collected as
  /// positional.
  Flags(int argc, char** argv);

  bool Has(const std::string& key) const;

  std::string GetString(const std::string& key,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& key, int64_t default_value) const;
  double GetDouble(const std::string& key, double default_value) const;
  bool GetBool(const std::string& key, bool default_value) const;

  /// Comma-separated list of doubles, e.g. --theta=0.75,0.85,0.95.
  std::vector<double> GetDoubleList(const std::string& key,
                                    const std::vector<double>& defaults) const;
  /// Comma-separated list of integers.
  std::vector<int64_t> GetIntList(const std::string& key,
                                  const std::vector<int64_t>& defaults) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace aujoin

#endif  // AUJOIN_UTIL_FLAGS_H_
