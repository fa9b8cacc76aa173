// Named metrics of one benchmark run: values with units, series with
// their order statistics, and metrics marked n/a with the reason.
#pragma once

#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct MetricSpec {
  std::string name;
  std::string unit;
};

class Report {
 public:
  struct Entry {
    std::string unit;
    std::optional<double> value;    ///< empty when n/a
    std::optional<Summary> series;  ///< set for metrics summarized from samples
    std::string note;               ///< n/a reason, or how it was measured
    std::vector<double> samples;    ///< the series' samples, in order
  };

  void set(const std::string& name, double value, const std::string& unit,
           const std::string& note = {});

  /// Median of `samples` as the value; the summary is kept for the table.
  void series(const std::string& name, const std::vector<double>& samples,
              const std::string& unit, const std::string& note = {});

  /// A per-call timing of a layer: `name` is the median, `name.p90` the
  /// 90th percentile (n/a below 100 calls, where p90 has fewer than ten
  /// samples beyond it) and `name.calls` the call count.
  void layer_timing(const std::string& name, const std::vector<double>& samples);

  void na(const std::string& name, const std::string& unit, const std::string& reason);

  /// Mark a layer timing and its .p90 and .calls n/a.
  void na_layer_timing(const std::string& name, const std::string& reason);

  bool has(const std::string& name) const { return entries_.count(name) != 0; }
  const Entry& at(const std::string& name) const { return entries_.at(name); }
  double value(const std::string& name) const;  ///< throws if absent or n/a

  /// Names in `required` that are neither measured nor marked n/a.
  std::vector<std::string> missing(const std::vector<std::string>& required) const;

  /// Human-readable table of every entry.
  void print_table(std::ostream& out) const;

  /// The metrics object of the result line: {"name": {"value": v, "unit": u}}
  /// for each spec (all must hold a value).
  void write_metrics_json(std::ostream& out, const std::vector<MetricSpec>& specs) const;

  /// Every entry as JSON (n/a ones with their reason).
  void write_full_json(std::ostream& out) const;

 private:
  std::map<std::string, Entry> entries_;
};

/// A number in JSON with all its digits (NaN/inf become null).
std::string json_number(double v);
std::string json_string(const std::string& s);

}  // namespace perfbench
