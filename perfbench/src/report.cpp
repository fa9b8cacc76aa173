#include "report.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void Report::set(const std::string& name, double value, const std::string& unit,
                 const std::string& note) {
  entries_[name] = Entry{unit, value, std::nullopt, note, {}};
}

void Report::series(const std::string& name, const std::vector<double>& samples,
                    const std::string& unit, const std::string& note) {
  const Summary s = summarize(samples);
  entries_[name] = Entry{unit, s.median, s, note, samples};
}

void Report::layer_timing(const std::string& name, const std::vector<double>& samples) {
  series(name, samples, "s", "median per call");
  set(name + ".calls", static_cast<double>(samples.size()), "count");
  if (samples.size() >= 100) {
    set(name + ".p90", percentile(samples, 90.0), "s", "per call");
  } else {
    na(name + ".p90", "s",
       std::to_string(samples.size()) + " calls; p90 needs 100 for ten samples beyond it");
  }
}

void Report::na(const std::string& name, const std::string& unit,
                const std::string& reason) {
  entries_[name] = Entry{unit, std::nullopt, std::nullopt, reason, {}};
}

void Report::na_layer_timing(const std::string& name, const std::string& reason) {
  na(name, "s", reason);
  na(name + ".p90", "s", reason);
  na(name + ".calls", "count", reason);
}

double Report::value(const std::string& name) const {
  const auto it = entries_.find(name);
  if (it == entries_.end() || !it->second.value) {
    throw std::runtime_error("metric '" + name + "' was not measured");
  }
  return *it->second.value;
}

std::vector<std::string> Report::missing(const std::vector<std::string>& required) const {
  std::vector<std::string> out;
  for (const auto& name : required) {
    if (!has(name)) out.push_back(name);
  }
  return out;
}

void Report::print_table(std::ostream& out) const {
  char line[512];
  for (const auto& [name, e] : entries_) {
    if (!e.value) {
      std::snprintf(line, sizeof line, "  %-44s %14s %-8s %s\n", name.c_str(), "n/a",
                    e.unit.c_str(), e.note.c_str());
    } else if (e.series && e.series->quartiles) {
      const Summary& s = *e.series;
      std::string tail = "-";
      if (s.tail) {
        char t[64];
        std::snprintf(t, sizeof t, "p%g=%.6g", *s.tail_p, *s.tail);
        tail = t;
      }
      std::snprintf(line, sizeof line,
                    "  %-44s %14.6g %-8s n=%zu q1=%.6g q3=%.6g %s %s\n", name.c_str(),
                    *e.value, e.unit.c_str(), s.n, s.quartiles->q1, s.quartiles->q3,
                    tail.c_str(), e.note.c_str());
    } else {
      std::snprintf(line, sizeof line, "  %-44s %14.6g %-8s %s\n", name.c_str(), *e.value,
                    e.unit.c_str(), e.note.c_str());
    }
    out << line;
  }
}

void Report::write_metrics_json(std::ostream& out,
                                const std::vector<MetricSpec>& specs) const {
  out << "{";
  bool first = true;
  for (const auto& spec : specs) {
    out << (first ? "" : ", ") << json_string(spec.name) << ": {\"value\": "
        << json_number(value(spec.name)) << ", \"unit\": " << json_string(spec.unit)
        << "}";
    first = false;
  }
  out << "}";
}

void Report::write_full_json(std::ostream& out) const {
  out << "{";
  bool first = true;
  for (const auto& [name, e] : entries_) {
    out << (first ? "\n" : ",\n") << "  " << json_string(name) << ": {\"unit\": "
        << json_string(e.unit);
    if (e.value) {
      out << ", \"value\": " << json_number(*e.value);
    } else {
      out << ", \"value\": null, \"na\": " << json_string(e.note);
    }
    if (e.series) {
      out << ", \"n\": " << e.series->n;
      if (e.series->quartiles) {
        out << ", \"q1\": " << json_number(e.series->quartiles->q1)
            << ", \"q3\": " << json_number(e.series->quartiles->q3);
      }
      if (e.series->tail) {
        out << ", \"tail_percentile\": " << json_number(*e.series->tail_p)
            << ", \"tail\": " << json_number(*e.series->tail);
      }
      // Short series (one value per run() call) are kept whole.
      if (e.samples.size() <= 32) {
        out << ", \"samples\": [";
        for (std::size_t i = 0; i < e.samples.size(); ++i) {
          out << (i == 0 ? "" : ", ") << json_number(e.samples[i]);
        }
        out << "]";
      }
    }
    if (e.value && !e.note.empty()) out << ", \"note\": " << json_string(e.note);
    out << "}";
    first = false;
  }
  out << "\n}\n";
}

}  // namespace perfbench
