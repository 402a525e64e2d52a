#include "metrics/json.h"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/parse.h"

namespace coopnet::metrics {

namespace {

/// Formats a double as a JSON number, or null when non-finite.
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

class Writer {
 public:
  explicit Writer(int indent) : indent_(indent) {}

  void open(char bracket) {
    pad();
    os_ << bracket << '\n';
    ++depth_;
    first_in_scope_ = true;
  }
  void close(char bracket) {
    --depth_;
    os_ << '\n';
    pad();
    os_ << bracket;
    first_in_scope_ = false;
  }
  void key(const std::string& name) {
    comma();
    pad();
    os_ << '"' << json_escape(name) << "\": ";
  }
  void raw(const std::string& value) { os_ << value; }
  void field(const std::string& name, const std::string& raw_value) {
    key(name);
    os_ << raw_value;
  }
  void string_field(const std::string& name, const std::string& value) {
    // Streamed piecewise (not built with operator+): the temporary-concat
    // form trips GCC 12's -Wrestrict false positive (PR 105329) at -O2,
    // which the -Werror CI lint build would turn fatal.
    key(name);
    os_ << '"' << json_escape(value) << '"';
  }
  void array_field(const std::string& name,
                   const std::vector<double>& values) {
    key(name);
    os_ << '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i) os_ << ',';
      os_ << num(values[i]);
    }
    os_ << ']';
  }
  std::string str() const { return os_.str(); }

  /// Begins a nested object value after key().
  void begin_object() {
    os_ << "{\n";
    ++depth_;
    first_in_scope_ = true;
  }
  void end_object() {
    --depth_;
    os_ << '\n';
    pad();
    os_ << '}';
    first_in_scope_ = false;
  }

 private:
  void comma() {
    if (!first_in_scope_) os_ << ",\n";
    first_in_scope_ = false;
  }
  void pad() {
    for (int i = 0; i < depth_ * indent_; ++i) os_ << ' ';
  }

  std::ostringstream os_;
  int indent_;
  int depth_ = 0;
  bool first_in_scope_ = true;
};

void series_object(Writer& w, const std::string& name,
                   const util::TimeSeries& series) {
  w.key(name);
  w.begin_object();
  std::vector<double> times, values;
  times.reserve(series.size());
  values.reserve(series.size());
  for (const auto& p : series.points()) {
    times.push_back(p.time);
    values.push_back(p.value);
  }
  w.array_field("time", times);
  w.array_field("value", values);
  w.end_object();
}

void summary_object(Writer& w, const std::string& name,
                    const util::Summary& s) {
  w.key(name);
  w.begin_object();
  w.field("count", std::to_string(s.count));
  w.field("mean", num(s.mean));
  w.field("stddev", num(s.stddev));
  w.field("min", num(s.min));
  w.field("p25", num(s.p25));
  w.field("median", num(s.median));
  w.field("p75", num(s.p75));
  w.field("p90", num(s.p90));
  w.field("p99", num(s.p99));
  w.field("max", num(s.max));
  w.end_object();
}

void fault_object(Writer& w, const std::string& name,
                  const sim::FaultStats& f) {
  w.key(name);
  w.begin_object();
  w.field("transfer_failures", std::to_string(f.transfer_failures));
  w.field("transfer_stalls", std::to_string(f.transfer_stalls));
  w.field("uploader_vanished", std::to_string(f.uploader_vanished));
  w.field("retries_scheduled", std::to_string(f.retries_scheduled));
  w.field("retry_successes", std::to_string(f.retry_successes));
  w.field("retries_dropped", std::to_string(f.retries_dropped));
  w.field("transfers_abandoned", std::to_string(f.transfers_abandoned));
  w.field("churn_departures", std::to_string(f.churn_departures));
  w.field("churn_rejoins", std::to_string(f.churn_rejoins));
  w.field("churn_losses", std::to_string(f.churn_losses));
  w.field("seeder_outages", std::to_string(f.seeder_outages));
  w.field("offered_bytes", std::to_string(f.offered_bytes));
  w.field("goodput_bytes", std::to_string(f.goodput_bytes));
  w.end_object();
}

/// util::g17, so a finite double round-trips bit-exactly (fluid golden
/// files are byte-compared); non-finite maps to null.
std::string num17(double v) {
  return std::isfinite(v) ? util::g17(v) : "null";
}

void curve_object(Writer& w, const std::string& name,
                  const std::vector<util::TimePoint>& points) {
  w.key(name);
  w.begin_object();
  w.key("time");
  w.raw("[");
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i) w.raw(",");
    w.raw(num17(points[i].time));
  }
  w.raw("]");
  w.key("value");
  w.raw("[");
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i) w.raw(",");
    w.raw(num17(points[i].value));
  }
  w.raw("]");
  w.end_object();
}

void fluid_body(Writer& w, const core::FluidReport& r) {
  w.begin_object();
  w.string_field("backend", "fluid");
  w.string_field("algorithm", core::to_string(r.algorithm));
  w.field("dt", num17(r.dt));
  w.field("horizon", num17(r.horizon));
  w.field("steps", std::to_string(r.steps));
  w.field("end_time", num17(r.end_time));
  w.field("population", num17(r.population));
  w.field("compliant_population", num17(r.compliant_population));
  w.field("freerider_population", num17(r.freerider_population));
  w.field("arrived", num17(r.arrived));
  w.field("completed", num17(r.completed));
  w.field("completed_compliant", num17(r.completed_compliant));
  w.field("churned_lost", num17(r.churned_lost));
  w.field("conservation_residual", num17(r.conservation_residual));
  w.field("leechers_final", num17(r.leechers_final));
  w.field("seeders_final", num17(r.seeders_final));
  w.field("offline_final", num17(r.offline_final));
  w.field("peak_leechers", num17(r.peak_leechers));
  w.field("completed_fraction", num17(r.completed_fraction));
  w.field("mean_completion_time", num17(r.mean_completion_time));
  w.field("goodput_bytes", num17(r.goodput_bytes));
  w.field("offered_bytes", num17(r.offered_bytes));
  w.field("goodput_ratio", num17(r.goodput_ratio));
  curve_object(w, "completion_curve", r.completion_curve);
  curve_object(w, "leecher_curve", r.leecher_curve);
  curve_object(w, "seeder_curve", r.seeder_curve);
  w.end_object();
}

void report_body(Writer& w, const RunReport& r) {
  w.begin_object();
  w.string_field("algorithm", core::to_string(r.algorithm));
  w.field("compliant_population", std::to_string(r.compliant_population));
  w.field("freerider_population", std::to_string(r.freerider_population));
  w.field("sim_end_time", num(r.sim_end_time));
  w.field("completed_fraction", num(r.completed_fraction));
  w.field("bootstrapped_fraction", num(r.bootstrapped_fraction));
  w.field("settled_fairness", num(r.settled_fairness));
  w.field("final_fairness_F", num(r.final_fairness_F));
  w.field("susceptibility", num(r.susceptibility));
  w.field("total_uploaded_bytes", std::to_string(r.total_uploaded_bytes));
  w.field("total_downloaded_raw_bytes",
          std::to_string(r.total_downloaded_raw_bytes));
  w.field("goodput_ratio", num(r.goodput_ratio));
  fault_object(w, "faults", r.faults);
  summary_object(w, "completion_summary", r.completion_summary);
  summary_object(w, "bootstrap_summary", r.bootstrap_summary);
  w.array_field("completion_times", r.completion_times);
  w.array_field("bootstrap_times", r.bootstrap_times);
  series_object(w, "fairness_series", r.fairness_series);
  series_object(w, "susceptibility_series", r.susceptibility_series);
  w.end_object();
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char raw : s) {
    const auto c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += raw;
        }
    }
  }
  return out;
}

std::string json_unescape(const std::string& s) {
  auto hex = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out += s[i];
      continue;
    }
    const char e = s[++i];
    switch (e) {
      case '"':
        out += '"';
        break;
      case '\\':
        out += '\\';
        break;
      case 'n':
        out += '\n';
        break;
      case 'r':
        out += '\r';
        break;
      case 't':
        out += '\t';
        break;
      case 'u': {
        int code = 0;
        bool valid = i + 4 < s.size();
        for (std::size_t k = 1; valid && k <= 4; ++k) {
          const int d = hex(s[i + k]);
          if (d < 0) {
            valid = false;
          } else {
            code = code * 16 + d;
          }
        }
        if (valid && code < 0x100) {
          out += static_cast<char>(code);
          i += 4;
        } else {
          out += "\\u";  // not ours; keep literal
        }
        break;
      }
      default:
        // Unknown escape: keep both characters literally.
        out += '\\';
        out += e;
    }
  }
  return out;
}

std::string to_json(const RunReport& report, int indent) {
  Writer w(indent);
  report_body(w, report);
  return w.str();
}

std::string to_json(const core::FluidReport& report, int indent) {
  Writer w(indent);
  fluid_body(w, report);
  return w.str();
}

std::string to_json(const std::vector<RunReport>& reports, int indent) {
  std::string out = "[\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (i) out += ",\n";
    out += to_json(reports[i], indent);
  }
  out += "\n]";
  return out;
}

}  // namespace coopnet::metrics
