#include "telemetry/exporters.hpp"

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "telemetry/span.hpp"

namespace bcwan::telemetry {

namespace {

std::string format_double(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (std::isnan(v)) return "NaN";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string label_suffix(const MetricEntry& e) {
  if (e.label_key.empty()) return "";
  return "{" + e.label_key + "=\"" + e.label_value + "\"}";
}

/// JSON string escaping (metric names and label values are ASCII by
/// convention, but be safe).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = std::isalpha(static_cast<unsigned char>(c)) != 0;
    const bool digit = std::isdigit(static_cast<unsigned char>(c)) != 0;
    if (!(alpha || c == '_' || c == ':' || (digit && i > 0))) return false;
  }
  return true;
}

bool valid_label_name(const std::string& name) {
  if (name.empty()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = std::isalpha(static_cast<unsigned char>(c)) != 0;
    const bool digit = std::isdigit(static_cast<unsigned char>(c)) != 0;
    if (!(alpha || c == '_' || (digit && i > 0))) return false;
  }
  return true;
}

bool parse_sample_value(const std::string& v) {
  if (v == "+Inf" || v == "-Inf" || v == "NaN") return true;
  if (v.empty()) return false;
  char* end = nullptr;
  std::strtod(v.c_str(), &end);
  return end != nullptr && *end == '\0';
}

}  // namespace

std::string render_prometheus(Registry& reg) {
  reg.collect();
  std::string out;
  std::string last_family;
  reg.visit([&](const MetricEntry& e) {
    if (e.family != last_family) {
      last_family = e.family;
      if (!e.help.empty())
        out += "# HELP " + e.family + " " + e.help + "\n";
      const char* type = e.type == MetricType::kCounter    ? "counter"
                         : e.type == MetricType::kGauge    ? "gauge"
                                                           : "histogram";
      out += "# TYPE " + e.family + " " + std::string(type) + "\n";
    }
    switch (e.type) {
      case MetricType::kCounter: {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%" PRIu64, e.counter->value());
        out += e.family + label_suffix(e) + " " + buf + "\n";
        break;
      }
      case MetricType::kGauge:
        out += e.family + label_suffix(e) + " " +
               format_double(e.gauge->value()) + "\n";
        break;
      case MetricType::kHistogram: {
        const Histogram& h = *e.histogram;
        const std::string extra =
            e.label_key.empty()
                ? ""
                : e.label_key + "=\"" + e.label_value + "\",";
        std::uint64_t cum = 0;
        char buf[32];
        for (std::size_t i = 0; i < h.bucket_count(); ++i) {
          const std::uint64_t in_bucket = h.bucket(i);
          const bool last = i + 1 == h.bucket_count();
          // Emit a bound whenever it adds information: any bucket with
          // observations, plus the mandatory +Inf bound.
          if (in_bucket == 0 && !last) continue;
          cum += in_bucket;
          std::snprintf(buf, sizeof buf, "%" PRIu64, cum);
          out += e.family + "_bucket{" + extra + "le=\"" +
                 format_double(h.upper_bound(i)) + "\"} " + buf + "\n";
        }
        out += e.family + "_sum" + label_suffix(e) + " " +
               format_double(h.sum()) + "\n";
        std::snprintf(buf, sizeof buf, "%" PRIu64, h.count());
        out += e.family + "_count" + label_suffix(e) + " " + buf + "\n";
        break;
      }
    }
  });
  return out;
}

std::optional<std::string> validate_prometheus(const std::string& text) {
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    ++line_no;
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    auto fail = [&](const std::string& why) {
      return "line " + std::to_string(line_no) + ": " + why + ": " + line;
    };
    if (line.empty()) continue;
    if (line[0] == '#') {
      // Only "# HELP <name> <text>" and "# TYPE <name> <type>" comments are
      // emitted by exporters; free-form comments are tolerated by Prometheus
      // but a malformed HELP/TYPE is a bug we want CI to catch.
      if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
        const std::size_t name_start = 7;
        const std::size_t name_end = line.find(' ', name_start);
        if (name_end == std::string::npos)
          return fail("HELP/TYPE line missing body");
        if (!valid_metric_name(line.substr(name_start, name_end - name_start)))
          return fail("bad metric name in HELP/TYPE");
        if (line.rfind("# TYPE ", 0) == 0) {
          const std::string t = line.substr(name_end + 1);
          if (t != "counter" && t != "gauge" && t != "histogram" &&
              t != "summary" && t != "untyped")
            return fail("unknown TYPE");
        }
      }
      continue;
    }
    // Sample line: name[{labels}] value [timestamp]
    std::size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
    if (!valid_metric_name(line.substr(0, i)))
      return fail("bad metric name");
    if (i < line.size() && line[i] == '{') {
      const std::size_t close = line.find('}', i);
      if (close == std::string::npos) return fail("unterminated label set");
      // label="value" pairs, comma separated.
      std::size_t p = i + 1;
      while (p < close) {
        const std::size_t eq = line.find('=', p);
        if (eq == std::string::npos || eq > close)
          return fail("label pair missing '='");
        if (!valid_label_name(line.substr(p, eq - p)))
          return fail("bad label name");
        if (eq + 1 >= close || line[eq + 1] != '"')
          return fail("label value not quoted");
        std::size_t q = eq + 2;
        while (q < close && line[q] != '"') {
          if (line[q] == '\\') ++q;  // escaped char inside label value
          ++q;
        }
        if (q >= close) return fail("unterminated label value");
        p = q + 1;
        if (p < close) {
          if (line[p] != ',') return fail("missing ',' between labels");
          ++p;
        }
      }
      i = close + 1;
    }
    if (i >= line.size() || line[i] != ' ')
      return fail("missing space before value");
    const std::string rest = line.substr(i + 1);
    const std::size_t space = rest.find(' ');
    const std::string value =
        space == std::string::npos ? rest : rest.substr(0, space);
    if (!parse_sample_value(value)) return fail("unparseable sample value");
    if (space != std::string::npos) {
      // Optional timestamp: integer milliseconds.
      const std::string ts = rest.substr(space + 1);
      if (ts.empty() ||
          ts.find_first_not_of("-0123456789") != std::string::npos)
        return fail("bad timestamp");
    }
  }
  return std::nullopt;
}

std::string render_json(Registry& reg, bool include_spans) {
  reg.collect();
  std::string counters, gauges, histograms;
  reg.visit([&](const MetricEntry& e) {
    // Appended piecewise: GCC 12 at -O3 flags `"literal" + std::string&&`
    // with a false-positive -Wrestrict.
    std::string key = "\"";
    key += json_escape(e.family + label_suffix(e));
    key += '"';
    switch (e.type) {
      case MetricType::kCounter: {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%" PRIu64, e.counter->value());
        counters += (counters.empty() ? "" : ",\n    ") + key + ": " + buf;
        break;
      }
      case MetricType::kGauge:
        gauges += (gauges.empty() ? "" : ",\n    ") + key + ": " +
                  format_double(e.gauge->value());
        break;
      case MetricType::kHistogram: {
        const Histogram& h = *e.histogram;
        char buf[32];
        std::snprintf(buf, sizeof buf, "%" PRIu64, h.count());
        std::string entry = key + ": {\"count\": " + std::string(buf);
        entry += ", \"sum\": " + format_double(h.sum());
        entry += ", \"min\": " + format_double(h.observed_min());
        entry += ", \"max\": " + format_double(h.observed_max());
        entry += ", \"quantiles\": {\"p50\": " + format_double(h.quantile(0.5));
        entry += ", \"p90\": " + format_double(h.quantile(0.9));
        entry += ", \"p99\": " + format_double(h.quantile(0.99));
        entry += ", \"p999\": " + format_double(h.quantile(0.999)) + "}}";
        histograms += (histograms.empty() ? "" : ",\n    ") + entry;
        break;
      }
    }
  });
  std::string out = "{\n";
  out += "  \"counters\": {\n    " + counters + "\n  },\n";
  out += "  \"gauges\": {\n    " + gauges + "\n  },\n";
  out += "  \"histograms\": {\n    " + histograms + "\n  }";
  if (include_spans) {
    std::string spans;
    for (const SpanRecord& s : recent_spans()) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "{\"name\": \"%s\", \"parent\": \"%s\", \"depth\": %u, "
                    "\"start_ns\": %" PRIu64 ", \"duration_ns\": %" PRIu64
                    ", \"thread\": %u}",
                    json_escape(s.name).c_str(), json_escape(s.parent).c_str(),
                    s.depth, s.start_ns, s.duration_ns, s.thread_slot);
      spans += (spans.empty() ? "" : ",\n    ") + std::string(buf);
    }
    out += ",\n  \"spans\": [\n    " + spans + "\n  ]";
  }
  out += "\n}\n";
  return out;
}

bool write_json_snapshot(const std::string& path, Registry& reg,
                         bool include_spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string doc = render_json(reg, include_spans);
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  std::fclose(f);
  return ok;
}

}  // namespace bcwan::telemetry
