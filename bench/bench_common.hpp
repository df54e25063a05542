// Shared helpers for the experiment-reproduction binaries.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "util/stats.hpp"
#include "util/time.hpp"

namespace bcwan::bench {

/// Minimal streaming JSON emitter for the BENCH_*.json result files. Tracks
/// the container stack so call sites never hand-manage commas, newlines or
/// indentation (the bug-prone part of the old per-bench fprintf blocks).
/// Usage:
///   JsonWriter w(f);
///   w.begin_object();
///   w.str("experiment", "VAL-TPUT").boolean("smoke", smoke);
///   w.begin_array("configs");
///   w.begin_object().str("name", name).num("ms", ms, "%.3f").end_object();
///   w.end_array();
///   w.end_object();
///   w.finish();
class JsonWriter {
 public:
  explicit JsonWriter(std::FILE* f) : f_(f) {}

  JsonWriter& begin_object(const char* key = nullptr) {
    open(key, '{');
    return *this;
  }
  JsonWriter& end_object() {
    close('}');
    return *this;
  }
  JsonWriter& begin_array(const char* key = nullptr) {
    open(key, '[');
    return *this;
  }
  JsonWriter& end_array() {
    close(']');
    return *this;
  }

  JsonWriter& str(const char* key, const std::string& value) {
    prefix(key);
    std::fputc('"', f_);
    for (const char c : value) {
      if (c == '"' || c == '\\') {
        std::fputc('\\', f_);
        std::fputc(c, f_);
      } else if (static_cast<unsigned char>(c) < 0x20) {
        std::fprintf(f_, "\\u%04x", c);
      } else {
        std::fputc(c, f_);
      }
    }
    std::fputc('"', f_);
    return *this;
  }
  JsonWriter& boolean(const char* key, bool value) {
    prefix(key);
    std::fputs(value ? "true" : "false", f_);
    return *this;
  }
  /// `fmt` must consume exactly one double (e.g. "%.3f").
  JsonWriter& num(const char* key, double value, const char* fmt = "%.6g") {
    prefix(key);
    std::fprintf(f_, fmt, value);
    return *this;
  }
  JsonWriter& uint(const char* key, unsigned long long value) {
    prefix(key);
    std::fprintf(f_, "%llu", value);
    return *this;
  }
  JsonWriter& integer(const char* key, long long value) {
    prefix(key);
    std::fprintf(f_, "%lld", value);
    return *this;
  }

  /// Call once after the top-level container closes.
  void finish() { std::fputc('\n', f_); }

 private:
  void indent() {
    for (std::size_t i = 0; i < counts_.size(); ++i) std::fputs("  ", f_);
  }
  void prefix(const char* key) {
    if (!counts_.empty()) {
      if (counts_.back()++ > 0) std::fputc(',', f_);
      std::fputc('\n', f_);
      indent();
    }
    if (key != nullptr) std::fprintf(f_, "\"%s\": ", key);
  }
  void open(const char* key, char bracket) {
    prefix(key);
    std::fputc(bracket, f_);
    counts_.push_back(0);
  }
  void close(char bracket) {
    const std::size_t children = counts_.back();
    counts_.pop_back();
    if (children > 0) {
      std::fputc('\n', f_);
      indent();
    }
    std::fputc(bracket, f_);
  }

  std::FILE* f_;
  std::vector<std::size_t> counts_;
};

/// Peak resident set size of this process (VmHWM from /proc/self/status),
/// in bytes. Returns 0 on platforms without procfs. All JSON-emitting
/// benches report this so memory regressions gate alongside throughput.
inline unsigned long long peak_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  unsigned long long kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb * 1024;
}

/// The host a result was measured on: cores, the SHA-256 ISA extensions
/// the hashing kernels dispatch on, and the compiler. Host-speed numbers
/// are only comparable between runs with equal host objects.
inline void write_host(JsonWriter& w) {
  w.begin_object("host");
  w.uint("cores", std::thread::hardware_concurrency());
#if defined(__x86_64__) || defined(__i386__)
  w.boolean("sha_ni", __builtin_cpu_supports("sha"));
  w.boolean("avx2", __builtin_cpu_supports("avx2"));
#endif
#if defined(__clang__)
  w.str("compiler", "clang " __clang_version__);
#else
  w.str("compiler", "gcc " __VERSION__);
#endif
#ifdef NDEBUG
  w.boolean("assertions", false);
#else
  w.boolean("assertions", true);
#endif
  w.end_object();
}

inline void print_header(const char* experiment_id, const char* title) {
  std::printf("==========================================================\n");
  std::printf("%s — %s\n", experiment_id, title);
  std::printf("==========================================================\n");
}

/// Exchange count override for quick local runs:
/// BCWAN_EXCHANGES=200 ./bench_fig5_latency
inline std::size_t exchange_count(std::size_t paper_default) {
  if (const char* env = std::getenv("BCWAN_EXCHANGES")) {
    const long parsed = std::atol(env);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return paper_default;
}

inline void print_latency_figure(const util::SampleStats& stats,
                                 double paper_mean_s, double hist_max_s) {
  std::printf("exchanges measured : %zu\n", stats.count());
  std::printf("mean latency       : %.3f s   (paper: %.3f s)\n", stats.mean(),
              paper_mean_s);
  std::printf("median             : %.3f s\n", stats.median());
  std::printf("p95 / p99          : %.3f / %.3f s\n", stats.percentile(95),
              stats.percentile(99));
  std::printf("min / max          : %.3f / %.3f s\n", stats.min(),
              stats.max());
  std::printf("\nlatency distribution (s):\n%s\n",
              stats.histogram(0.0, hist_max_s, 20).c_str());
}

/// The paper's Figs. 5/6 are per-exchange series; write one as CSV
/// (exchange index, completion time in virtual seconds, latency seconds)
/// for external plotting.
template <typename Records>
inline void dump_series_csv(const char* path, const Records& records) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::printf("(could not write %s)\n", path);
    return;
  }
  std::fprintf(f, "exchange,completed_at_s,latency_s\n");
  std::size_t index = 0;
  for (const auto& record : records) {
    std::fprintf(f, "%zu,%.3f,%.3f\n", index++,
                 util::to_seconds(record.decrypted_at), record.latency_s());
  }
  std::fclose(f);
  std::printf("per-exchange series written to %s\n", path);
}

}  // namespace bcwan::bench
