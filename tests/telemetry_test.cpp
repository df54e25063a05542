// Telemetry subsystem tests: concurrent metric mutation (exercised under
// TSan in CI), registry identity, exporter round-trips, span nesting, and
// the disabled-path no-op contract.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/exporters.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

#ifdef BCWAN_TELEMETRY_DISABLED

TEST(Telemetry, CompiledOut) {
  GTEST_SKIP() << "telemetry compiled out (BCWAN_TELEMETRY=OFF)";
}

#else

namespace {

using namespace bcwan::telemetry;

/// Minimal recursive-descent JSON syntax checker — enough to prove the
/// exporter emits a well-formed document without pulling in a JSON library.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string_lit();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string_lit()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string_lit() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* word) {
    const std::size_t len = std::string(word).size();
    if (s_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override { set_enabled(true); }
  void TearDown() override { set_enabled(false); }
};

}  // namespace

TEST_F(TelemetryTest, RegistryIdentity) {
  Counter& a = registry().counter("bcwan_test_identity_total");
  Counter& b = registry().counter("bcwan_test_identity_total");
  EXPECT_EQ(&a, &b);
  // Different label value: different instance; same label: same instance.
  Counter& l1 = registry().counter("bcwan_test_labeled_total", "k", "v1");
  Counter& l2 = registry().counter("bcwan_test_labeled_total", "k", "v2");
  Counter& l3 = registry().counter("bcwan_test_labeled_total", "k", "v1");
  EXPECT_NE(&l1, &l2);
  EXPECT_EQ(&l1, &l3);
}

TEST_F(TelemetryTest, CounterConcurrentAdds) {
  Counter& counter = registry().counter("bcwan_test_concurrent_total");
  counter.reset();
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST_F(TelemetryTest, GaugeConcurrentAddsSum) {
  Gauge& gauge = registry().gauge("bcwan_test_gauge");
  gauge.reset();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < kPerThread; ++i) gauge.add(1.0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(gauge.value(), kThreads * kPerThread);
  gauge.set(3.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 3.5);
}

TEST_F(TelemetryTest, HistogramConcurrentObserves) {
  Histogram& hist =
      registry().histogram("bcwan_test_concurrent_hist_seconds");
  hist.reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.observe(1e-4 * (1 + ((t * kPerThread + i) % 100)));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(hist.count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t bucket_total = 0;
  for (std::size_t i = 0; i < hist.bucket_count(); ++i)
    bucket_total += hist.bucket(i);
  EXPECT_EQ(bucket_total, hist.count());
}

TEST_F(TelemetryTest, HistogramQuantiles) {
  Histogram& hist = registry().histogram("bcwan_test_quantile_seconds");
  hist.reset();
  for (int i = 1; i <= 1000; ++i) hist.observe(i * 1e-3);  // 1ms .. 1s
  EXPECT_EQ(hist.count(), 1000u);
  EXPECT_NEAR(hist.sum(), 500.5, 1e-6);
  EXPECT_DOUBLE_EQ(hist.observed_min(), 1e-3);
  EXPECT_DOUBLE_EQ(hist.observed_max(), 1.0);
  // Monotone in q, clamped to the observed range, and roughly correct
  // (log-bucketing at factor sqrt(2) gives ~±20% worst case per bucket).
  double prev = 0.0;
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double v = hist.quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    EXPECT_GE(v, hist.observed_min());
    EXPECT_LE(v, hist.observed_max());
    prev = v;
  }
  EXPECT_NEAR(hist.quantile(0.5), 0.5, 0.15);
  // Empty histogram: quantile is 0.
  Histogram& empty = registry().histogram("bcwan_test_empty_seconds");
  empty.reset();
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
}

TEST_F(TelemetryTest, DisabledMutationsAreNoOps) {
  Counter& counter = registry().counter("bcwan_test_disabled_total");
  Histogram& hist = registry().histogram("bcwan_test_disabled_seconds");
  Gauge& gauge = registry().gauge("bcwan_test_disabled_gauge");
  counter.reset();
  hist.reset();
  gauge.reset();
  set_enabled(false);
  counter.add(42);
  hist.observe(1.0);
  gauge.set(7.0);
  gauge.add(1.0);
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
  set_enabled(true);
  counter.add(1);
  EXPECT_EQ(counter.value(), 1u);
}

TEST_F(TelemetryTest, SpanNestingAndHistogram) {
  clear_spans();
  Histogram& hist = registry().histogram("bcwan_test_span_seconds");
  hist.reset();
  {
    Span outer("test.outer", &hist);
    EXPECT_TRUE(outer.active());
    EXPECT_EQ(outer.depth(), 0u);
    {
      Span inner("test.inner");
      EXPECT_EQ(inner.depth(), 1u);
    }
  }
  EXPECT_EQ(hist.count(), 1u);
  const auto spans = recent_spans();
  ASSERT_GE(spans.size(), 2u);
  // Inner completes first; records are oldest-first.
  const SpanRecord& inner = spans[spans.size() - 2];
  const SpanRecord& outer = spans[spans.size() - 1];
  EXPECT_EQ(inner.name, "test.inner");
  EXPECT_EQ(inner.parent, "test.outer");
  EXPECT_EQ(inner.depth, 1u);
  EXPECT_EQ(outer.name, "test.outer");
  EXPECT_EQ(outer.parent, "");
  EXPECT_EQ(outer.depth, 0u);
  EXPECT_GE(outer.duration_ns, inner.duration_ns);
}

TEST_F(TelemetryTest, SpansDisabledRecordNothing) {
  clear_spans();
  set_enabled(false);
  {
    Span span("test.disabled");
    EXPECT_FALSE(span.active());
  }
  EXPECT_TRUE(recent_spans().empty());
}

TEST_F(TelemetryTest, PrometheusRoundTrip) {
  registry().counter("bcwan_test_prom_total", "help with \"quotes\"").add(3);
  registry().gauge("bcwan_test_prom_gauge", "g", "a\\b", "escaped label");
  registry()
      .histogram("bcwan_test_prom_seconds")
      .observe(0.25);
  const std::string text = render_prometheus();
  const auto error = validate_prometheus(text);
  EXPECT_FALSE(error.has_value()) << *error;

  // Every registered family appears in the exposition.
  std::size_t families = 0;
  registry().visit([&](const MetricEntry& entry) {
    ++families;
    EXPECT_NE(text.find(entry.family), std::string::npos) << entry.family;
  });
  EXPECT_GT(families, 0u);

  // Histogram series: cumulative buckets, +Inf, _sum and _count present.
  EXPECT_NE(text.find("bcwan_test_prom_seconds_bucket{le=\"+Inf\"} "),
            std::string::npos);
  EXPECT_NE(text.find("bcwan_test_prom_seconds_sum "), std::string::npos);
  EXPECT_NE(text.find("bcwan_test_prom_seconds_count 1"), std::string::npos);
}

TEST_F(TelemetryTest, PrometheusValidatorCatchesMalformed) {
  // Well-formed baseline.
  EXPECT_FALSE(validate_prometheus("metric_a 1\n").has_value());
  EXPECT_FALSE(
      validate_prometheus("m{k=\"v\"} 2.5 1700000000\n").has_value());
  EXPECT_FALSE(validate_prometheus("m +Inf\n").has_value());
  // Malformed documents must be rejected.
  EXPECT_TRUE(validate_prometheus("1badname 1\n").has_value());
  EXPECT_TRUE(validate_prometheus("m{k=unquoted} 1\n").has_value());
  EXPECT_TRUE(validate_prometheus("m{k=\"v\" 1\n").has_value());
  EXPECT_TRUE(validate_prometheus("m notanumber\n").has_value());
  EXPECT_TRUE(validate_prometheus("m\n").has_value());
  EXPECT_TRUE(validate_prometheus("# TYPE m bogustype\n").has_value());
  EXPECT_TRUE(validate_prometheus("# HELP 1badname text\n").has_value());
  EXPECT_TRUE(validate_prometheus("m 1 notatimestamp\n").has_value());
  // Free-form comments are legal Prometheus; only HELP/TYPE are strict.
  EXPECT_FALSE(validate_prometheus("# just a comment\n").has_value());
}

TEST_F(TelemetryTest, JsonSnapshotParsesAndCoversRegistry) {
  registry().counter("bcwan_test_json_total").add(7);
  registry().histogram("bcwan_test_json_seconds").observe(0.125);
  const std::string json = render_json(registry(), /*include_spans=*/true);
  EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
  EXPECT_NE(json.find("bcwan_test_json_total"), std::string::npos);
  EXPECT_NE(json.find("bcwan_test_json_seconds"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
}

TEST_F(TelemetryTest, CollectorsRunAtExport) {
  std::atomic<int> runs{0};
  const std::uint64_t id = registry().add_collector([&runs] {
    ++runs;
    registry().gauge("bcwan_test_collected").set(11.0);
  });
  const std::string text = render_prometheus();
  EXPECT_GE(runs.load(), 1);
  EXPECT_NE(text.find("bcwan_test_collected 11"), std::string::npos);
  registry().remove_collector(id);
  const int before = runs.load();
  (void)render_prometheus();
  EXPECT_EQ(runs.load(), before);
}

TEST_F(TelemetryTest, ResetAllZeroesValuesKeepsRegistrations) {
  Counter& counter = registry().counter("bcwan_test_reset_total");
  counter.add(5);
  const std::size_t size_before = registry().size();
  registry().reset_all();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(registry().size(), size_before);
  EXPECT_EQ(&registry().counter("bcwan_test_reset_total"), &counter);
}

#endif  // BCWAN_TELEMETRY_DISABLED
