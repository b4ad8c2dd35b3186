// Unit tests for the common module: ids, rng, stats, tables, csv.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "common/csv.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/simtime.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/types.h"
#include "common/units.h"

namespace custody {
namespace {

TEST(Ids, DefaultIsInvalid) {
  NodeId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, NodeId::invalid());
}

TEST(Ids, ValueRoundTrip) {
  ExecutorId id(42);
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 42u);
}

TEST(Ids, Ordering) {
  EXPECT_LT(TaskId(1), TaskId(2));
  EXPECT_GT(TaskId(3), TaskId(2));
  EXPECT_LE(TaskId(2), TaskId(2));
  EXPECT_NE(TaskId(1), TaskId(2));
}

TEST(Ids, HashableInUnorderedSet) {
  std::unordered_set<BlockId> set;
  set.insert(BlockId(1));
  set.insert(BlockId(2));
  set.insert(BlockId(1));
  EXPECT_EQ(set.size(), 2u);
}

TEST(Ids, StreamOutput) {
  std::ostringstream os;
  os << JobId(7) << " " << JobId();
  EXPECT_EQ(os.str(), "7 <invalid>");
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(units::MB(1.0), 1024.0 * 1024.0);
  EXPECT_DOUBLE_EQ(units::GB(1.0), 1024.0 * units::MB(1.0));
  EXPECT_DOUBLE_EQ(units::Gbps(8.0), 1e9);       // 8 gigabit = 1e9 bytes
  EXPECT_DOUBLE_EQ(units::ToMB(units::MB(128.0)), 128.0);
  EXPECT_DOUBLE_EQ(units::ToGB(units::GB(2.5)), 2.5);
}

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  }
}

TEST(Rng, ForkIndependentStreams) {
  Rng base(7);
  Rng f1 = base.fork(1);
  Rng f2 = base.fork(2);
  Rng f1_again = base.fork(1);
  EXPECT_EQ(f1.seed(), f1_again.seed());
  EXPECT_NE(f1.seed(), f2.seed());
}

TEST(Rng, UniformRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.uniform_int(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
    const double d = rng.uniform(0.5, 1.5);
    EXPECT_GE(d, 0.5);
    EXPECT_LT(d, 1.5);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(42);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, IndexCoversRange) {
  Rng rng(9);
  std::unordered_set<std::size_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.index(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Zipf, UniformWhenSkewZero) {
  ZipfDistribution zipf(4, 0.0);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(zipf.pmf(i), 0.25, 1e-12);
}

TEST(Zipf, SkewFavorsLowIndices) {
  ZipfDistribution zipf(10, 1.0);
  EXPECT_GT(zipf.pmf(0), zipf.pmf(1));
  EXPECT_GT(zipf.pmf(1), zipf.pmf(5));
  double total = 0.0;
  for (std::size_t i = 0; i < 10; ++i) total += zipf.pmf(i);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Zipf, SamplingMatchesPmf) {
  ZipfDistribution zipf(5, 0.8);
  Rng rng(11);
  std::vector<int> counts(5, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[zipf(rng)];
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / n, zipf.pmf(i), 0.01);
  }
}

TEST(RunningStats, Empty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all;
  RunningStats a;
  RunningStats b;
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.uniform(-5.0, 5.0);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.stddev(), all.stddev(), 1e-9);
}

TEST(Summary, OrderStatistics) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100 reversed
  const Summary s = Summarize(v);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.median, 50.5, 1e-9);
  EXPECT_NEAR(s.mean, 50.5, 1e-9);
  EXPECT_GT(s.p95, s.p75);
  EXPECT_GT(s.p99, s.p95);
}

TEST(Summary, SingleElement) {
  const Summary s = Summarize({7.5});
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.median, 7.5);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Percentile, Interpolates) {
  const std::vector<double> sorted{0.0, 10.0};
  EXPECT_DOUBLE_EQ(Percentile(sorted, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(sorted, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(Percentile(sorted, 1.0), 10.0);
}

TEST(Percentile, EmptySampleThrows) {
  EXPECT_THROW((void)Percentile({}, 0.5), std::invalid_argument);
}

TEST(Percentile, QuantileOutOfRangeThrows) {
  const std::vector<double> sorted{1.0, 2.0};
  EXPECT_THROW((void)Percentile(sorted, -0.01), std::invalid_argument);
  EXPECT_THROW((void)Percentile(sorted, 1.01), std::invalid_argument);
  EXPECT_THROW((void)Percentile(sorted, std::nan("")), std::invalid_argument);
}

TEST(Percentile, SingleSampleIsEveryQuantile) {
  const std::vector<double> sorted{3.5};
  EXPECT_DOUBLE_EQ(Percentile(sorted, 0.0), 3.5);
  EXPECT_DOUBLE_EQ(Percentile(sorted, 0.5), 3.5);
  EXPECT_DOUBLE_EQ(Percentile(sorted, 1.0), 3.5);
}

TEST(Percentile, TwoSampleEndpointsAndInterior) {
  const std::vector<double> sorted{2.0, 6.0};
  EXPECT_DOUBLE_EQ(Percentile(sorted, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(Percentile(sorted, 0.25), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(sorted, 0.75), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(sorted, 1.0), 6.0);
}

TEST(Gains, Percentages) {
  EXPECT_DOUBLE_EQ(GainPercent(50.0, 75.0), 50.0);
  EXPECT_DOUBLE_EQ(ReductionPercent(10.0, 8.0), 20.0);
  EXPECT_DOUBLE_EQ(GainPercent(0.0, 10.0), 0.0);  // guarded division
}

TEST(AsciiTable, AlignsAndPrints) {
  AsciiTable table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22222"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 22222 |"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(AsciiTable, FormatHelpers) {
  EXPECT_EQ(AsciiTable::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(AsciiTable::pct(36.9, 1), "36.9%");
}

TEST(Csv, WritesEscapedRows) {
  const std::string path = ::testing::TempDir() + "/custody_csv_test.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    csv.add_row({"1", "hello, world"});
    csv.add_row({"2", "quote\"inside"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,\"hello, world\"");
  std::getline(in, line);
  EXPECT_EQ(line, "2,\"quote\"\"inside\"");
  std::remove(path.c_str());
}

TEST(Csv, RejectsWidthMismatch) {
  const std::string path = ::testing::TempDir() + "/custody_csv_test2.csv";
  CsvWriter csv(path, {"a", "b"});
  EXPECT_THROW(csv.add_row({"only-one"}), std::runtime_error);
  std::remove(path.c_str());
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(Json, EscapesControlCharacters) {
  EXPECT_EQ(JsonQuote("a\nb"), "\"a\\nb\"");
  EXPECT_EQ(JsonQuote("a\tb"), "\"a\\tb\"");
  EXPECT_EQ(JsonQuote("a\rb"), "\"a\\rb\"");
  EXPECT_EQ(JsonQuote(std::string("a\x01") + "b"), "\"a\\u0001b\"");
  EXPECT_EQ(JsonQuote(std::string("\x1f")), "\"\\u001f\"");
  EXPECT_EQ(JsonQuote("say \"hi\" \\ bye"), "\"say \\\"hi\\\" \\\\ bye\"");

  const std::string path = ::testing::TempDir() + "/custody_json_ctrl.json";
  {
    JsonWriter json(path, {"text"});
    json.add_row({std::string("line1\nline2\x02")});
  }
  const std::string out = ReadWholeFile(path);
  EXPECT_NE(out.find("\"line1\\nline2\\u0002\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(Json, NonFiniteNumberCellsStayQuoted) {
  // "nan" and "inf" parse via strtod and "1e999" overflows to +inf; none
  // of them are valid JSON numbers, so all must be emitted as strings.
  const std::string path = ::testing::TempDir() + "/custody_json_nan.json";
  {
    JsonWriter json(path, {"a", "b", "c", "d"});
    json.add_row({"nan", "inf", "1e999", "2.5"});
  }
  const std::string out = ReadWholeFile(path);
  EXPECT_NE(out.find("\"a\": \"nan\""), std::string::npos);
  EXPECT_NE(out.find("\"b\": \"inf\""), std::string::npos);
  EXPECT_NE(out.find("\"c\": \"1e999\""), std::string::npos);
  EXPECT_NE(out.find("\"d\": 2.5"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Json, EmptyCellsAreEmptyStrings) {
  const std::string path = ::testing::TempDir() + "/custody_json_empty.json";
  {
    JsonWriter json(path, {"a", "b"});
    json.add_row({"", "x"});
  }
  const std::string out = ReadWholeFile(path);
  EXPECT_NE(out.find("\"a\": \"\""), std::string::npos);
  EXPECT_NE(out.find("\"b\": \"x\""), std::string::npos);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Scale-aware time epsilon (common/simtime.h)
// ---------------------------------------------------------------------------

TEST(TimeEpsilon, FloorAppliesAtSmallTimestamps) {
  // Every classic horizon (seconds to hours) keeps the historical absolute
  // epsilon, so existing runs stay bit-identical.
  EXPECT_EQ(TimeEpsilonAt(0.0), kTimeEpsilonFloor);
  EXPECT_EQ(TimeEpsilonAt(1.0), kTimeEpsilonFloor);
  EXPECT_EQ(TimeEpsilonAt(3600.0), kTimeEpsilonFloor);
  EXPECT_EQ(TimeEpsilonAt(1e5), kTimeEpsilonFloor);
  EXPECT_EQ(TimeEpsilonAt(-42.0), kTimeEpsilonFloor);
}

TEST(TimeEpsilon, ScalesWithMagnitudeAtLargeTimestamps) {
  // At month-scale simulated times the ulp of a double exceeds 1e-9; the
  // epsilon must grow with it or comparisons lose all effect.
  const double month = 2.6e6;
  EXPECT_GT(TimeEpsilonAt(month * 10.0), kTimeEpsilonFloor);
  for (const double t : {1e7, 1e9, 1e12}) {
    const double eps = TimeEpsilonAt(t);
    const double ulp = std::nextafter(t, 2.0 * t) - t;
    EXPECT_GT(eps, ulp) << "epsilon at t=" << t << " is below one ulp";
    EXPECT_LT(eps, 1e-6 * t) << "epsilon at t=" << t << " is too loose";
    // t + eps must be representable as strictly greater than t, i.e. the
    // comparison `a >= b - eps` can still distinguish neighbours.
    EXPECT_GT(t + eps, t);
  }
}

TEST(TimeEpsilon, IsMonotoneInMagnitude) {
  double prev = 0.0;
  for (const double t : {0.0, 1.0, 1e3, 1e6, 1e9, 1e12, 1e15}) {
    const double eps = TimeEpsilonAt(t);
    EXPECT_GE(eps, prev);
    prev = eps;
  }
}

}  // namespace
}  // namespace custody
