// Unit tests for the util module: strings, CSV, RNG, table rendering and
// the thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/csv.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace riskroute::util {
namespace {

// ---------- strings ----------

TEST(Strings, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("x", ','), (std::vector<std::string>{"x"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(Strings, SplitWhitespaceDropsEmptyTokens) {
  EXPECT_EQ(SplitWhitespace("  a\t b \n c  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   \t\n ").empty());
  EXPECT_TRUE(SplitWhitespace("").empty());
}

TEST(Strings, Trim) {
  EXPECT_EQ(Trim("  hello  "), "hello");
  EXPECT_EQ(Trim("hello"), "hello");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(Strings, CaseConversion) {
  EXPECT_EQ(ToUpper("Hurricane Irene 15 mph"), "HURRICANE IRENE 15 MPH");
  EXPECT_EQ(ToLower("LATITUDE 35.2"), "latitude 35.2");
}

TEST(Strings, StartsWithAndContains) {
  EXPECT_TRUE(StartsWith("corpus v1", "corpus"));
  EXPECT_FALSE(StartsWith("corpus", "corpus v1"));
  EXPECT_TRUE(Contains("HURRICANE-FORCE WINDS", "FORCE"));
  EXPECT_FALSE(Contains("abc", "abd"));
}

TEST(Strings, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(Strings, ParseDoubleStrict) {
  EXPECT_EQ(ParseDouble("35.2"), 35.2);
  EXPECT_EQ(ParseDouble(" -76.4 "), -76.4);
  EXPECT_EQ(ParseDouble("1e3"), 1000.0);
  EXPECT_FALSE(ParseDouble("35.2x").has_value());
  EXPECT_FALSE(ParseDouble("").has_value());
  EXPECT_FALSE(ParseDouble("  ").has_value());
}

TEST(Strings, ParseIntStrict) {
  EXPECT_EQ(ParseInt("61"), 61);
  EXPECT_EQ(ParseInt("-3"), -3);
  EXPECT_FALSE(ParseInt("61.5").has_value());
  EXPECT_FALSE(ParseInt("abc").has_value());
}

TEST(Strings, Format) {
  EXPECT_EQ(Format("%d miles", 90), "90 miles");
  EXPECT_EQ(Format("%.2f", 3.14159), "3.14");
  EXPECT_EQ(Format("%s", ""), "");
}

// ---------- csv ----------

TEST(Csv, ParsePlainFields) {
  EXPECT_EQ(ParseCsvLineResult("a,b,c").value(), (CsvRow{"a", "b", "c"}));
  EXPECT_EQ(ParseCsvLineResult("a,,c").value(), (CsvRow{"a", "", "c"}));
}

TEST(Csv, ParseQuotedFields) {
  EXPECT_EQ(ParseCsvLineResult("\"a,b\",c").value(), (CsvRow{"a,b", "c"}));
  EXPECT_EQ(ParseCsvLineResult("\"he said \"\"hi\"\"\",x").value(),
            (CsvRow{"he said \"hi\"", "x"}));
}

TEST(Csv, ParseUnterminatedQuoteThrows) {
  const auto result = ParseCsvLineResult("\"oops");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, ParseErrorKind::kBadSyntax);
  EXPECT_THROW((void)result.ValueOrThrow(), ParseError);
}

TEST(Csv, EscapeRoundTrip) {
  for (const std::string field :
       {"plain", "with,comma", "with\"quote", "with both\",\""}) {
    const CsvRow row = ParseCsvLineResult(EscapeCsvField(field)).value();
    ASSERT_EQ(row.size(), 1u);
    EXPECT_EQ(row[0], field);
  }
}

TEST(Csv, WriterReaderRoundTrip) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.Write("name", "value", 3.5);
  writer.Write("a,b", 42, std::string("q\"q"));
  std::istringstream in(out.str());
  const auto rows = ReadCsvResult(in).value();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (CsvRow{"name", "value", "3.5"}));
  EXPECT_EQ(rows[1], (CsvRow{"a,b", "42", "q\"q"}));
}

// ---------- rng ----------

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(0, 1), b.Uniform(0, 1));
  }
}

TEST(Rng, UniformRespectsRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(2);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(0, 4));
  EXPECT_EQ(seen, (std::set<std::int64_t>{0, 1, 2, 3, 4}));
}

TEST(Rng, WeightedIndexNeverPicksZeroWeight) {
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(rng.WeightedIndex({0.0, 1.0, 0.0}), 1u);
  }
}

TEST(Rng, ForkDecorrelatesStreams) {
  Rng root(7);
  Rng a = root.Fork(1);
  Rng b = root.Fork(2);
  // Streams should differ (probability of 20 identical draws ~ 0).
  bool any_different = false;
  for (int i = 0; i < 20; ++i) {
    if (a.Uniform(0, 1) != b.Uniform(0, 1)) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(Rng, GaussianMomentsRoughlyCorrect) {
  Rng rng(11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Gaussian(5.0, 2.0);
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

// ---------- table ----------

TEST(Table, RendersAlignedColumns) {
  Table table({"Name", "Value"});
  table.Add("alpha", 1);
  table.Add("b", 22);
  const std::string rendered = table.ToString();
  EXPECT_NE(rendered.find("Name"), std::string::npos);
  EXPECT_NE(rendered.find("alpha"), std::string::npos);
  EXPECT_NE(rendered.find("22"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(Table, RejectsArityMismatch) {
  Table table({"a", "b"});
  EXPECT_THROW(table.AddRow({"only one"}), InvalidArgument);
}

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(Table(std::vector<std::string>{}), InvalidArgument);
}

// ---------- thread pool ----------

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  auto f = pool.Submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(&pool, hits.size(), [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroCountIsNoop) {
  ThreadPool pool(2);
  ParallelFor(&pool, 0, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(
      ParallelFor(&pool, 100,
                  [](std::size_t i) {
                    if (i == 57) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
}

TEST(ThreadPool, SingleThreadPoolRunsIterationsInOrder) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::vector<std::size_t> order;
  ParallelFor(&pool, 64, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 64u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, ParallelForFirstExceptionWins) {
  // A one-worker pool runs the iterations in index order, so the first
  // exception chronologically is the one at the lowest throwing index —
  // that is the error ParallelFor must rethrow, not a later one.
  ThreadPool pool(1);
  std::size_t executed = 0;
  try {
    ParallelFor(&pool, 100, [&](std::size_t i) {
      ++executed;
      if (i == 3 || i == 50) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected ParallelFor to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "3");
  }
  // Later iterations still ran; an exception records the error but does
  // not cancel the sweep.
  EXPECT_EQ(executed, 100u);
}

TEST(ThreadPool, NullOrOneWorkerPoolRunsEveryIndexOnTheCallingThread) {
  ThreadPool one_worker(1);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one_worker}) {
    std::vector<std::thread::id> ran_on(16);
    ParallelFor(pool, ran_on.size(),
                [&](std::size_t i) { ran_on[i] = std::this_thread::get_id(); });
    for (const std::thread::id id : ran_on) {
      EXPECT_EQ(id, std::this_thread::get_id()) << (pool ? "one" : "null");
    }
  }
}

TEST(ThreadPool, SubmitWorksOnSingleThreadPool) {
  ThreadPool pool(1);
  auto a = pool.Submit([] { return 7; });
  auto b = pool.Submit([] { return 35; });
  EXPECT_EQ(a.get() + b.get(), 42);
}

}  // namespace
}  // namespace riskroute::util
