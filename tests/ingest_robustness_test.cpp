// Regression wall for the fuzz-hardened ingestion boundary.
//
// Every named ParserBug case below reproduced a crash, silent
// mis-parse, or undefined behaviour before the hardening pass (the
// triggering inputs are archived under fuzz/corpus/); the property
// tests pin the round-trip contracts the fuzz harnesses check
// continuously. Runs under the `sanitize` label so ASan/UBSan replay
// the whole wall.
#include <climits>
#include <cstdint>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/risk_graph.h"
#include "core/route_engine.h"
#include "forecast/advisory.h"
#include "forecast/parser.h"
#include "forecast/streaming.h"
#include "forecast/writer.h"
#include "geo/geo_point.h"
#include "server/wire.h"
#include "hazard/catalog.h"
#include "hazard/catalog_io.h"
#include "sim/ensemble.h"
#include "obs/metrics.h"
#include "tools/args.h"
#include "util/csv.h"
#include "util/error.h"
#include "util/parse_result.h"
#include "util/rng.h"

namespace riskroute {
namespace {

using util::CsvLimits;
using util::CsvRow;
using util::ParseErrorKind;

std::uint64_t CounterTotal(const std::string& name) {
  return obs::MetricsRegistry::Global().GetCounter(name).Total();
}

// ---------------------------------------------------------------------------
// ParseResult / ParseDiagnostic plumbing.

TEST(ParseResult, RendersKindAndPosition) {
  const auto result = util::ParseResult<int>::Failure(
      ParseErrorKind::kBadSyntax, "unterminated quoted CSV field", 12, 3, 7);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.error().Render(),
            "unterminated quoted CSV field (line 3, column 7) [bad_syntax]");
}

TEST(ParseResult, ValueOrThrowBridgesToParseError) {
  const auto bad = util::ParseResult<int>::Failure(ParseErrorKind::kBadNumber,
                                                   "not a number");
  EXPECT_THROW((void)bad.ValueOrThrow(), ParseError);
  const util::ParseResult<int> good(42);
  EXPECT_EQ(good.ValueOrThrow(), 42);
}

// ---------------------------------------------------------------------------
// ParserBug #1: CSV round trip was lossy. EscapeCsvField quotes embedded
// newlines, but ReadCsv used to treat every physical line as a record, so
// anything CsvWriter wrote with a '\n' or "\r\n" in a field came back
// corrupted (split rows, stray quotes).

TEST(CsvRoundTrip, EmbeddedNewlineSurvivesWriteRead) {
  const std::vector<CsvRow> rows = {
      {"multi\nline", "plain"},
      {"crlf\r\nfield", "comma,and\"quote"},
      {"", "trailing"},
  };
  std::ostringstream out;
  util::CsvWriter writer(out);
  for (const CsvRow& row : rows) writer.WriteRow(row);

  std::istringstream in(out.str());
  const auto parsed = util::ReadCsvResult(in);
  ASSERT_TRUE(parsed.ok()) << parsed.error().Render();
  EXPECT_EQ(parsed.value(), rows);
}

TEST(CsvRoundTrip, QuotedFieldSpansPhysicalLines) {
  std::istringstream in("\"a\nb\",x\n1,2\n");
  const auto parsed = util::ReadCsvResult(in);
  ASSERT_TRUE(parsed.ok()) << parsed.error().Render();
  ASSERT_EQ(parsed.value().size(), 2u);
  EXPECT_EQ(parsed.value()[0], (CsvRow{"a\nb", "x"}));
  EXPECT_EQ(parsed.value()[1], (CsvRow{"1", "2"}));
}

TEST(CsvRoundTrip, RandomRowsProperty) {
  // Deterministic property sweep over the writer's full escapable
  // alphabet. Rows that are a single empty field are excluded: the
  // writer emits them as a blank line, which the reader (by contract)
  // skips as a record separator.
  static constexpr char kAlphabet[] = "ab,\"\n\r x0";
  util::Rng rng(20260807);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<CsvRow> rows;
    const int n_rows = static_cast<int>(rng.UniformInt(1, 8));
    for (int r = 0; r < n_rows; ++r) {
      CsvRow row;
      const int n_fields = static_cast<int>(rng.UniformInt(1, 5));
      for (int f = 0; f < n_fields; ++f) {
        std::string field;
        const int len = static_cast<int>(rng.UniformInt(0, 12));
        for (int k = 0; k < len; ++k) {
          field.push_back(kAlphabet[rng.UniformInt(0, 8)]);
        }
        row.push_back(std::move(field));
      }
      if (row.size() == 1 && row[0].empty()) row[0] = "x";
      rows.push_back(std::move(row));
    }
    std::ostringstream out;
    util::CsvWriter writer(out);
    for (const CsvRow& row : rows) writer.WriteRow(row);
    std::istringstream in(out.str());
    const auto parsed = util::ReadCsvResult(in);
    ASSERT_TRUE(parsed.ok()) << parsed.error().Render();
    EXPECT_EQ(parsed.value(), rows) << "trial " << trial;
  }
}

TEST(CsvDiagnostics, UnterminatedQuotePointsAtOpeningQuote) {
  std::istringstream in("ok,row\nx,\"never closed\n");
  const auto parsed = util::ReadCsvResult(in);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().kind, ParseErrorKind::kBadSyntax);
  EXPECT_EQ(parsed.error().line, 2u);
  EXPECT_EQ(parsed.error().column, 3u);
}

TEST(CsvDiagnostics, LimitsBoundRowsFieldsAndBytes) {
  CsvLimits two_rows;
  two_rows.max_rows = 2;
  std::istringstream in("a\nb\nc\n");
  const auto rows = util::ReadCsvResult(in, two_rows);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.error().kind, ParseErrorKind::kLimitExceeded);

  CsvLimits tiny_field;
  tiny_field.max_field_bytes = 4;
  const auto field = util::ParseCsvLineResult("toolong", tiny_field);
  ASSERT_FALSE(field.ok());
  EXPECT_EQ(field.error().kind, ParseErrorKind::kLimitExceeded);

  CsvLimits two_fields;
  two_fields.max_fields_per_row = 2;
  const auto fields = util::ParseCsvLineResult("a,b,c", two_fields);
  ASSERT_FALSE(fields.ok());
  EXPECT_EQ(fields.error().kind, ParseErrorKind::kLimitExceeded);
}

TEST(CsvDiagnostics, LegacyShimKeepsThrowingContract) {
  // The one-record parser still maps "" to a single empty field (callers
  // depend on column counts); failures are kBadSyntax diagnostics, and
  // ValueOrThrow turns them into ParseError for callers that want a throw.
  EXPECT_EQ(util::ParseCsvLineResult("").value(), (CsvRow{""}));
  const auto line = util::ParseCsvLineResult("\"open");
  ASSERT_FALSE(line.ok());
  EXPECT_EQ(line.error().kind, ParseErrorKind::kBadSyntax);
  EXPECT_THROW((void)line.ValueOrThrow(), ParseError);
  std::istringstream in("a,\"open\n");
  const auto rows = util::ReadCsvResult(in);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.error().kind, ParseErrorKind::kBadSyntax);
  EXPECT_EQ(rows.error().line, 1u);
  EXPECT_THROW((void)rows.ValueOrThrow(), ParseError);
}

// ---------------------------------------------------------------------------
// ParserBug #2: AdvisoryTime::PlusHours / DayOfWeek indexed a
// days-per-month table with month - 1 without validating, so month == 0
// (the struct's tempting "unset" value) read out of bounds; large hour
// deltas also overflowed the int total. Both now validate like ToString
// and use 64-bit civil-day arithmetic.

TEST(AdvisoryTime, MonthZeroIsRejectedNotOutOfBounds) {
  forecast::AdvisoryTime t;
  t.month = 0;
  EXPECT_FALSE(forecast::IsValidCivil(t));
  EXPECT_THROW((void)t.PlusHours(1), InvalidArgument);
  EXPECT_THROW((void)t.DayOfWeek(), InvalidArgument);
  EXPECT_THROW((void)t.ToString(), InvalidArgument);

  t.month = 2;
  t.day = 30;  // no Feb 30, even in leap years
  EXPECT_FALSE(forecast::IsValidCivil(t));
  EXPECT_THROW((void)t.PlusHours(1), InvalidArgument);
}

TEST(AdvisoryTime, PlusHoursRollsAcrossBoundaries) {
  forecast::AdvisoryTime t;
  t.year = 2012;
  t.month = 2;
  t.day = 28;
  t.hour = 23;
  const auto next = t.PlusHours(1);
  EXPECT_EQ(next.month, 2);
  EXPECT_EQ(next.day, 29);  // 2012 is a leap year
  const auto back = next.PlusHours(-1);
  EXPECT_EQ(back, t);

  forecast::AdvisoryTime eve;
  eve.year = 2011;
  eve.month = 12;
  eve.day = 31;
  eve.hour = 23;
  const auto newyear = eve.PlusHours(1);
  EXPECT_EQ(newyear.year, 2012);
  EXPECT_EQ(newyear.month, 1);
  EXPECT_EQ(newyear.day, 1);
  EXPECT_EQ(newyear.hour, 0);
}

TEST(AdvisoryTime, PlusHoursExtremeShiftsDoNotOverflow) {
  forecast::AdvisoryTime t;
  t.year = 2011;
  t.month = 8;
  t.day = 26;
  t.hour = 11;
  // Used to compute t.hour + hours in int; INT_MAX hours is ~245k years
  // and must round-trip exactly through the 64-bit civil-day path.
  for (const int shift : {INT_MAX, INT_MIN + 1, 8760, -8760, 25, -25}) {
    const auto shifted = t.PlusHours(shift);
    EXPECT_GE(shifted.hour, 0);
    EXPECT_LE(shifted.hour, 23);
    EXPECT_EQ(shifted.PlusHours(-shift), t) << "shift " << shift;
  }
}

TEST(AdvisoryTime, DayOfWeekMatchesKnownDates) {
  forecast::AdvisoryTime irene;  // FRI AUG 26 2011
  irene.year = 2011;
  irene.month = 8;
  irene.day = 26;
  EXPECT_EQ(irene.DayOfWeek(), 5);

  forecast::AdvisoryTime sandy;  // MON OCT 29 2012
  sandy.year = 2012;
  sandy.month = 10;
  sandy.day = 29;
  EXPECT_EQ(sandy.DayOfWeek(), 1);

  forecast::AdvisoryTime y2k;  // SAT JAN 1 2000
  y2k.year = 2000;
  y2k.month = 1;
  y2k.day = 1;
  EXPECT_EQ(y2k.DayOfWeek(), 6);
}

// ---------------------------------------------------------------------------
// Advisory bulletin parsing: hostile text must yield diagnostics, never
// foreign exception types, NaNs, or invalid civil times
// (fuzz/corpus/advisory/ archives the triggering bulletins).

constexpr std::string_view kIrene =
    "BULLETIN\n"
    "HURRICANE IRENE ADVISORY NUMBER  23\n"
    "1100 AM EDT FRI AUG 26 2011\n"
    "...THE CENTER OF HURRICANE IRENE WAS LOCATED NEAR LATITUDE 35.2 "
    "NORTH...LONGITUDE 76.4 WEST.\n"
    "MAXIMUM SUSTAINED WINDS ARE NEAR 85 MPH.\n"
    "HURRICANE-FORCE WINDS EXTEND OUTWARD UP TO 90 MILES...AND "
    "TROPICAL-STORM-FORCE WINDS EXTEND OUTWARD UP TO 260 MILES...\n";

TEST(AdvisoryParser, ParsesRealBulletinShape) {
  const auto result = forecast::ParseAdvisoryResult(kIrene);
  ASSERT_TRUE(result.ok()) << result.error().Render();
  const forecast::Advisory& advisory = result.value();
  EXPECT_EQ(advisory.storm_name, "IRENE");
  EXPECT_EQ(advisory.number, 23);
  EXPECT_EQ(advisory.time.hour, 11);
  EXPECT_EQ(advisory.time.day, 26);
  EXPECT_DOUBLE_EQ(advisory.center.latitude(), 35.2);
  EXPECT_DOUBLE_EQ(advisory.center.longitude(), -76.4);
  EXPECT_DOUBLE_EQ(advisory.tropical_wind_radius_miles, 260.0);
}

TEST(AdvisoryParser, OversizedBulletinHitsLimit) {
  forecast::AdvisoryLimits limits;
  limits.max_bytes = 64;
  const auto result =
      forecast::ParseAdvisoryResult(std::string(65, 'A'), limits);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, ParseErrorKind::kLimitExceeded);

  limits.max_bytes = 1 << 20;
  limits.max_tokens = 4;
  const auto tokens = forecast::ParseAdvisoryResult("A B C D E", limits);
  ASSERT_FALSE(tokens.ok());
  EXPECT_EQ(tokens.error().kind, ParseErrorKind::kLimitExceeded);
}

TEST(AdvisoryParser, MissingFieldsAreStructured) {
  const auto no_name = forecast::ParseAdvisoryResult("NOTHING HERE");
  ASSERT_FALSE(no_name.ok());
  EXPECT_EQ(no_name.error().kind, ParseErrorKind::kMissingField);

  const auto no_centre = forecast::ParseAdvisoryResult(
      "HURRICANE IRENE ADVISORY NUMBER 23");
  ASSERT_FALSE(no_centre.ok());
  EXPECT_EQ(no_centre.error().kind, ParseErrorKind::kMissingField);
}

// ParserBug #3 (part of the advisory wall): LATITUDE 999 used to leak
// geo::GeoPoint's InvalidArgument through ParseAdvisory, which documents
// ParseError — callers catching ParseError crashed on hostile input.
TEST(AdvisoryParser, AbsurdLatitudeIsBadValueNotForeignException) {
  const std::string text =
      "HURRICANE EVIL ADVISORY NUMBER 1\n"
      "...LATITUDE 999.9 NORTH...LONGITUDE 76.4 WEST...\n"
      "TROPICAL-STORM-FORCE WINDS EXTEND OUTWARD UP TO 100 MILES...\n";
  const auto result = forecast::ParseAdvisoryResult(text);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, ParseErrorKind::kBadValue);
  EXPECT_THROW((void)result.ValueOrThrow(), ParseError);
}

TEST(AdvisoryParser, ImplausibleNumbersAreIgnoredNotStored) {
  // A 20-digit advisory number used to hit float->int UB; "9960 PM ...
  // AUG 99 20110" used to store hour 99 / day 99 and blow up the first
  // PlusHours call. Both now leave the struct's defaults.
  const std::string text =
      "HURRICANE EDGE ADVISORY NUMBER 99999999999999999999\n"
      "9960 PM EDT FRI AUG 99 20110\n"
      "...LATITUDE 35.2 NORTH...LONGITUDE 76.4 WEST...\n"
      "MAXIMUM SUSTAINED WINDS ARE NEAR NAN MPH.\n"
      "TROPICAL-STORM-FORCE WINDS EXTEND OUTWARD UP TO 260 MILES...\n";
  const auto result = forecast::ParseAdvisoryResult(text);
  ASSERT_TRUE(result.ok()) << result.error().Render();
  const forecast::Advisory& advisory = result.value();
  EXPECT_EQ(advisory.number, 1);  // default, not truncated garbage
  EXPECT_TRUE(forecast::IsValidCivil(advisory.time));
  EXPECT_EQ(advisory.time, forecast::AdvisoryTime{});
  EXPECT_DOUBLE_EQ(advisory.max_wind_mph, 0.0);  // NAN never enters
}

TEST(AdvisoryParser, RenderedAdvisoryReparses) {
  const auto parsed = forecast::ParseAdvisoryResult(kIrene);
  ASSERT_TRUE(parsed.ok());
  const auto again =
      forecast::ParseAdvisoryResult(forecast::RenderAdvisory(parsed.value()));
  ASSERT_TRUE(again.ok()) << again.error().Render();
  EXPECT_EQ(again.value().storm_name, parsed.value().storm_name);
  EXPECT_EQ(again.value().time, parsed.value().time);
  EXPECT_DOUBLE_EQ(again.value().tropical_wind_radius_miles,
                   parsed.value().tropical_wind_radius_miles);
}

// ---------------------------------------------------------------------------
// ParserBug #4: ReadCatalogsCsv cast the year column straight to int, so
// "99999999999" truncated to garbage and "-5" sailed through; month 13
// was accepted too. All are now row-numbered kBadValue diagnostics.

std::string CatalogCsv(const std::string& data_rows) {
  return "type,latitude,longitude,year,month\n" + data_rows;
}

TEST(CatalogCsv, AbsurdYearsAreRejectedWithRowNumber) {
  for (const char* year : {"-5", "99999999999", "0", "10000"}) {
    std::istringstream in(
        CatalogCsv("FEMA Hurricane,29.95,-90.07,2005,8\n"
                   "FEMA Hurricane,29.95,-90.07," +
                   std::string(year) + ",8\n"));
    const auto result = hazard::ReadCatalogsCsvResult(in);
    ASSERT_FALSE(result.ok()) << "year " << year;
    EXPECT_EQ(result.error().kind, ParseErrorKind::kBadValue);
    EXPECT_EQ(result.error().line, 3u);
    EXPECT_NE(result.error().message.find("row 3"), std::string::npos);
  }
}

TEST(CatalogCsv, BadRowsGetDistinctKinds) {
  struct Case {
    const char* row;
    ParseErrorKind kind;
  };
  const Case cases[] = {
      {"FEMA Hurricane,29.95,-90.07,2005,13\n", ParseErrorKind::kBadValue},
      {"FEMA Hurricane,999.0,-90.07,2005,8\n", ParseErrorKind::kBadValue},
      {"Sharknado,29.95,-90.07,2005,8\n", ParseErrorKind::kBadValue},
      {"FEMA Hurricane,abc,-90.07,2005,8\n", ParseErrorKind::kBadNumber},
      {"FEMA Hurricane,29.95,-90.07,2005\n", ParseErrorKind::kBadSyntax},
  };
  for (const Case& c : cases) {
    std::istringstream in(CatalogCsv(c.row));
    const auto result = hazard::ReadCatalogsCsvResult(in);
    ASSERT_FALSE(result.ok()) << c.row;
    EXPECT_EQ(result.error().kind, c.kind) << c.row;
    EXPECT_EQ(result.error().line, 2u) << c.row;
  }

  std::istringstream empty("");
  EXPECT_EQ(hazard::ReadCatalogsCsvResult(empty).error().kind,
            ParseErrorKind::kEmptyInput);
  std::istringstream header_only("a,b\n");
  EXPECT_EQ(hazard::ReadCatalogsCsvResult(header_only).error().kind,
            ParseErrorKind::kBadHeader);
}

TEST(CatalogCsv, RowLimitIsEnforced) {
  hazard::CatalogCsvLimits limits;
  limits.max_rows = 2;
  std::istringstream in(
      CatalogCsv("FEMA Hurricane,29.95,-90.07,2005,8\n"
                 "FEMA Tornado,35.00,-97.00,1999,5\n"
                 "NOAA Wind,40.00,-80.00,2010,6\n"));
  const auto result = hazard::ReadCatalogsCsvResult(in, limits);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, ParseErrorKind::kLimitExceeded);
}

TEST(CatalogCsv, WriteReadRoundTrip) {
  const std::vector<hazard::Catalog> catalogs = {
      hazard::Catalog(hazard::HazardType::kFemaHurricane,
                      {{geo::GeoPoint(29.95, -90.07), 2005, 8},
                       {geo::GeoPoint(25.76, -80.19), 1992, 8}}),
      hazard::Catalog(hazard::HazardType::kNoaaEarthquake,
                      {{geo::GeoPoint(37.77, -122.42), 1989, 10}}),
  };
  std::istringstream in(hazard::CatalogsToCsv(catalogs));
  const auto result = hazard::ReadCatalogsCsvResult(in);
  ASSERT_TRUE(result.ok()) << result.error().Render();
  ASSERT_EQ(result.value().size(), 2u);
  EXPECT_EQ(result.value()[0].type(), hazard::HazardType::kFemaHurricane);
  EXPECT_EQ(result.value()[0].size(), 2u);
  EXPECT_EQ(result.value()[1].type(), hazard::HazardType::kNoaaEarthquake);
  EXPECT_EQ(result.value()[1].events()[0].year, 1989);
  EXPECT_NEAR(result.value()[1].events()[0].location.latitude(), 37.77, 1e-5);
}

// ---------------------------------------------------------------------------
// ParserBug #5: cli::Args silently accepted unknown options (a typo'd
// --scenaros ran with the default) and "--metrics-out --json" recorded
// metrics-out="" instead of failing. The registry parse rejects both.

std::vector<char*> Argv(std::vector<std::string>& tokens) {
  std::vector<char*> argv;
  argv.reserve(tokens.size());
  for (std::string& token : tokens) argv.push_back(token.data());
  return argv;
}

cli::FlagRegistry TestFlags() {
  cli::FlagRegistry flags;
  flags.Value("network").Value("metrics-out").Value("trials");
  flags.Bool("json");
  return flags;
}

TEST(CliArgs, UnknownOptionIsRejected) {
  std::vector<std::string> tokens = {"riskroute", "--scenaros", "100"};
  auto argv = Argv(tokens);
  const auto result =
      cli::Args::Parse(static_cast<int>(argv.size()), argv.data(), 1,
                       TestFlags());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, ParseErrorKind::kUnknownOption);
  EXPECT_NE(result.error().message.find("--scenaros"), std::string::npos);
}

TEST(CliArgs, ValueFlagFollowedByOptionIsMissingValue) {
  std::vector<std::string> tokens = {"riskroute", "--metrics-out", "--json"};
  auto argv = Argv(tokens);
  const auto result =
      cli::Args::Parse(static_cast<int>(argv.size()), argv.data(), 1,
                       TestFlags());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, ParseErrorKind::kMissingValue);

  std::vector<std::string> at_end = {"riskroute", "--metrics-out"};
  auto argv2 = Argv(at_end);
  const auto result2 =
      cli::Args::Parse(static_cast<int>(argv2.size()), argv2.data(), 1,
                       TestFlags());
  ASSERT_FALSE(result2.ok());
  EXPECT_EQ(result2.error().kind, ParseErrorKind::kMissingValue);
}

TEST(CliArgs, KeyEqualsValueParses) {
  std::vector<std::string> tokens = {"riskroute", "--network=Level3",
                                     "--metrics-out=m.json", "--json",
                                     "ratios"};
  auto argv = Argv(tokens);
  const auto result =
      cli::Args::Parse(static_cast<int>(argv.size()), argv.data(), 1,
                       TestFlags());
  ASSERT_TRUE(result.ok()) << result.error().Render();
  const cli::Args& args = result.value();
  EXPECT_EQ(args.GetOr("network", ""), "Level3");
  EXPECT_EQ(args.GetOr("metrics-out", ""), "m.json");
  EXPECT_TRUE(args.Has("json"));
  EXPECT_EQ(args.positional(), std::vector<std::string>{"ratios"});
}

TEST(CliArgs, BoolFlagWithInlineValueIsBadValue) {
  std::vector<std::string> tokens = {"riskroute", "--json=yes"};
  auto argv = Argv(tokens);
  const auto result =
      cli::Args::Parse(static_cast<int>(argv.size()), argv.data(), 1,
                       TestFlags());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, ParseErrorKind::kBadValue);
}

// ---------------------------------------------------------------------------
// Ingest metrics: accepted/rejected counts surface through the PR-3
// registry under ingest.<source>.*.

TEST(IngestMetrics, CountersTrackAcceptsAndRejects) {
  const std::uint64_t accepted0 = CounterTotal("ingest.csv.accepted");
  const std::uint64_t syntax0 = CounterTotal("ingest.csv.rejects.bad_syntax");
  const std::uint64_t unknown0 =
      CounterTotal("ingest.args.rejects.unknown_option");

  std::istringstream ok_csv("a,b\nc,d\n");
  ASSERT_TRUE(util::ReadCsvResult(ok_csv).ok());
  std::istringstream bad_csv("\"open\n");
  ASSERT_FALSE(util::ReadCsvResult(bad_csv).ok());

  std::vector<std::string> tokens = {"riskroute", "--nope"};
  auto argv = Argv(tokens);
  ASSERT_FALSE(cli::Args::Parse(static_cast<int>(argv.size()), argv.data(), 1,
                                TestFlags())
                   .ok());

  EXPECT_EQ(CounterTotal("ingest.csv.accepted"), accepted0 + 2);
  EXPECT_EQ(CounterTotal("ingest.csv.rejects.bad_syntax"), syntax0 + 1);
  EXPECT_EQ(CounterTotal("ingest.args.rejects.unknown_option"), unknown0 + 1);
}

// ---------------------------------------------------------------------------
// PR-9 additions: the streaming session's sequence guard and the
// StreamAdvisory wire frame are ingestion boundaries too — hostile or
// out-of-order input must come back as structured diagnostics, never as
// corrupted session state.

/// Tiny west-coast graph: far from kIrene's center, so replays are
/// cheap (empty footprints) and only the sequencing contract is on
/// trial.
core::RiskGraph TinyWestGraph() {
  core::RiskGraph graph;
  for (int i = 0; i < 4; ++i) {
    graph.AddNode(core::RiskNode{"pop-" + std::to_string(i),
                                 geo::GeoPoint(37.0 + i, -120.0 - i), 0.5,
                                 0.1, 0.0});
  }
  for (std::size_t i = 1; i < 4; ++i) graph.AddEdgeByDistance(i - 1, i);
  return graph;
}

std::string BulletinWithNumber(int number) {
  std::string text(kIrene);
  const std::string from = "NUMBER  23";
  text.replace(text.find(from), from.size(),
               "NUMBER " + std::to_string(number));
  return text;
}

TEST(StreamSequencing, DuplicateBulletinIsStructuredReject) {
  const core::RiskGraph graph = TinyWestGraph();
  const core::RouteEngine engine(graph, core::RiskParams{1e5, 1e3});
  forecast::StreamingReroute session(engine);
  const std::uint64_t rejects0 = CounterTotal("stream.rejects.sequence");

  ASSERT_TRUE(session.IngestText(kIrene).ok());
  const auto duplicate = session.IngestText(kIrene);
  ASSERT_FALSE(duplicate.ok());
  EXPECT_EQ(duplicate.error().kind, ParseErrorKind::kBadValue);
  EXPECT_EQ(duplicate.error().message,
            "duplicate advisory number 23 (session already at 23)");
  EXPECT_EQ(CounterTotal("stream.rejects.sequence"), rejects0 + 1);
  // The reject left the session where it was: the next live number lands.
  EXPECT_EQ(session.last_advisory_number(), 23);
  EXPECT_TRUE(session.IngestText(BulletinWithNumber(24)).ok());
}

TEST(StreamSequencing, OutOfOrderBulletinIsStructuredReject) {
  const core::RiskGraph graph = TinyWestGraph();
  const core::RouteEngine engine(graph, core::RiskParams{1e5, 1e3});
  forecast::StreamingReroute session(engine);

  ASSERT_TRUE(session.IngestText(kIrene).ok());
  const auto stale = session.IngestText(BulletinWithNumber(7));
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.error().kind, ParseErrorKind::kBadValue);
  EXPECT_EQ(stale.error().message,
            "out-of-order advisory number 7 (session already at 23)");
  EXPECT_EQ(session.advisory_count(), 1u);

  // Parser diagnostics pass through IngestText verbatim — a malformed
  // bulletin is a parse reject, not a sequence reject.
  const auto garbage = session.IngestText("NOT A BULLETIN");
  ASSERT_FALSE(garbage.ok());
  EXPECT_EQ(garbage.error().kind, ParseErrorKind::kMissingField);
}

// ---------------------------------------------------------------------------
// StreamAdvisory wire frames: hostile mutations of a valid frame come
// back as structured rejects (the fuzz corpus archives the same shapes
// under fuzz/corpus/wire/).

std::string EncodedStreamFrame() {
  server::wire::Request request;
  request.kind = server::wire::FrameKind::kStreamAdvisory;
  request.id = 7;
  request.deadline_ms = 250;
  request.stream.bulletin = "HURRICANE WIRE ADVISORY NUMBER 1";
  request.stream.reset = false;
  request.stream.top = 3;
  return server::wire::EncodeRequest(request);
}

util::ParseResult<server::wire::Request> DecodeFrameBytes(
    const std::string& bytes) {
  const server::wire::WireLimits limits;
  const std::span<const std::uint8_t> span(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size());
  auto frame = server::wire::DecodeSingleFrame(span, limits);
  if (!frame.ok()) return frame.error();
  return server::wire::DecodeRequestPayload(
      frame.value().header,
      {reinterpret_cast<const std::uint8_t*>(frame.value().payload.data()),
       frame.value().payload.size()},
      limits);
}

// Payload layout after the 20-byte header: u32 deadline | u8 reset |
// u32 top | u32 bulletin_len | bulletin bytes.
constexpr std::size_t kResetOffset = 20 + 4;
constexpr std::size_t kLenOffset = 20 + 4 + 1 + 4;

TEST(StreamAdvisoryWire, BadResetFlagIsBadValue) {
  std::string bytes = EncodedStreamFrame();
  bytes[kResetOffset] = '\x02';
  const auto decoded = DecodeFrameBytes(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().kind, ParseErrorKind::kBadValue);
  EXPECT_EQ(decoded.error().message, "reset flag must be 0 or 1");
}

TEST(StreamAdvisoryWire, OversizedBulletinLengthIsLimitExceeded) {
  std::string bytes = EncodedStreamFrame();
  // Claim a bulletin one byte past the cap without supplying it: the
  // limit check must fire before any read is attempted.
  const std::uint32_t huge = 32 * 1024 + 1;
  for (int b = 0; b < 4; ++b) {
    bytes[kLenOffset + static_cast<std::size_t>(b)] =
        static_cast<char>((huge >> (8 * b)) & 0xff);
  }
  const auto decoded = DecodeFrameBytes(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().kind, ParseErrorKind::kLimitExceeded);
  EXPECT_NE(decoded.error().message.find("bulletin length"),
            std::string::npos);
}

TEST(StreamAdvisoryWire, TruncatedAndTrailingPayloadsAreRejected) {
  const std::string bytes = EncodedStreamFrame();

  // Drop the bulletin's last byte (and fix the header length so the
  // frame still spans the buffer): truncated payload.
  std::string cut = bytes.substr(0, bytes.size() - 1);
  const std::uint32_t cut_len =
      static_cast<std::uint32_t>(cut.size() - server::wire::kFrameHeaderBytes);
  for (int b = 0; b < 4; ++b) {
    cut[16 + static_cast<std::size_t>(b)] =
        static_cast<char>((cut_len >> (8 * b)) & 0xff);
  }
  const auto truncated = DecodeFrameBytes(cut);
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.error().kind, ParseErrorKind::kBadSyntax);
  EXPECT_NE(truncated.error().message.find("truncated"), std::string::npos);

  // One spare byte after the bulletin: canonical decode rejects it.
  std::string padded = bytes + '\x00';
  const std::uint32_t pad_len = static_cast<std::uint32_t>(
      padded.size() - server::wire::kFrameHeaderBytes);
  for (int b = 0; b < 4; ++b) {
    padded[16 + static_cast<std::size_t>(b)] =
        static_cast<char>((pad_len >> (8 * b)) & 0xff);
  }
  const auto trailing = DecodeFrameBytes(padded);
  ASSERT_FALSE(trailing.ok());
}

// ---------------------------------------------------------------------------
// EnsembleOptions domain wall.
//
// The sampling knobs feed coin-flip thresholds inside Draw(); a NaN
// smuggled through any of them silently biases every comparison it
// touches (NaN < p is false, so e.g. a NaN fringe_fail_scale would
// never fail a fringe node — a mis-sample, not a crash). The engine
// constructor must reject the whole domain wall up front.

sim::EnsembleOptions SmallEnsembleOptions() {
  sim::EnsembleOptions options;
  options.scenarios = 8;
  options.seed = 11;
  return options;
}

TEST(EnsembleOptionsWall, NonFiniteAndOutOfDomainKnobsAreRejected) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();

  core::RiskGraph graph;
  util::Rng rng(3);
  for (int i = 0; i < 4; ++i) {
    graph.AddNode(core::RiskNode{
        "n" + std::to_string(i),
        geo::GeoPoint(rng.Uniform(30, 45), rng.Uniform(-110, -80)), 0.25,
        0.1, 0.0});
  }
  for (std::size_t i = 1; i < 4; ++i) graph.AddEdgeByDistance(i, i - 1);
  const core::RouteEngine engine(graph, core::RiskParams{1e5, 1e3});
  std::vector<hazard::Event> events;
  for (int m = 1; m <= 12; ++m) {
    events.push_back(
        hazard::Event{geo::GeoPoint(37.0 + 0.1 * m, -95.0), 2000 + m, m});
  }
  std::vector<hazard::Catalog> catalogs;
  catalogs.emplace_back(hazard::HazardType::kFemaHurricane, events);

  const auto rejects = [&](auto&& mutate) {
    sim::EnsembleOptions options = SmallEnsembleOptions();
    mutate(options);
    EXPECT_THROW(sim::EnsembleEngine(engine, catalogs, options),
                 InvalidArgument);
  };
  // Positive control: the defaults construct.
  EXPECT_NO_THROW(
      sim::EnsembleEngine(engine, catalogs, SmallEnsembleOptions()));

  // center_jitter: finite, non-negative miles.
  rejects([&](sim::EnsembleOptions& o) { o.center_jitter = -1.0; });
  rejects([&](sim::EnsembleOptions& o) { o.center_jitter = kNan; });
  rejects([&](sim::EnsembleOptions& o) { o.center_jitter = kInf; });
  // fringe_factor: finite multiplier >= 1 (the fringe contains the core).
  rejects([&](sim::EnsembleOptions& o) { o.fringe_factor = 0.5; });
  rejects([&](sim::EnsembleOptions& o) { o.fringe_factor = kNan; });
  rejects([&](sim::EnsembleOptions& o) { o.fringe_factor = kInf; });
  // fringe_fail_scale and link_cut_prob: probabilities.
  rejects([&](sim::EnsembleOptions& o) { o.fringe_fail_scale = -0.1; });
  rejects([&](sim::EnsembleOptions& o) { o.fringe_fail_scale = 1.5; });
  rejects([&](sim::EnsembleOptions& o) { o.fringe_fail_scale = kNan; });
  rejects([&](sim::EnsembleOptions& o) { o.link_cut_prob = -0.25; });
  rejects([&](sim::EnsembleOptions& o) { o.link_cut_prob = 2.0; });
  rejects([&](sim::EnsembleOptions& o) { o.link_cut_prob = kNan; });
  // criticality_top: at least one ranked link.
  rejects([&](sim::EnsembleOptions& o) { o.criticality_top = 0; });
}

}  // namespace
}  // namespace riskroute
