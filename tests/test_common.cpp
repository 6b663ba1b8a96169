// Foundations: PRNG determinism/uniformity, Zipf sampler shape, statistics,
// table rendering, CLI parsing, check macros, lexicographic sequence order.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/lex_order.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/zipf.hpp"

namespace cca::common {
namespace {

// ---------- rng ----------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.next_double();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, NextDoubleMeanNearHalf) {
  Rng rng(123);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.next_double());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
}

TEST(Rng, NextBelowIsInRangeAndRoughlyUniform) {
  Rng rng(9);
  std::map<std::uint64_t, int> hist;
  const int kDraws = 60000;
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t v = rng.next_below(6);
    ASSERT_LT(v, 6u);
    ++hist[v];
  }
  for (const auto& [value, count] : hist) {
    (void)value;
    EXPECT_NEAR(count, kDraws / 6.0, kDraws * 0.01);
  }
}

TEST(Rng, NextBelowOneAlwaysZero) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextBelowZeroThrows) {
  Rng rng(3);
  EXPECT_THROW(rng.next_below(0), Error);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(5);
  Rng b = a.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(SplitMix64, KnownReferenceValues) {
  // First three outputs of Vigna's reference splitmix64 with seed 0.
  SplitMix64 sm(0);
  EXPECT_EQ(sm(), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(sm(), 0x6E789E6AA1B965F4ULL);
  EXPECT_EQ(sm(), 0x06C45D188009454FULL);
  // Regression pin for a nonzero seed (value produced by this
  // implementation, which matches the reference on the seed-0 vectors).
  SplitMix64 sm2(1234567);
  EXPECT_EQ(sm2(), 0x599ED017FB08FC85ULL);
}

// ---------- zipf ----------

TEST(Zipf, PmfSumsToOne) {
  const ZipfSampler zipf(1000, 1.0);
  double sum = 0.0;
  for (std::size_t k = 0; k < 1000; ++k) sum += zipf.pmf(k);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, PmfIsMonotoneDecreasing) {
  const ZipfSampler zipf(100, 1.2);
  for (std::size_t k = 1; k < 100; ++k)
    EXPECT_LE(zipf.pmf(k), zipf.pmf(k - 1) + 1e-15);
}

TEST(Zipf, ExponentZeroIsUniform) {
  const ZipfSampler zipf(50, 0.0);
  for (std::size_t k = 0; k < 50; ++k) EXPECT_NEAR(zipf.pmf(k), 0.02, 1e-12);
}

TEST(Zipf, SampleFrequenciesMatchPmf) {
  const ZipfSampler zipf(20, 1.0);
  Rng rng(77);
  std::vector<int> hist(20, 0);
  const int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) ++hist[zipf.sample(rng)];
  for (std::size_t k = 0; k < 20; ++k) {
    const double expected = zipf.pmf(k) * kDraws;
    EXPECT_NEAR(hist[k], expected, 5.0 * std::sqrt(expected) + 10.0)
        << "rank " << k;
  }
}

TEST(Zipf, HeadDominatesForSkewedExponent) {
  const ZipfSampler zipf(10000, 1.0);
  double head = 0.0;
  for (std::size_t k = 0; k < 100; ++k) head += zipf.pmf(k);
  EXPECT_GT(head, 0.5);  // top 1% of ranks carries most of the mass
}

TEST(Zipf, RejectsInvalidArguments) {
  EXPECT_THROW(ZipfSampler(0, 1.0), Error);
  EXPECT_THROW(ZipfSampler(10, -0.5), Error);
}

// ---------- stats ----------

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_NEAR(s.mean(), 5.0, 1e-12);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  s.add(3.5);
  EXPECT_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_NEAR(percentile(v, 0.0), 1.0, 1e-12);
  EXPECT_NEAR(percentile(v, 100.0), 4.0, 1e-12);
  EXPECT_NEAR(percentile(v, 50.0), 2.5, 1e-12);
}

TEST(Percentile, RejectsEmptyAndBadP) {
  EXPECT_THROW(percentile({}, 50.0), Error);
  EXPECT_THROW(percentile({1.0}, -1.0), Error);
  EXPECT_THROW(percentile({1.0}, 101.0), Error);
  EXPECT_THROW(percentile({1.0}, std::nan("")), Error);
}

TEST(Percentile, SmallSamplesStayInBounds) {
  // n < 4 is where a naive rank computation reads out of bounds or
  // rounds p99 up to p100. Lock the interpolation behavior down.
  EXPECT_EQ(percentile({7.0}, 0.0), 7.0);
  EXPECT_EQ(percentile({7.0}, 50.0), 7.0);
  EXPECT_EQ(percentile({7.0}, 99.0), 7.0);
  EXPECT_EQ(percentile({7.0}, 100.0), 7.0);
  // Two elements: p99 interpolates at rank 0.99, NOT the max.
  EXPECT_NEAR(percentile({10.0, 20.0}, 99.0), 19.9, 1e-12);
  EXPECT_NEAR(percentile({10.0, 20.0}, 1.0), 10.1, 1e-12);
  EXPECT_EQ(percentile({10.0, 20.0}, 100.0), 20.0);
  // Three elements: p50 is exactly the middle, p75 interpolates.
  EXPECT_EQ(percentile({3.0, 1.0, 2.0}, 50.0), 2.0);  // also: sorts input copy
  EXPECT_NEAR(percentile({1.0, 2.0, 3.0}, 75.0), 2.5, 1e-12);
}

TEST(RunningStats, EmptyCiIsZeroNotNan) {
  RunningStats s;
  EXPECT_EQ(s.ci95_halfwidth(), 0.0);
  EXPECT_FALSE(std::isnan(s.ci95_halfwidth()));
  EXPECT_FALSE(std::isnan(s.variance()));
}

TEST(Gini, UniformIsZeroAndConcentratedIsHigh) {
  EXPECT_NEAR(gini({5.0, 5.0, 5.0, 5.0}), 0.0, 1e-12);
  const double concentrated = gini({0.0, 0.0, 0.0, 100.0});
  EXPECT_GT(concentrated, 0.7);
  EXPECT_THROW(gini({1.0, -2.0}), Error);
}

// ---------- table ----------

TEST(Table, RendersAlignedColumnsAndCsv) {
  Table t({"name", "value"});
  t.add_row({"alpha", Table::num(1.5, 2)});
  t.add_row({"b", Table::pct(0.375, 1)});
  std::ostringstream text, csv;
  t.print(text);
  t.print_csv(csv);
  EXPECT_NE(text.str().find("alpha"), std::string::npos);
  EXPECT_NE(text.str().find("1.50"), std::string::npos);
  EXPECT_NE(csv.str().find("b,37.5%"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvEscapesSpecialCharacters) {
  Table t({"a"});
  t.add_row({"has,comma \"quoted\""});
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_NE(csv.str().find("\"has,comma \"\"quoted\"\"\""),
            std::string::npos);
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

// ---------- cli ----------

TEST(Cli, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--nodes=10", "--scope", "500", "--flag"};
  CliArgs args(5, argv);
  EXPECT_EQ(args.get_int("nodes", 0), 10);
  EXPECT_EQ(args.get_int("scope", 0), 500);
  EXPECT_TRUE(args.get_bool("flag", false));
  EXPECT_EQ(args.get_int("missing", 7), 7);
  args.reject_unused();
}

TEST(Cli, TypedGettersValidate) {
  const char* argv[] = {"prog", "--n=abc"};
  CliArgs args(2, argv);
  EXPECT_THROW(args.get_int("n", 0), Error);
}

TEST(Cli, AcceptsNegativeNumericsInBothForms) {
  const char* argv[] = {"prog", "--delta=-3", "--drift", "-0.25",
                        "--offset=-12"};
  CliArgs args(5, argv);
  EXPECT_EQ(args.get_int("delta", 0), -3);
  EXPECT_EQ(args.get_int("offset", 0), -12);
  EXPECT_NEAR(args.get_double("drift", 0.0), -0.25, 1e-15);
  args.reject_unused();
}

TEST(Cli, RejectsTrailingGarbageAfterNumerics) {
  const char* argv[] = {"prog", "--seeds=8x", "--rate=1.5qps"};
  CliArgs args(2, argv);
  EXPECT_THROW(args.get_int("seeds", 0), Error);
  CliArgs args2(3, argv);
  EXPECT_THROW(args2.get_double("rate", 0.0), Error);
}

TEST(Cli, RejectsEmptyNumericValues) {
  // `--seeds=` used to parse as 0 via strtoll's empty-string behavior.
  const char* argv[] = {"prog", "--seeds=", "--rate="};
  CliArgs args(3, argv);
  EXPECT_THROW(args.get_int("seeds", 0), Error);
  EXPECT_THROW(args.get_double("rate", 0.0), Error);
}

TEST(Cli, RejectsOutOfRangeNumerics) {
  // strtoll clamps to INT64_MAX with errno=ERANGE; that must be an error,
  // not a silently saturated value.
  const char* argv[] = {"prog", "--big=99999999999999999999999",
                        "--huge=1e999999"};
  CliArgs args(3, argv);
  EXPECT_THROW(args.get_int("big", 0), Error);
  EXPECT_THROW(args.get_double("huge", 0.0), Error);
}

TEST(Cli, RejectsNanDoubles) {
  const char* argv[] = {"prog", "--rate=nan"};
  CliArgs args(2, argv);
  EXPECT_THROW(args.get_double("rate", 0.0), Error);
}

TEST(Cli, ErrorNamesTheFlagAndValue) {
  const char* argv[] = {"prog", "--seeds=8x"};
  CliArgs args(2, argv);
  try {
    args.get_int("seeds", 0);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("--seeds"), std::string::npos) << message;
    EXPECT_NE(message.find("8x"), std::string::npos) << message;
  }
}

TEST(Cli, RejectUnusedFlagsCatchesTypos) {
  const char* argv[] = {"prog", "--tyop=1"};
  CliArgs args(2, argv);
  EXPECT_THROW(args.reject_unused(), Error);
}

TEST(Cli, UnknownFlagSuggestsNearMissAndListsKnownFlags) {
  const char* argv[] = {"prog", "--thread=2"};
  CliArgs args(2, argv);
  args.get_int("threads", 0);
  args.get_int("nodes", 0);
  try {
    args.reject_unused();
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("unknown flag --thread"), std::string::npos)
        << message;
    EXPECT_NE(message.find("did you mean --threads?"), std::string::npos)
        << message;
    EXPECT_NE(message.find("known flags:"), std::string::npos) << message;
    EXPECT_NE(message.find("--nodes"), std::string::npos) << message;
  }
}

TEST(Cli, UnknownFlagWithNoNearMissOmitsSuggestion) {
  const char* argv[] = {"prog", "--zzqq=1"};
  CliArgs args(2, argv);
  args.get_int("threads", 0);
  try {
    args.reject_unused();
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string message = e.what();
    EXPECT_EQ(message.find("did you mean"), std::string::npos) << message;
    EXPECT_NE(message.find("known flags: --threads"), std::string::npos)
        << message;
  }
}

TEST(Cli, SuggestsClosestOfSeveralKnownFlags) {
  const char* argv[] = {"prog", "--miner-pair=1"};
  CliArgs args(2, argv);
  args.get_int("miner-pairs", 0);
  args.get_int("miner-objects", 0);
  args.get_string("miner", "exact");
  try {
    args.reject_unused();
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean --miner-pairs?"),
              std::string::npos)
        << e.what();
  }
}

TEST(Cli, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "positional"};
  EXPECT_THROW(CliArgs(2, argv), Error);
}

// ---------- check ----------

TEST(Check, ThrowsWithMessage) {
  try {
    CCA_CHECK_MSG(1 == 2, "custom " << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("custom 42"), std::string::npos);
  }
}

// ---------- lexicographic order ----------

TEST(LexOrder, MatchesMapOrderWithIndexTieBreak) {
  // Short sequences over a tiny alphabet: many duplicates, proper
  // prefixes, empty sequences, and keys that agree on the four packed
  // elements but differ later. Walking a std::map keyed by the sequences
  // (equal keys listed in index order) must give the same permutation.
  Rng rng(17);
  std::vector<std::vector<int>> seqs(400);
  for (auto& s : seqs) {
    s.resize(rng.next_below(8));
    for (int& x : s) x = static_cast<int>(rng.next_below(3));
  }
  seqs.push_back({0, 0, 0, 0, 2});
  seqs.push_back({0, 0, 0, 0, 1});
  seqs.push_back({0, 0, 0, 0});
  std::map<std::vector<int>, std::vector<std::size_t>> by_key;
  for (std::size_t i = 0; i < seqs.size(); ++i) by_key[seqs[i]].push_back(i);
  std::vector<std::size_t> expected;
  for (const auto& [key, ids] : by_key)
    expected.insert(expected.end(), ids.begin(), ids.end());

  EXPECT_EQ(lexicographic_order(seqs.size(),
                                [&](std::size_t i) -> const std::vector<int>& {
                                  return seqs[i];
                                }),
            expected);
}

TEST(LexOrder, HandlesEmptyInputAndLargeValues) {
  EXPECT_TRUE(lexicographic_order(0, [](std::size_t) {
                return std::vector<std::uint32_t>{};
              }).empty());
  // Values near the top of the supported range still order correctly.
  const std::vector<std::vector<std::uint32_t>> seqs{
      {0xFFFFFFFDu, 1}, {0xFFFFFFFDu}, {0, 0xFFFFFFFDu}, {0xFFFFFFFDu, 0}};
  EXPECT_EQ(lexicographic_order(
                seqs.size(),
                [&](std::size_t i) -> const std::vector<std::uint32_t>& {
                  return seqs[i];
                }),
            (std::vector<std::size_t>{2, 1, 3, 0}));
}

}  // namespace
}  // namespace cca::common
