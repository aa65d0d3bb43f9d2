// End-to-end tests of the seeded fuzz engine: the acceptance campaign is
// clean at Lemma 5 sizing, a deliberately mis-sized sketch produces a
// reported + shrunk + replayable failure, and the metamorphic mutations
// hold for the linear sketches.
#include <gtest/gtest.h>

#include <string>

#include "verify/fuzz.h"
#include "verify/program.h"
#include "verify/violation.h"

namespace streamfreq {
namespace {

// The acceptance criterion: 200 seeded programs across every workload
// family and mutation, zero violations at the paper's proven sizing.
TEST(FuzzDriverTest, SeededCampaignIsCleanAtLemma5Sizing) {
  FuzzOptions options;
  options.seed = 42;
  options.iterations = 200;
  const FuzzDriver driver(options);
  auto report = driver.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->programs, 200u);
  EXPECT_EQ(report->violations, 0u);
  EXPECT_TRUE(report->Pass());
  EXPECT_TRUE(report->failures.empty());
  // Every algorithm in the registry was exercised.
  for (const char* name :
       {"count-sketch", "approx-top", "count-min", "count-min-cu",
        "misra-gries", "space-saving", "lossy-counting"}) {
    EXPECT_GT(report->checks_by_algorithm.count(name), 0u) << name;
    EXPECT_GT(report->checks_by_algorithm.at(name), 0u) << name;
  }
}

TEST(FuzzDriverTest, CampaignIsDeterministic) {
  FuzzOptions options;
  options.seed = 7;
  options.iterations = 25;
  const FuzzDriver driver(options);
  auto a = driver.Run();
  auto b = driver.Run();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->checks, b->checks);
  EXPECT_EQ(a->violations, b->violations);
  EXPECT_EQ(a->checks_by_algorithm, b->checks_by_algorithm);
}

// A sketch squeezed to 0.1% of the Lemma 5 width (gamma ~32x larger than
// proven) must produce violations — the oracle firing on a real, mis-built
// configuration rather than a hand-written fake. Width scales as mild as
// 2% still pass: the paper's 256x width constant is extremely conservative.
TEST(FuzzDriverTest, MissizedSketchFailsShrinksAndReplays) {
  FuzzOptions options;
  options.seed = 42;
  options.iterations = 40;
  options.algorithm_filter = "approx-top";
  options.width_scale = 0.001;
  const FuzzDriver driver(options);
  auto report = driver.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->Pass());
  ASSERT_FALSE(report->failures.empty());

  const FuzzFailure& failure = report->failures.front();
  // Shrinking never grows the program and preserves the failure.
  EXPECT_LE(failure.minimal.n, failure.program.n);
  EXPECT_LE(failure.minimal.universe, failure.program.universe);
  EXPECT_LE(failure.minimal.k, failure.program.k);
  EXPECT_FALSE(failure.violations.empty());

  // The minimal program replays: parse its own text form and re-run it.
  const std::string line = FormatProgram(failure.minimal);
  auto parsed = ParseProgram(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto replay = driver.RunProgram(*parsed);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_FALSE(replay->violations.empty()) << "reproducer lost: " << line;
  for (const Violation& v : replay->violations) {
    EXPECT_EQ(v.algorithm, "approx-top") << FormatViolation(v);
  }
}

// Each metamorphic mutation, driven explicitly against the linear sketches:
// permuted / batched / split-merge / serialize-mid / parallel ingestion must
// leave Count-Sketch estimates bit-identical to sequential ingestion
// (additivity — the observation behind the paper's distributed use). Every
// mutation runs checks for count-sketch, so none (parallel above all, the
// relation the served tenants deploy) can drop out of it silently.
TEST(FuzzDriverTest, MetamorphicMutationsAreExactForLinearSketches) {
  const FuzzDriver driver(FuzzOptions{});
  for (Mutation mutation :
       {Mutation::kPermuted, Mutation::kBatched, Mutation::kSplitMerge,
        Mutation::kSerializeMidStream, Mutation::kParallel,
        Mutation::kBatchedScalar}) {
    for (const char* algo : {"count-sketch", "count-min"}) {
      FuzzProgram program;
      program.kind = WorkloadKind::kZipf;
      program.n = 8000;
      program.universe = 1024;
      program.mutation = mutation;
      program.seed = 1234;
      FuzzOptions options;
      options.algorithm_filter = algo;
      auto result = FuzzDriver(options).RunProgram(program);
      ASSERT_TRUE(result.ok())
          << algo << "/" << MutationName(mutation) << ": "
          << result.status().ToString();
      if (std::string(algo) == "count-sketch") {
        EXPECT_GT(result->checks, 0u)
            << "count-sketch/" << MutationName(mutation) << " ran no check";
      }
      // count-min has no serialize-mid or parallel mutation.
      if (result->checks == 0) continue;
      for (const Violation& v : result->violations) {
        ADD_FAILURE() << algo << "/" << MutationName(mutation) << ": "
                      << FormatViolation(v);
      }
    }
  }
}

TEST(FuzzDriverTest, AlgorithmFilterRestrictsChecks) {
  FuzzOptions options;
  options.seed = 11;
  options.iterations = 10;
  options.algorithm_filter = "misra-gries";
  auto report = FuzzDriver(options).Run();
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->checks, 0u);
  EXPECT_EQ(report->checks_by_algorithm.size(), 1u);
  EXPECT_GT(report->checks_by_algorithm.count("misra-gries"), 0u);
}

}  // namespace
}  // namespace streamfreq
