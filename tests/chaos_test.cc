#include "verify/chaos.h"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/failpoint.h"

namespace streamfreq {
namespace {

// ThreadSanitizer slows the ingestion pipeline ~10x; shrink the campaign
// there so the concurrent suite stays fast under scripts/check.sh.
#if defined(__SANITIZE_THREAD__)
constexpr uint64_t kCampaignIterations = 40;
constexpr uint64_t kTreeIterations = 1;
constexpr uint64_t kRestartIterations = 1;
#else
constexpr uint64_t kCampaignIterations = 200;
constexpr uint64_t kTreeIterations = 3;
constexpr uint64_t kRestartIterations = 2;
#endif

// The `sfq` binary the kill-restart scenario forks; tests/CMakeLists.txt
// passes it in. Empty when the test binary runs outside ctest.
std::string SfqBinary() {
  const char* path = std::getenv("SFQ_BINARY");
  return path == nullptr ? "" : path;
}

// A fresh directory for one test's sockets, data dirs and sketch files.
std::filesystem::path PrivateIoDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("sfq_chaos_test_" + name + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(ChaosTest, SchedulesAreDeterministicBoundedAndParseable) {
  const std::vector<std::pair<const char*, std::string (*)(uint64_t, uint64_t)>>
      schedules = {{"ingest", ChaosScheduleForIteration},
                   {"server", ServerChaosScheduleForIteration},
                   {"restart", ServerRestartScheduleForIteration},
                   {"tree", TreeChaosScheduleForIteration}};
  for (const auto& [name, schedule] : schedules) {
    SCOPED_TRACE(name);
    for (uint64_t index = 0; index < 64; ++index) {
      const std::string a = schedule(11, index);
      EXPECT_EQ(a, schedule(11, index))
          << "schedule must be a pure function of (seed, index)";
      EXPECT_FALSE(a.empty());
      // Every crash clause must carry a fire budget, or the respawn loop
      // (or a relaunched daemon, or a dying tree) would never terminate.
      for (size_t pos = a.find("crash"); pos != std::string::npos;
           pos = a.find("crash", pos + 1)) {
        EXPECT_NE(a.substr(pos, a.find(';', pos) - pos).find('*'),
                  std::string::npos)
            << a;
      }
      // At most one clause per site (two clauses on one site would make the
      // later one win silently), and the whole spec must parse.
      std::set<std::string> sites;
      size_t begin = 0;
      while (begin <= a.size()) {
        const size_t end = std::min(a.find(';', begin), a.size());
        const std::string clause = a.substr(begin, end - begin);
        const std::string site = clause.substr(0, clause.find('='));
        EXPECT_TRUE(sites.insert(site).second)
            << "duplicate clause for " << site << " in " << a;
        begin = end + 1;
      }
      ScopedFailpoints fp(a, 1);
      EXPECT_TRUE(fp.status().ok()) << a << ": " << fp.status().ToString();
    }
  }
  EXPECT_NE(ChaosScheduleForIteration(11, 1), ChaosScheduleForIteration(12, 1));
  EXPECT_NE(ServerRestartScheduleForIteration(11, 1),
            ServerRestartScheduleForIteration(12, 1));
}

TEST(ChaosTest, RestartSchedulesDieAtMostOncePerIteration) {
  for (uint64_t index = 0; index < 64; ++index) {
    const std::string a = ServerRestartScheduleForIteration(11, index);
    // Exactly one process-death clause, throttled and budgeted to one fire:
    // an always-crash daemon would die at the same site forever and the
    // iteration could never finish its stream.
    const size_t pos = a.find("crash");
    ASSERT_NE(pos, std::string::npos) << a;
    EXPECT_EQ(a.substr(pos + 5, 7), "@0.08*1") << a;
    EXPECT_EQ(a.find("crash", pos + 1), std::string::npos) << a;
  }
}

// The acceptance-criteria campaign: many seeded iterations with faults
// armed, and every single one ends in a clean error Status or a sketch
// that passes its guarantee checker over the effective stream.
TEST(ChaosTest, CampaignSurvivesRandomizedFaultSchedules) {
  ChaosOptions options;
  options.seed = 2026;
  options.iterations = kCampaignIterations;
  auto report = RunChaosCampaign(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(report->iterations, kCampaignIterations);
  EXPECT_EQ(report->verified + report->clean_errors, kCampaignIterations);
  EXPECT_TRUE(report->Passed());
  EXPECT_EQ(report->guarantee_failures, 0u);
  for (const ChaosFailure& failure : report->failures) {
    ADD_FAILURE() << "iteration " << failure.index << " [" << failure.schedule
                  << "] " << failure.program << ": " << failure.detail;
  }
  // The campaign must actually inject faults, not vacuously pass.
  EXPECT_GT(report->faulted_iterations, 0u);
  EXPECT_GT(report->fault_fires, 0u);
  // Most iterations still produce a verifiable sketch.
  EXPECT_GT(report->verified, 0u);
}

TEST(ChaosTest, KillOneWorkerScheduleAlwaysRecovers) {
  ChaosOptions options;
  options.seed = 7;
  options.iterations = 5;
  options.failpoints = "ingestor.worker_batch=crash*2";
  options.exercise_io = false;
  auto report = RunChaosCampaign(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Two bounded crashes per iteration, each recovered by a respawn with
  // the in-flight batch requeued — so every iteration still verifies.
  EXPECT_EQ(report->worker_respawns, 2u * options.iterations);
  EXPECT_EQ(report->verified, options.iterations);
  EXPECT_EQ(report->guarantee_failures, 0u);
}

TEST(ChaosTest, FaultFreeCampaignVerifies) {
  ChaosOptions options;
  options.seed = 13;
  options.iterations = 3;
  options.failpoints = "batch_queue.push=off";  // valid spec, disarms all
  auto report = RunChaosCampaign(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->fault_fires, 0u);
  EXPECT_EQ(report->verified + report->clean_errors, 3u);
  EXPECT_EQ(report->guarantee_failures, 0u);
}

TEST(ChaosTest, InjectedIoFaultsSurfaceAsCleanStatuses) {
  ChaosOptions options;
  options.seed = 19;
  options.iterations = 3;
  options.failpoints = "sketch_io.write=error*1";
  auto report = RunChaosCampaign(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->io_round_trips, 3u);
  EXPECT_EQ(report->io_faults, 3u);
  EXPECT_EQ(report->guarantee_failures, 0u);
}

// The server-side acceptance campaign: real connections severed at
// accept/read/write, snapshots withheld, workers crashed — and every
// iteration must still reconcile per-tenant mass accounting exactly and
// serve verifiable sealed sketches.
TEST(ChaosTest, ServerCampaignReconcilesUnderFaults) {
#if defined(__SANITIZE_THREAD__)
  constexpr uint64_t kServerIterations = 6;
#else
  constexpr uint64_t kServerIterations = 12;
#endif
  ChaosOptions options;
  options.seed = 2026;
  options.iterations = kServerIterations;
  options.scenario = ChaosScenario::kServer;
  auto report = RunChaosCampaign(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->iterations, kServerIterations);
  EXPECT_TRUE(report->Passed());
  for (const ChaosFailure& failure : report->failures) {
    ADD_FAILURE() << "iteration " << failure.index << " ["
                  << failure.schedule << "]: " << failure.detail;
  }
  // Not vacuous: faults really fired and requests really flowed.
  EXPECT_GT(report->faulted_iterations, 0u);
  EXPECT_GT(report->server_requests, 0u);
  EXPECT_GT(report->verified, 0u);
  // The degraded serving path really ran: some schedule armed
  // server.publish, and queries it hit were served a withheld snapshot.
  bool publish_armed = false;
  for (uint64_t i = 0; i < kServerIterations; ++i) {
    publish_armed |= ServerChaosScheduleForIteration(options.seed, i).find(
                         "server.publish") != std::string::npos;
  }
  EXPECT_TRUE(publish_armed);
  EXPECT_GT(report->stale_serves, 0u);
}

// The merge-tree scenario: random shapes under the dist.* schedule, every
// iteration a clean error or a verified root, and the whole report a pure
// function of the seed.
TEST(ChaosTest, TreeCampaignPassesAndIsDeterministic) {
  ChaosOptions options;
  options.scenario = ChaosScenario::kTree;
  options.seed = 2026;
  options.iterations = kTreeIterations;
  auto report = RunChaosCampaign(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->iterations, kTreeIterations);
  EXPECT_EQ(report->verified + report->clean_errors, kTreeIterations);
  EXPECT_TRUE(report->Passed());
  for (const ChaosFailure& failure : report->failures) {
    ADD_FAILURE() << "iteration " << failure.index << " [" << failure.schedule
                  << "] " << failure.program << ": " << failure.detail;
  }
  EXPECT_GT(report->deltas_shipped, 0u);

  auto again = RunChaosCampaign(options);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(*report == *again) << "same seed, different report";
}

// The kill-restart scenario: real `sfq serve` daemons killed at armed
// failpoints and by SIGKILL, relaunched, and reconciled.
TEST(ChaosTest, RestartCampaignRecoversThroughKills) {
  if (SfqBinary().empty()) GTEST_SKIP() << "SFQ_BINARY is not set";
  const std::filesystem::path io_dir = PrivateIoDir("restart");
  ChaosOptions options;
  options.scenario = ChaosScenario::kServerRestart;
  options.seed = 2026;
  options.iterations = kRestartIterations;
  options.io_dir = io_dir.string();
  options.server_binary = SfqBinary();
  auto report = RunChaosCampaign(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->iterations, kRestartIterations);
  EXPECT_TRUE(report->Passed());
  for (const ChaosFailure& failure : report->failures) {
    ADD_FAILURE() << "iteration " << failure.index << " ["
                  << failure.schedule << "]: " << failure.detail;
  }
  EXPECT_GT(report->server_requests, 0u);
  EXPECT_TRUE(std::filesystem::is_empty(io_dir));
  std::filesystem::remove_all(io_dir);
}

// Regression: an iteration that fails after forking its daemon must still
// kill and reap it and remove its socket and data dir. With every response
// write severed, the durable tenant's create can never be acknowledged.
TEST(ChaosTest, FailedRestartIterationLeavesNoDaemonOrFiles) {
#if !STREAMFREQ_FAILPOINTS
  GTEST_SKIP() << "failpoints are compiled out";
#endif
  if (SfqBinary().empty()) GTEST_SKIP() << "SFQ_BINARY is not set";
  const std::filesystem::path io_dir = PrivateIoDir("leak");
  ChaosOptions options;
  options.scenario = ChaosScenario::kServerRestart;
  options.seed = 42;
  options.iterations = 1;
  options.failpoints = "server.write=error";
  options.io_dir = io_dir.string();
  options.server_binary = SfqBinary();
  auto report = RunChaosCampaign(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->guarantee_failures, 1u);
  ASSERT_EQ(report->failures.size(), 1u);
  EXPECT_EQ(report->failures[0].schedule, options.failpoints);
  EXPECT_TRUE(report->failures[0].program.empty());

  errno = 0;
  EXPECT_TRUE(::waitpid(-1, nullptr, WNOHANG) == -1 && errno == ECHILD)
      << "a forked sfq serve is still running or unreaped";
  EXPECT_FALSE(std::filesystem::exists(io_dir / "sfq_chaos_rst_42_0.sock"));
  EXPECT_FALSE(std::filesystem::exists(io_dir / "sfq_chaos_rst_42_0.data"));
  std::filesystem::remove_all(io_dir);
}

// Harness errors, not injected faults: every scenario rejects zero
// iterations and a malformed failpoint spec up front.
TEST(ChaosTest, HarnessErrorsInEveryScenario) {
  for (const ChaosScenario scenario :
       {ChaosScenario::kIngest, ChaosScenario::kServer,
        ChaosScenario::kServerRestart, ChaosScenario::kTree}) {
    SCOPED_TRACE(static_cast<int>(scenario));
    ChaosOptions options;
    options.scenario = scenario;
    options.server_binary = "/nonexistent/sfq";
    options.iterations = 0;
    EXPECT_TRUE(RunChaosCampaign(options).status().IsInvalidArgument());
    options.iterations = 1;
    options.failpoints = "no_such.site=error";
    EXPECT_TRUE(RunChaosCampaign(options).status().IsInvalidArgument());
  }
}

}  // namespace
}  // namespace streamfreq
