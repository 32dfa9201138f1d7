// Long-horizon contract of the persistent bid book: a platform that keeps
// the price ladder across runs (incremental ranking) must reproduce the
// plain rebuild-every-run platform bit for bit over a 200-run Fig-9
// trajectory — at 1/2/8 threads, with and without an active fault plan,
// and across a mid-sequence checkpoint/kill/resume of the incremental
// platform. The MLDYCKPT snapshot carries the withdrawn set but not the
// book: the book is a cache that the first post-resume step refills, so
// snapshots are byte-identical with the book on or off and either mode
// resumes the other's file.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "auction/melody_auction.h"
#include "estimators/melody_estimator.h"
#include "sim/platform.h"
#include "util/thread_pool.h"

namespace melody::sim {
namespace {

LongTermScenario fig9_scenario() {
  LongTermScenario s;
  s.num_workers = 40;
  s.num_tasks = 30;
  s.runs = 200;
  s.budget = 120.0;
  return s;
}

estimators::MelodyEstimatorConfig tracker_config(const LongTermScenario& s) {
  estimators::MelodyEstimatorConfig config;
  config.initial_posterior = {s.initial_mu, s.initial_sigma};
  config.reestimation_period = s.reestimation_period;
  return config;
}

FaultPlan test_plan() {
  FaultPlan plan;
  plan.no_show_rate = 0.1;
  plan.score_drop_rate = 0.1;
  plan.score_corrupt_rate = 0.05;
  plan.churn_rate = 0.2;
  plan.churn_min_absence = 2;
  plan.churn_max_absence = 5;
  return plan;
}

constexpr std::uint64_t kPopulationSeed = 3;
constexpr std::uint64_t kPlatformSeed = 44;

struct Rig {
  LongTermScenario scenario;
  auction::MelodyAuction mechanism;
  estimators::MelodyEstimator estimator;
  Platform platform;

  Rig(const LongTermScenario& s, std::vector<SimWorker> workers)
      : scenario(s),
        estimator(tracker_config(s)),
        platform(scenario, mechanism, estimator, std::move(workers),
                 kPlatformSeed) {}
};

std::vector<SimWorker> population(const LongTermScenario& s) {
  util::Rng rng(kPopulationSeed);
  return sample_population(s.population_config(), rng);
}

void expect_records_identical(const std::vector<RunRecord>& a,
                              const std::vector<RunRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "run " << i + 1;
  }
}

std::vector<RunRecord> run_plain(const LongTermScenario& s,
                                 const FaultPlan& plan) {
  Rig rig(s, population(s));
  if (plan.active()) rig.platform.set_fault_plan(plan);
  return rig.platform.run_all();
}

/// The incremental platform with a kill/resume in the middle: step to
/// `interrupt_after`, snapshot, destroy the rig, reconstruct from an empty
/// population with the book enabled, load, and finish.
std::vector<RunRecord> run_incremental_resumed(const LongTermScenario& s,
                                               const FaultPlan& plan,
                                               int interrupt_after) {
  std::string checkpoint;
  std::vector<RunRecord> records;
  {
    Rig rig(s, population(s));
    rig.platform.enable_bid_book();
    if (plan.active()) rig.platform.set_fault_plan(plan);
    for (int r = 0; r < interrupt_after; ++r) {
      records.push_back(rig.platform.step());
    }
    EXPECT_EQ(rig.platform.bid_book().check_links(), "");
    std::ostringstream snap;
    rig.platform.save(snap);
    checkpoint = snap.str();
  }
  Rig rig(s, {});
  rig.platform.enable_bid_book();
  std::istringstream snap(checkpoint);
  rig.platform.load(snap);
  EXPECT_TRUE(rig.platform.bid_book_enabled());
  EXPECT_EQ(rig.platform.bid_book().check_links(), "");
  EXPECT_EQ(rig.platform.current_run(), interrupt_after + 1);
  auto rest = rig.platform.run_all();
  records.insert(records.end(), rest.begin(), rest.end());
  return records;
}

class IncrementalMatrix : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { util::set_shared_thread_count(GetParam()); }
  void TearDown() override { util::set_shared_thread_count(1); }
};

TEST_P(IncrementalMatrix, TrajectoryBitIdenticalWithoutFaults) {
  const auto scenario = fig9_scenario();
  const auto plain = run_plain(scenario, FaultPlan{});
  expect_records_identical(
      plain, run_incremental_resumed(scenario, FaultPlan{}, 77));
}

TEST_P(IncrementalMatrix, TrajectoryBitIdenticalWithFaults) {
  const auto scenario = fig9_scenario();
  const auto plain = run_plain(scenario, test_plan());
  expect_records_identical(
      plain, run_incremental_resumed(scenario, test_plan(), 77));
}

INSTANTIATE_TEST_SUITE_P(Threads, IncrementalMatrix,
                         ::testing::Values(1, 2, 8));

TEST(IncrementalAuction, BookSurvivesCheckpointWithDigestIntact) {
  // The book is not in the snapshot: a restored platform starts with an
  // empty book, and one step later its ladder equals the uninterrupted
  // platform's, content and links.
  auto scenario = fig9_scenario();
  scenario.runs = 20;
  Rig rig(scenario, population(scenario));
  rig.platform.enable_bid_book();
  for (int r = 0; r < 10; ++r) rig.platform.step();
  ASSERT_NE(rig.platform.bid_book().size(), 0u);

  std::ostringstream snap;
  rig.platform.save(snap);
  Rig restored(scenario, {});
  restored.platform.enable_bid_book();
  std::istringstream in(snap.str());
  restored.platform.load(in);
  EXPECT_TRUE(restored.platform.bid_book().empty());

  EXPECT_EQ(restored.platform.step(), rig.platform.step());
  EXPECT_EQ(restored.platform.bid_book().content_digest(),
            rig.platform.bid_book().content_digest());
  EXPECT_EQ(restored.platform.bid_book().check_links(), "");
}

TEST(IncrementalAuction, V1SnapshotLoadsIntoEnabledPlatform) {
  // (Named for the retired v1 layout plain platforms used to write.) A
  // checkpoint written by a plain platform must restore into a
  // book-enabled platform and continue bit-identically: the ladder starts
  // empty and the first diff repopulates it before the next auction.
  auto scenario = fig9_scenario();
  scenario.runs = 30;
  const auto straight = run_plain(scenario, FaultPlan{});

  std::string plain_checkpoint;
  std::vector<RunRecord> records;
  {
    Rig rig(scenario, population(scenario));
    for (int r = 0; r < 12; ++r) records.push_back(rig.platform.step());
    std::ostringstream snap;
    rig.platform.save(snap);
    plain_checkpoint = snap.str();
  }
  Rig rig(scenario, {});
  rig.platform.enable_bid_book();
  std::istringstream snap(plain_checkpoint);
  rig.platform.load(snap);
  EXPECT_TRUE(rig.platform.bid_book().empty());
  auto rest = rig.platform.run_all();
  records.insert(records.end(), rest.begin(), rest.end());
  expect_records_identical(straight, records);
  EXPECT_FALSE(rig.platform.bid_book().empty());
}

TEST(IncrementalAuction, EnabledSnapshotLoadsIntoPlainPlatform) {
  // The other direction: a book-enabled platform's checkpoint restores
  // into a plain platform, which keeps ranking by rebuild (load() never
  // switches the book on) and continues bit-identically.
  auto scenario = fig9_scenario();
  scenario.runs = 30;
  const auto straight = run_plain(scenario, FaultPlan{});

  std::string enabled_checkpoint;
  std::vector<RunRecord> records;
  {
    Rig rig(scenario, population(scenario));
    rig.platform.enable_bid_book();
    for (int r = 0; r < 12; ++r) records.push_back(rig.platform.step());
    std::ostringstream snap;
    rig.platform.save(snap);
    enabled_checkpoint = snap.str();
  }
  Rig rig(scenario, {});
  std::istringstream snap(enabled_checkpoint);
  rig.platform.load(snap);
  EXPECT_FALSE(rig.platform.bid_book_enabled());
  auto rest = rig.platform.run_all();
  records.insert(records.end(), rest.begin(), rest.end());
  expect_records_identical(straight, records);
  EXPECT_TRUE(rig.platform.bid_book().empty());
}

TEST(IncrementalAuction, PlainSnapshotBytesUnchangedByTheFeature) {
  // One layout: a book-enabled and a plain platform at the same run write
  // byte-identical snapshots, withdrawals included — the book is a cache,
  // not state.
  auto scenario = fig9_scenario();
  scenario.runs = 10;
  Rig plain(scenario, population(scenario));
  Rig enabled(scenario, population(scenario));
  enabled.platform.enable_bid_book();
  for (Rig* rig : {&plain, &enabled}) {
    for (int r = 0; r < 5; ++r) rig->platform.step();
    const auction::WorkerId victim = rig->platform.workers().back().id();
    ASSERT_TRUE(rig->platform.set_withdrawn(victim, true));
  }
  ASSERT_FALSE(enabled.platform.bid_book().empty());
  std::ostringstream plain_snap, enabled_snap;
  plain.platform.save(plain_snap);
  enabled.platform.save(enabled_snap);
  EXPECT_EQ(plain_snap.str(), enabled_snap.str());
}

TEST(IncrementalAuction, WithdrawnWorkersSitOutAndSurviveResume) {
  auto scenario = fig9_scenario();
  scenario.runs = 20;

  // Withdraw one worker on both of two identical platforms; outcomes must
  // agree (determinism of the withdrawn set), and a withdrawn worker's
  // flag must survive a checkpoint round trip — with the book on and off
  // (the withdrawn set is platform state, not part of the book).
  bool book = false;
  const auto run_with_withdrawal = [&](bool through_snapshot) {
    Rig rig(scenario, population(scenario));
    if (book) rig.platform.enable_bid_book();
    const auction::WorkerId victim = rig.platform.workers().front().id();
    for (int r = 0; r < 5; ++r) rig.platform.step();
    EXPECT_TRUE(rig.platform.set_withdrawn(victim, true));
    EXPECT_TRUE(rig.platform.is_withdrawn(victim));
    std::vector<RunRecord> records;
    if (through_snapshot) {
      std::ostringstream snap;
      rig.platform.save(snap);
      Rig restored(scenario, {});
      if (book) restored.platform.enable_bid_book();
      std::istringstream in(snap.str());
      restored.platform.load(in);
      EXPECT_TRUE(restored.platform.is_withdrawn(victim));
      return restored.platform.run_all();
    }
    return rig.platform.run_all();
  };
  for (const bool mode : {true, false}) {
    SCOPED_TRACE(mode ? "book on" : "book off");
    book = mode;
    expect_records_identical(run_with_withdrawal(false),
                             run_with_withdrawal(true));
  }
}

TEST(IncrementalAuction, UpdateBidTakesEffectDeterministically) {
  auto scenario = fig9_scenario();
  scenario.runs = 20;
  const auto run_with_rebid = [&] {
    Rig rig(scenario, population(scenario));
    rig.platform.enable_bid_book();
    const auction::WorkerId worker = rig.platform.workers().front().id();
    std::vector<RunRecord> records;
    for (int r = 0; r < 5; ++r) records.push_back(rig.platform.step());
    EXPECT_TRUE(rig.platform.update_bid(worker, {1.05, 5}));
    EXPECT_FALSE(rig.platform.update_bid(9999, {1.0, 1}));
    auto rest = rig.platform.run_all();
    records.insert(records.end(), rest.begin(), rest.end());
    return records;
  };
  expect_records_identical(run_with_rebid(), run_with_rebid());
}

}  // namespace
}  // namespace melody::sim
