// Drives the parallel analysis hot paths on a simulated ecosystem so the
// TSan CI stage (ROOTSTORE_SANITIZE=thread, `ctest -L tsan`) exercises the
// real Jaccard / SMACOF concurrency, not just the pool in isolation.
// Assertions double as a serial-equivalence smoke check; the exhaustive
// suite lives in tests/analysis/parallel_equivalence_test.cpp.
#include <gtest/gtest.h>

#include "src/analysis/jaccard.h"
#include "src/analysis/mds.h"
#include "src/exec/thread_pool.h"
#include "src/synth/simulator.h"

namespace rs::exec {
namespace {

rs::synth::SimulatedEcosystem make_ecosystem() {
  rs::synth::SimulatorConfig cfg;
  cfg.seed = 321;
  cfg.ca_count = 50;
  cfg.program_count = 2;
  cfg.derivative_count = 2;
  cfg.snapshot_interval_days = 90;
  return rs::synth::simulate_ecosystem(cfg);
}

TEST(ParallelPipeline, JaccardAndMdsUnderContention) {
  const auto eco = make_ecosystem();
  rs::analysis::JaccardOptions opts;
  opts.max_per_provider = 20;

  const auto serial = rs::analysis::jaccard_matrix(eco.database, opts);
  ThreadPool pool(4);
  const auto parallel = rs::analysis::jaccard_matrix(eco.database, opts, &pool);
  ASSERT_EQ(parallel.size(), serial.size());
  EXPECT_TRUE(parallel.values == serial.values);

  const auto mds_serial = rs::analysis::smacof_mds(serial);
  const auto mds_parallel = rs::analysis::smacof_mds(serial, {}, &pool);
  ASSERT_EQ(mds_parallel.points.size(), mds_serial.points.size());
  EXPECT_EQ(mds_parallel.iterations, mds_serial.iterations);
  EXPECT_EQ(mds_parallel.stress, mds_serial.stress);
  for (std::size_t i = 0; i < mds_serial.points.size(); ++i) {
    EXPECT_EQ(mds_parallel.points[i].x, mds_serial.points[i].x);
    EXPECT_EQ(mds_parallel.points[i].y, mds_serial.points[i].y);
  }
}

TEST(ParallelPipeline, RepeatedRunsOnOnePoolStayIdentical) {
  // Re-running on a warm pool must not perturb results (no hidden state).
  const auto eco = make_ecosystem();
  rs::analysis::JaccardOptions opts;
  opts.max_per_provider = 10;
  ThreadPool pool(3);
  const auto first = rs::analysis::jaccard_matrix(eco.database, opts, &pool);
  for (int round = 0; round < 3; ++round) {
    const auto again = rs::analysis::jaccard_matrix(eco.database, opts, &pool);
    EXPECT_TRUE(again.values == first.values) << "round " << round;
  }
}

}  // namespace
}  // namespace rs::exec
