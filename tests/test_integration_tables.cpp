// Integration tests: the qualitative shape of Tables II-IV, asserted on a
// reduced configuration of the same harness the benches run.  These pin the
// paper's §IV-C/D/F findings as regression tests.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "costmodel/evaluation.hpp"

namespace mwr::costmodel {
namespace {

// One shared sweep for the whole suite (seeds=3, sizes to 256 keeps it a
// few seconds).
class TableShape : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    EvalConfig config;
    config.seeds = 3;
    config.max_size = 256;
    config.master_seed = 20210525;
    cells_ = new std::vector<EvalCell>(run_evaluation(config));
  }
  static void TearDownTestSuite() {
    delete cells_;
    cells_ = nullptr;
  }
  static const std::vector<EvalCell>& cells() { return *cells_; }

 private:
  static std::vector<EvalCell>* cells_;
};

std::vector<EvalCell>* TableShape::cells_ = nullptr;

TEST_F(TableShape, SlateIsAlwaysTheMostExpensiveInCycles) {
  // §IV-C: "Slate ... is always the most expensive algorithm in terms of
  // number of iterations until convergence."
  for (std::size_t i = 0; i + 2 < cells().size(); i += 3) {
    const auto& standard = cells()[i];
    const auto& distributed = cells()[i + 1];
    const auto& slate = cells()[i + 2];
    EXPECT_GT(slate.iterations.mean(), standard.iterations.mean())
        << slate.dataset;
    if (!distributed.intractable) {
      EXPECT_GT(slate.iterations.mean(), distributed.iterations.mean())
          << slate.dataset;
    }
  }
}

TEST_F(TableShape, DistributedConvergesFastestOnRandomScenarios) {
  // §IV-C: "For all five random scenarios, Distributed converges most
  // quickly."
  for (std::size_t i = 0; i + 2 < cells().size(); i += 3) {
    if (cells()[i].family != "random") continue;
    EXPECT_LT(cells()[i + 1].iterations.mean(), cells()[i].iterations.mean())
        << cells()[i].dataset;
  }
}

TEST_F(TableShape, StandardCyclesGrowWithInstanceSize) {
  // §IV-C: "For Standard, the number of iterations until convergence is
  // closely related to the instance size."
  const auto& r64 = find_cell(cells(), "random64", core::MwuKind::kStandard);
  const auto& r256 = find_cell(cells(), "random256", core::MwuKind::kStandard);
  EXPECT_LT(r64.iterations.mean(), r256.iterations.mean());
}

TEST_F(TableShape, EveryAlgorithmAveragesAboveNinetyPercentAccuracy) {
  // §IV-D headline: "The mean accuracy of each algorithm is always at
  // least 90%" — asserted per algorithm over the whole suite.
  util::RunningStats per_kind[3];
  for (const auto& cell : cells()) {
    if (cell.intractable) continue;
    per_kind[static_cast<int>(cell.kind)].add(cell.accuracy.mean());
  }
  for (int k = 0; k < 3; ++k) {
    EXPECT_GT(per_kind[k].mean(), 90.0)
        << to_string(static_cast<core::MwuKind>(k));
  }
}

TEST_F(TableShape, StandardIsTheLeastAccurateOverall) {
  // §IV-D: "For problem domains that require a high degree of accuracy,
  // Standard is worse than the other two."
  util::RunningStats per_kind[3];
  for (const auto& cell : cells()) {
    if (cell.intractable) continue;
    per_kind[static_cast<int>(cell.kind)].add(cell.accuracy.mean());
  }
  const double standard = per_kind[static_cast<int>(core::MwuKind::kStandard)].mean();
  const double slate = per_kind[static_cast<int>(core::MwuKind::kSlate)].mean();
  const double distributed =
      per_kind[static_cast<int>(core::MwuKind::kDistributed)].mean();
  EXPECT_LT(standard, slate);
  EXPECT_LT(standard, distributed);
}

TEST_F(TableShape, DistributedBurnsTheMostCpuIterations) {
  // §IV-F: "while Distributed often requires the fewest iterations to
  // converge, it uses a large number of CPUs" — per dataset, Distributed's
  // CPU-iteration cost dwarfs Standard's.
  for (std::size_t i = 0; i + 2 < cells().size(); i += 3) {
    const auto& standard = cells()[i];
    const auto& distributed = cells()[i + 1];
    if (distributed.intractable) continue;
    EXPECT_GT(distributed.cpu_iterations.mean(),
              standard.cpu_iterations.mean())
        << standard.dataset;
  }
}

TEST_F(TableShape, DistributedPopulationGrowsWithInstanceSize) {
  const auto& small =
      find_cell(cells(), "random64", core::MwuKind::kDistributed);
  const auto& large =
      find_cell(cells(), "random256", core::MwuKind::kDistributed);
  EXPECT_GT(large.cpus_per_cycle, 4 * small.cpus_per_cycle);
}

TEST_F(TableShape, JavaScenariosGiveConsistentStandardCycles) {
  // §IV-C: "The performance of Standard is also consistent across all five
  // Java datasets" — same k=100, so cycle counts cluster tightly.
  util::RunningStats java_cycles;
  for (const auto& cell : cells()) {
    if (cell.family == "Java" && cell.kind == core::MwuKind::kStandard) {
      java_cycles.add(cell.iterations.mean());
    }
  }
  ASSERT_EQ(java_cycles.count(), 5u);
  EXPECT_LT(java_cycles.stddev(), 0.35 * java_cycles.mean());
}

// One golden row per cell: every figure Tables II-IV report, as exact hex
// floats, so any change to a replication's trajectory or to the fold order
// of the sweep shows up as a differing row.  A change meant to alter a
// trajectory rewrites the tests/golden/table_cells_*.csv files from
// golden_row().
constexpr const char* kGoldenHeader =
    "dataset,kind,iterations_mean,iterations_stddev,accuracy_mean,"
    "cpu_iterations_mean,converged_runs";

std::string golden_row(const EvalCell& cell) {
  char row[256];
  std::snprintf(row, sizeof row, "%s,%s,%a,%a,%a,%a,%zu",
                cell.dataset.c_str(), to_string(cell.kind).c_str(),
                cell.iterations.mean(), cell.iterations.stddev(),
                cell.accuracy.mean(), cell.cpu_iterations.mean(),
                cell.converged_runs);
  return row;
}

void expect_cells_match_golden(const std::vector<EvalCell>& cells,
                               const std::string& file) {
  const std::string path =
      std::string(MWR_TEST_SOURCE_DIR) + "/tests/golden/" + file;
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << "missing golden file " << path;
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, kGoldenHeader);
  for (const auto& cell : cells) {
    ASSERT_TRUE(std::getline(in, line)) << "golden ends before "
                                        << cell.dataset;
    EXPECT_EQ(golden_row(cell), line);
  }
  EXPECT_FALSE(std::getline(in, line)) << "golden has extra rows: " << line;
}

TEST_F(TableShape, CellsMatchGolden) {
  expect_cells_match_golden(cells(), "table_cells_256.csv");
}

// The k >= 1000 instances (random1024, unimodal1024, units) are where
// Distributed's population passes 30,000 agents and Slate caps ~1000
// marginals per cycle — scales the k <= 256 sweep never reaches.  One seed
// keeps the sweep about a second.
TEST(TableGolden, LargeKCellsMatchGolden) {
  EvalConfig config;
  config.seeds = 1;
  config.max_size = 1024;
  config.master_seed = 20210525;
  config.threads = 2;
  expect_cells_match_golden(run_evaluation(config), "table_cells_1024.csv");
}

}  // namespace
}  // namespace mwr::costmodel
