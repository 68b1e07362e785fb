// bench::require_clean_audit over a figure's cells: the figure benches exit
// 1 instead of printing when any run behind a cell broke an invariant.
#include <gtest/gtest.h>

#include <vector>

#include "common.h"
#include "exp/planetlab.h"
#include "exp/sweep.h"

namespace halfback::bench {
namespace {

TEST(AuditGate, CleanCellsPass) {
  std::vector<exp::SweepCell> cells(3);
  require_clean_audit(cells);
  require_clean_audit(std::vector<exp::TrialResult>(2));
  SUCCEED();
}

TEST(AuditGate, AViolationInAnySweepCellExitsOne) {
  std::vector<exp::SweepCell> cells(3);
  cells[1].audit_violations = 2;
  EXPECT_EXIT(require_clean_audit(cells), testing::ExitedWithCode(1),
              "invariant auditor reported 2 violations");
}

TEST(AuditGate, ViolationsAreSummedAcrossCellKinds) {
  std::vector<exp::FriendlinessPoint> points(2);
  points[0].audit_violations = 1;
  points[1].audit_violations = 3;
  EXPECT_EXIT(require_clean_audit(points), testing::ExitedWithCode(1),
              "reported 4 violations");
  std::vector<exp::TrialResult> trials(4);
  trials[3].audit_violations = 1;
  EXPECT_EXIT(require_clean_audit(trials), testing::ExitedWithCode(1),
              "reported 1 violations");
}

}  // namespace
}  // namespace halfback::bench
