// The three workloads. Each returns a process exit code and fills
// `outcome` with the run's result line.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// serve_repeat (`unique` false) and serve_unique (`unique` true).
int RunServe(const Args& args, bool unique, RunOutcome* outcome);

/// analytic_oj.
int RunAnalytic(const Args& args, RunOutcome* outcome);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
