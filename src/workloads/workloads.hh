/**
 * @file
 * The synthetic workload suite: one program per SPEC2000 integer
 * benchmark used in the paper, each engineered to reproduce the
 * control-flow character that makes its namesake respond to a given
 * spawn class (see DESIGN.md, "Substitutions").
 */

#ifndef POLYFLOW_WORKLOADS_WORKLOADS_HH
#define POLYFLOW_WORKLOADS_WORKLOADS_HH

#include <memory>
#include <string>
#include <vector>

#include "ir/module.hh"

namespace polyflow {

/** A ready-to-run benchmark program. */
struct Workload
{
    std::string name;
    std::unique_ptr<Module> module;
    LinkedProgram prog;
};

/**
 * Build one workload by name. @p scale multiplies the outer
 * iteration counts (1.0 gives the default dynamic length of a few
 * hundred thousand committed instructions; tests use smaller
 * scales).
 */
Workload buildWorkload(const std::string &name, double scale = 1.0);

/** The 12 benchmark names, in the paper's x-axis order. */
const std::vector<std::string> &allWorkloadNames();

} // namespace polyflow

#endif // POLYFLOW_WORKLOADS_WORKLOADS_HH
