/**
 * @file
 * The three workloads. Each builds its inputs from the seed, sets up
 * (repeatedly, reporting the median), runs an op-count-bounded closed
 * loop, checks its correctness gate, and reports either the
 * end-to-end metrics (untraced) or the per-layer metrics (traced).
 */

#ifndef REPOBENCH_WORKLOADS_HH
#define REPOBENCH_WORKLOADS_HH

#include <string>

#include "common.hh"

namespace repobench {

using WorkloadFn = Outcome (*)(const Options &);

Outcome runTouchVerify(const Options &options);
Outcome runBrowse(const Options &options);
Outcome runPopulation(const Options &options);

/** The workload named @p name, or nullptr. */
inline WorkloadFn
findWorkload(const std::string &name)
{
    if (name == "touch_verify")
        return &runTouchVerify;
    if (name == "browse")
        return &runBrowse;
    if (name == "population")
        return &runPopulation;
    return nullptr;
}

/** Setups per run; the median is reported as setup_s. */
constexpr int kSetupRepeats = 5;

} // namespace repobench

#endif // REPOBENCH_WORKLOADS_HH
