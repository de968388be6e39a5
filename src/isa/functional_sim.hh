/**
 * @file
 * The functional (architectural) simulator: the golden model that
 * executes a linked program to completion and optionally records the
 * committed dynamic trace.
 */

#ifndef POLYFLOW_ISA_FUNCTIONAL_SIM_HH
#define POLYFLOW_ISA_FUNCTIONAL_SIM_HH

#include <cstdint>
#include <memory>

#include "ir/module.hh"
#include "isa/arch_state.hh"
#include "isa/trace.hh"

namespace polyflow {

/** Result of a functional run. */
struct FunctionalResult
{
    /** Committed trace (empty unless recording was requested). */
    Trace trace;
    /** Committed instruction count. */
    std::uint64_t instrCount = 0;
    /** Program reached HALT (vs. hitting the instruction cap). */
    bool halted = false;
    /** Final architectural state. */
    std::unique_ptr<ArchState> finalState;
};

/** Options controlling a functional run. */
struct FunctionalOptions
{
    /** Stop after this many committed instructions. */
    std::uint64_t maxInstrs = 50'000'000;
    /** Record the dynamic trace with dependence links. */
    bool recordTrace = false;
};

/**
 * Run @p prog functionally. Initializes memory from the program's
 * data inits, sp to the stack top 0x7fff0000 and gp to the first data
 * address, then interprets from the entry point.
 *
 * When recording, each committed instruction gets exact register
 * producer links (last dynamic writer of each source register) and a
 * memory producer link (last older store to an overlapping 8-byte
 * chunk), which the timing simulator uses for scheduling and
 * violation detection.
 *
 * @warning The recorded trace holds a pointer to @p prog; the
 * program must outlive every use of the trace (do not pass a
 * temporary).
 */
FunctionalResult runFunctional(const LinkedProgram &prog,
                               const FunctionalOptions &options = {});

} // namespace polyflow

#endif // POLYFLOW_ISA_FUNCTIONAL_SIM_HH
