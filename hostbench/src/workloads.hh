/**
 * @file
 * The benchmark's workloads and the loop that times them. A
 * workload is a round function: one deterministic batch of
 * operations on freshly built inputs. Untraced runs repeat rounds
 * until the time budget is spent; the traced run replays one round
 * untraced and once under spans, then probes each layer standalone.
 */

#ifndef HOSTBENCH_WORKLOADS_HH
#define HOSTBENCH_WORKLOADS_HH

#include <functional>

#include "common.hh"
#include "layers.hh"

namespace hostbench
{

/**
 * One round of a workload on input variant @p variant: times its own
 * set-up into tally.setup_s, each operation into tally.op_ms and its
 * work per busy second into tally.round_rate, checks every simulated
 * output against the expected ledger, and (when @p log is enabled)
 * fills @p layers.
 */
using RoundFn = std::function<void(uint32_t variant, SpanLog &log,
                                   Tally &tally, LayerValues &layers)>;

/** Standalone layer probes for the traced run. */
using ProbeFn = std::function<void(uint32_t variant, LayerValues &)>;

/** Run @p round per @p options (untraced, traced or recording). */
Outcome drive(const Options &options, const RoundFn &round,
              const ProbeFn &probe);

/**
 * SPEC2000 profile @p bench as input variant @p variant runs it: the
 * same mix with its own address stream.
 */
secproc::sim::WorkloadProfile variantProfile(const std::string &bench,
                                             uint32_t variant);

Outcome runPaperGrid(const Options &options, Expected &expected);
Outcome runOtaLive(const Options &options, Expected &expected);
Outcome runFleetRollout(const Options &options, Expected &expected);

} // namespace hostbench

#endif // HOSTBENCH_WORKLOADS_HH
