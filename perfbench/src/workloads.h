/**
 * @file
 * The workloads. Each builds its inputs from Options::seed, times its
 * set-up several times, drives the program through its public API for
 * Options::seconds, and checks every output outside the timed region.
 * In a traced run (Options::trace) the time is split between an
 * untraced pass and a traced pass with the layer probes, and the
 * per-layer metrics come from the traced pass.
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "harness.h"

namespace perfbench {

/** paged_mix: one closed-loop SQL session over a paged table. */
Outcome RunPagedMix(const Options& options);

/**
 * serve_ladder: open-loop ScoringService rate ladder. Its traced run
 * also runs MeasureFleetLayer.
 */
Outcome RunServeLadder(const Options& options);

/**
 * Drives a multi-tenant FleetService at a fixed open-loop rate for
 * @p seconds, checks its predictions and reports the fleet layer's
 * per-layer metrics into @p out. Returns the requests it shed
 * (rejected, expired, failed or wrong).
 */
std::uint64_t MeasureFleetLayer(const Options& options, double seconds,
                                Outcome& out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
