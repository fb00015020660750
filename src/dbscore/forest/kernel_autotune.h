/**
 * @file
 * Build-time autotuner for the forest kernel (ForestKernel::Autotune,
 * defined in kernel_autotune.cc).
 *
 * The tuner times a small candidate grid of (inner loop, row block)
 * against the freshly compiled plan on a deterministic synthetic row
 * sample (fixed-seed, drawn from the ensemble's per-feature threshold
 * ranges so traversal paths are realistic), then adopts the fastest
 * configuration. Winners are cached process-wide per model shape, so a
 * serve path that prewarms the same model repeatedly — or rebuilds a
 * kernel after mutation with an unchanged shape — pays the tuning cost
 * once. Tuning time is attributed to the kKernelBuild trace stage via
 * a "kernel-autotune" child span.
 *
 * Determinism: candidates are enumerated in a fixed order, the sample
 * is a fixed-seed xorshift sequence, and ties keep the earlier
 * candidate, so the *chosen parameters* only vary with genuine timing
 * differences. Tests that need full reproducibility pin
 * options.autotune = false or compare predictions (which never depend
 * on the tuned parameters — every candidate computes identical
 * results).
 */
#ifndef DBSCORE_FOREST_KERNEL_AUTOTUNE_H
#define DBSCORE_FOREST_KERNEL_AUTOTUNE_H

namespace dbscore {

/** Drops every cached autotune winner (tests). */
void AutotuneCacheClear();

}  // namespace dbscore

#endif  // DBSCORE_FOREST_KERNEL_AUTOTUNE_H
