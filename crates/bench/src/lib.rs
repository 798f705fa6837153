//! # spatial-bench — experiment harness
//!
//! Regenerates every figure of the paper's evaluation (Section 7) plus the
//! ablations listed in DESIGN.md. Each figure has a binary under `src/bin`:
//!
//! | binary | reproduces |
//! |--------|-----------|
//! | `fig5_6`   | Figures 5-6: relative error vs dataset size (Zipf 0 / 1) |
//! | `fig7_8`   | Figures 7-8: guaranteed vs actual error, space vs size |
//! | `fig9_11`  | Figures 9-11: error vs space on the (simulated) GIS joins |
//! | `ablation_maxlevel` | Section 6.5 maxLevel sweep |
//! | `eps_join_accuracy` | Section 6.3 ε-join estimator |
//! | `range_query_accuracy` | Section 6.4 range queries |
//! | `endpoint_strategies` | Section 5.2 vs Appendix C |
//! | `dimensionality` | Section 6.1 curse of dimensionality |
//! | `other_predicates` | Appendix B: overlap+ and containment joins |
//! | `perf_probe` | build/estimate/net/batch/rebalance probes the `perf_check` gate pairs |
//! | `perf_check` | paired change-vs-parent perf-regression gate |
//!
//! Binaries print aligned tables and write CSV/JSON under `results/`.
//! Default workload sizes are scaled down to finish in seconds-to-minutes;
//! pass `--paper-scale` for the paper's original sizes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod probes;
pub mod report;
pub mod runner;
