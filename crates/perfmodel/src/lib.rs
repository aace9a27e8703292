//! # exaclim-perfmodel
//!
//! The paper's Section VI methodology, end to end:
//!
//! 1. [`census`] — traverse an architecture graph ([`exaclim_models`]
//!    specs) and count every kernel's FLOPs and bytes, per category, for
//!    forward, backward and optimizer passes — the paper's graph-based
//!    FLOP counting. The same module converts an *executed* kernel profile
//!    (from `exaclim-tensor`) into the same shape, and tests pin the two
//!    against each other.
//! 2. [`report`] — the Figure 2 single-GPU performance table and the
//!    Figure 3/8/9 kernel-category breakdowns, computed by pushing the
//!    census through the roofline GPU models.
//! 3. [`fig4_series`] / [`fig5_series`] — the Figure 4/5 weak-scaling series, by wrapping the
//!    census into an `exaclim-hpcsim` workload and sweeping node counts.
//! 4. [`tts`] — end-to-end time-to-solution (§II's submission category;
//!    §VII-C's "just over two hours" convergence runs).
//! 5. [`latency`] — log-bucketed, mergeable latency histograms with
//!    p50/p99 quantiles; every serving replica records into one.

pub mod census;
pub mod latency;
pub mod report;
mod scaling;
pub mod tts;

pub use census::{census_from_profile, census_from_spec, workload_from_spec};
pub use latency::LatencyHistogram;
pub use report::{fig2_row, fig2_table, fig3_table, Fig2Row, Fig3Row};
pub use scaling::{fig4_series, fig5_series, ScalingSeries};
pub use tts::{time_to_solution, TimeToSolution};
