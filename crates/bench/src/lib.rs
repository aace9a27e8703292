//! # exaclim-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation. Each `fig*` binary prints one artifact:
//!
//! | binary | regenerates |
//! |---|---|
//! | `fig2_single_gpu` | Figure 2: single-GPU op counts, rates, %peak |
//! | `fig3_kernel_breakdown` | Figures 3/8/9: kernel-category tables |
//! | `fig4_weak_scaling` | Figure 4: weak-scaling curves |
//! | `fig5_staging_scaling` | Figure 5: staged vs global-FS input |
//! | `fig6_convergence` | Figure 6: loss-vs-time curves |
//! | `fig7_segmentation` | Figure 7 + §VII-D IoU numbers |
//! | `staging_times` | §V-A1 staging-time and reader-thread tables |
//! | `control_plane` | §V-A3 control-plane message analysis |
//! | `loss_weighting` | §V-B1 weighting-scheme stability study |
//! | `ablations` | design-choice ablations (growth rate, decoder resolution, collectives, fusion, weak-vs-strong scaling) |
//! | `time_to_solution` | §II/§VII-C end-to-end wall-clock estimates |
//!
//! Speed is measured by the end-to-end benchmark in `benchmark/`.
