//! Experiment harness reproducing every evaluation figure of *Dynamic
//! Histograms: Capturing Evolving Data Sets* (Figs. 5–23).
//!
//! * [`harness`] — result types ([`FigureResult`], [`Series`]) and run
//!   options (seed count, quick scaling).
//! * [`algos`] — uniform runners for the dynamic (DC, DVO, DADO, AC) and
//!   static (SC, SVO, SADO, SSBM, Equi-Depth, Equi-Width) algorithms:
//!   thin wrappers over the `dh_catalog::AlgoSpec` registry, driving every
//!   competitor as a `Box<dyn DynHistogram>`.
//! * [`figures`] — one function per figure, plus a registry used by the
//!   `repro` binary and the Criterion benches, and the free-form
//!   [`run_custom`] experiment.
//!
//! The `repro` binary regenerates any or all figures as CSV files and a
//! markdown summary, and runs custom algorithm mixes selected by name
//! through the registry:
//!
//! ```text
//! cargo run --release -p dh_bench --bin repro -- all --out results
//! cargo run --release -p dh_bench --bin repro -- fig5 fig8 --seeds 10
//! cargo run --release -p dh_bench --bin repro -- custom --algos DC,SVO,AC40X
//! ```
//!
//! Serving performance (the catalog, WAL, replicas and sites) is
//! measured by the separate `perfbench` package at the repository root.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod algos;
pub mod figures;
pub mod harness;

pub use algos::{DynamicAlgo, StaticAlgo};
pub use figures::{all_figure_ids, run_custom, run_figure};
pub use harness::{FigureResult, RunOptions, Series};
