//! Experiment runners regenerating every table and figure of the
//! DAC-2002 paper, plus the ablation studies called out in `DESIGN.md`.
//!
//! Each function in [`experiments`] produces a self-contained textual
//! report (paper-expected vs measured where applicable); the `report`
//! binary dispatches on experiment ids, and [`baseline`] times the same
//! code paths for the `ccs-bench` perf gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod experiments;

pub use experiments::{run, EXPERIMENT_IDS};
