//! # medusa-bench
//!
//! Benchmark harness for the Medusa (ASPLOS'25) reproduction: the `repro`
//! binary regenerates every table and figure of the paper's evaluation
//! section on the simulated stack, and the Criterion benches measure the
//! wall-clock cost of the core mechanisms themselves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod common;
pub mod figures;
pub mod report;
pub mod smoke;
