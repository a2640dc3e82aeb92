//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§6) plus the quantified claims of §2.2, §3.2 and §7.
//!
//! Each experiment lives in [`experiments`] as a pure function returning
//! structured rows; the `report` binary prints them side by side with the
//! paper's published values, and the criterion benches measure the real
//! compute behind the hot paths. See DESIGN.md for the experiment index
//! (E1–E13) and EXPERIMENTS.md for recorded paper-vs-measured results.

pub mod experiments;
pub mod gate;
pub mod report;
pub mod table;

pub use table::Table;
