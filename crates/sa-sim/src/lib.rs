//! Cycle-accurate simulator of the ArrayFlex systolic array.
//!
//! The paper evaluates ArrayFlex with SystemVerilog RTL of a weight-
//! stationary systolic array whose pipeline depth is configurable at run
//! time. This crate is the Rust stand-in for that RTL: a register-level,
//! cycle-accurate model of the array that
//!
//! * executes real integer GEMMs (verified element-by-element against the
//!   reference multiplication in [`gemm`]),
//! * reproduces the cycle counts of Equations (1)–(4) exactly, including the
//!   shallow pipeline modes obtained by making intermediate pipeline
//!   registers transparent,
//! * models the carry-save reduction inside collapsed pipeline blocks
//!   bit-exactly, and
//! * reports the register clock/gating activity that feeds the power model.
//!
//! Each array model has two kernels: the analytic wavefront kernel, which
//! runs every simulated tile as one whole stream from cycle 0, and a
//! per-cycle naive scan that serves manual stepping
//! ([`SystolicArray::step_into`], [`trace_tile`]) and every other
//! `run_cycles` call. The two are bit-identical in outputs and
//! [`RunStats`].
//!
//! # Modules
//!
//! * [`config`] — array geometry, pipeline and [`Dataflow`] configuration;
//! * [`pe`] — the configurable processing element;
//! * [`carry_save`] — redundant carry-save arithmetic;
//! * [`mod@array`] — the register-level weight-stationary array model;
//! * [`dataflow`] — weight-stationary input skewing and output collection
//!   schedules;
//! * [`os_array`] / [`os_dataflow`] — the output-stationary array model
//!   and its schedules;
//! * [`backend`] — the pooled [`TileEngine`], an array of either dataflow
//!   that runs one tile end to end;
//! * [`sim`] — whole-GEMM simulation with tiling, verification and
//!   statistics;
//! * [`stats`] — run statistics.
//!
//! # Quick example
//!
//! ```
//! use gemm::{multiply, Matrix};
//! use gemm::rng::SplitMix64;
//! use sa_sim::{ArrayConfig, Simulator};
//!
//! let mut rng = SplitMix64::new(7);
//! let a = Matrix::random(4, 10, &mut rng, -5, 5);
//! let b = Matrix::random(10, 6, &mut rng, -5, 5);
//!
//! // Simulate the GEMM on an 8x8 ArrayFlex array with k = 4 pipeline
//! // stages collapsed; the result is bit-identical to the reference GEMM.
//! let simulator = Simulator::new(ArrayConfig::new(8, 8).with_collapse_depth(4))?;
//! let run = simulator.run_gemm(&a, &b)?;
//! assert_eq!(run.output, multiply(&a, &b)?);
//! // Three quarters of the pipeline registers were clock-gated.
//! assert!((run.stats.clock_gating_fraction() - 0.75).abs() < 1e-9);
//! # Ok::<(), sa_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod backend;
pub mod carry_save;
pub mod config;
pub mod dataflow;
pub mod error;
pub mod memory;
pub mod os_array;
pub mod os_dataflow;
pub mod pe;
pub mod sim;
mod soa;
pub mod stats;
pub mod trace;

pub use array::SystolicArray;
pub use backend::TileEngine;
pub use carry_save::CarrySaveValue;
pub use config::{ArrayConfig, Dataflow};
pub use dataflow::{InputFeeder, OutputCollector};
pub use error::SimError;
pub use memory::{traffic_for_gemm, TrafficReport};
pub use os_array::OutputStationaryArray;
pub use os_dataflow::{OsCollector, OsNorthFeeder, OsWestFeeder};
pub use pe::ProcessingElement;
pub use sim::{ArrayPool, GemmResult, LatencyCheck, Simulator, TileResult};
pub use stats::RunStats;
pub use trace::{trace_tile, CycleRecord, TileTrace};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SystolicArray>();
        assert_send_sync::<Simulator>();
        assert_send_sync::<ArrayConfig>();
        assert_send_sync::<RunStats>();
        assert_send_sync::<SimError>();
    }
}
