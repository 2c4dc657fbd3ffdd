//! Matrix / GEMM substrate for the ArrayFlex reproduction.
//!
//! Everything the systolic-array models consume is expressed as integer
//! matrix multiplication:
//!
//! * [`matrix`] — dense row-major matrices and the reference GEMM with
//!   64-bit accumulation (the golden model every simulation is checked
//!   against);
//! * [`lanes`] — the multiply-accumulate lane kernels the reference GEMM
//!   and the simulator's array kernels run on, with a run-time choice
//!   between an AVX2 and a scalar body;
//! * [`problem`] — GEMM dimensions in the paper's `(M, N, T)` notation;
//! * [`tiling`] — decomposition of large GEMMs into array-sized tiles
//!   (Fig. 1(c), Equations 2 and 4);
//! * [`im2col`] — lowering of convolution layers to GEMM, including the
//!   actual data transform and a direct-convolution reference;
//! * [`quantize`] — affine quantization helpers for the examples;
//! * [`workload`] — deterministic random workload generation;
//! * [`rng`] — the small deterministic PRNG used by the generators;
//! * [`parallel`] — the hand-rolled sharded thread runner
//!   ([`ParallelExecutor`]) the simulator and the evaluation sweeps use to
//!   fan independent work units across cores with deterministic result
//!   ordering;
//! * [`cancel`] — the cooperative [`CancelToken`] the executor's
//!   cancellable entry points poll between job items, so long sweeps can
//!   be stopped (by a caller, or a deadline) within one item boundary.
//!
//! # Quick example
//!
//! ```
//! use gemm::{multiply, tiled_multiply, Matrix};
//! use gemm::rng::SplitMix64;
//!
//! let mut rng = SplitMix64::new(1);
//! let a = Matrix::random(6, 40, &mut rng, -8, 8);
//! let b = Matrix::random(40, 10, &mut rng, -8, 8);
//! // Tiling over a 16x16 array produces exactly the reference result.
//! assert_eq!(tiled_multiply(&a, &b, 16, 16)?, multiply(&a, &b)?);
//! # Ok::<(), gemm::GemmError>(())
//! ```

// `unsafe` is denied everywhere except `lanes`, whose AVX2 dispatch calls
// `#[target_feature]` functions after run-time detection.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod error;
pub mod im2col;
pub mod lanes;
pub mod matrix;
pub mod parallel;
pub mod problem;
pub mod quantize;
pub mod rng;
pub mod tiling;
pub mod workload;

pub use cancel::{CancelToken, Cancelled};
pub use error::GemmError;
pub use im2col::{ConvShape, ConvWeights, Tensor3};
pub use matrix::{accumulate, multiply, multiply_into, Matrix};
pub use parallel::ParallelExecutor;
pub use problem::GemmDims;
pub use quantize::QuantParams;
pub use tiling::{tiled_multiply, Tile, TileGrid};
pub use workload::{DimBounds, GemmWorkload, WorkloadGenerator};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Matrix<i32>>();
        assert_send_sync::<Matrix<i64>>();
        assert_send_sync::<GemmDims>();
        assert_send_sync::<TileGrid>();
        assert_send_sync::<GemmError>();
        assert_send_sync::<WorkloadGenerator>();
        assert_send_sync::<ParallelExecutor>();
        assert_send_sync::<CancelToken>();
        assert_send_sync::<Cancelled>();
    }
}
