//! The dataflow-generic tile engine.
//!
//! [`TileEngine`] is the unit the tile loop of
//! [`Simulator`](crate::Simulator) and the [`ArrayPool`](crate::ArrayPool)
//! work with: an array of either dataflow — the weight-stationary
//! [`SystolicArray`] or the output-stationary [`OutputStationaryArray`] —
//! chosen by the [`Dataflow`] recorded in the [`ArrayConfig`], plus
//! [`TileEngine::execute_tile`], which runs one array-sized tile end to end
//! on that dataflow's own feeder/collector schedules.
//!
//! The **tile operand contract** is per-dataflow, because each dataflow
//! maps different GEMM dimensions onto the PE grid:
//!
//! * weight-stationary: `A_sub` is `T x R` (the streamed dimension times
//!   the array rows), `B_sub` is `R x C` (the resident weights); the tile
//!   produces the `T x C` partial product.
//! * output-stationary: `A_sub` is `R x N` (one matrix row per array row,
//!   the reduction streamed), `B_sub` is `N x C`; the tile produces the
//!   full `R x C` result block.
//!
//! In both cases `execute_tile` computes exactly `A_sub x B_sub`. The
//! GEMM tile loop runs the same code on operand blocks read in place: each
//! tile's `A_sub` and `B_sub` are the blocks of the whole `A` and `B` at
//! the tile's origin, with zeros past the matrices' edges, so no tile
//! copies its operands; `execute_tile` is the origin-zero case. A block
//! knows how far into the tile its matrix reaches, and the arrays store,
//! multiply and harvest only that part: past it every product is zero. So
//! a partial tile at a GEMM's edge returns its product only over the rows
//! and columns inside the output, while `execute_tile`'s whole operands
//! reach the whole array.

use crate::array::SystolicArray;
use crate::config::{ArrayConfig, Dataflow};
use crate::dataflow::{InputFeeder, OutputCollector};
use crate::error::SimError;
use crate::os_array::OutputStationaryArray;
use crate::os_dataflow::{OsCollector, OsNorthFeeder, OsWestFeeder};
use crate::sim::TileResult;
use crate::soa::TileOperand;
use crate::stats::RunStats;
use gemm::Matrix;

/// A concrete array backend of either dataflow — the unit the
/// [`ArrayPool`](crate::ArrayPool) checks out and in.
///
/// The variants are boxed so the enum stays pointer-sized regardless of
/// how much SoA state each engine carries.
#[derive(Debug, Clone)]
pub enum TileEngine {
    /// A weight-stationary array.
    Ws(Box<SystolicArray>),
    /// An output-stationary array.
    Os(Box<OutputStationaryArray>),
}

impl TileEngine {
    /// Constructs the backend the configuration's [`Dataflow`] asks for.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the configuration is invalid.
    pub fn new(config: ArrayConfig) -> Result<Self, SimError> {
        match config.dataflow {
            Dataflow::WeightStationary => Ok(Self::Ws(Box::new(SystolicArray::new(config)?))),
            Dataflow::OutputStationary => {
                Ok(Self::Os(Box::new(OutputStationaryArray::new(config)?)))
            }
        }
    }

    /// The engine's dataflow.
    #[must_use]
    pub fn dataflow(&self) -> Dataflow {
        match self {
            Self::Ws(_) => Dataflow::WeightStationary,
            Self::Os(_) => Dataflow::OutputStationary,
        }
    }

    /// The array configuration (including its [`Dataflow`]).
    #[must_use]
    pub fn config(&self) -> ArrayConfig {
        match self {
            Self::Ws(array) => array.config(),
            Self::Os(array) => array.config(),
        }
    }

    /// Statistics accumulated since the last reset.
    #[must_use]
    pub fn stats(&self) -> RunStats {
        match self {
            Self::Ws(array) => array.stats(),
            Self::Os(array) => array.stats(),
        }
    }

    /// Prepares the engine for a fresh tile without reallocating.
    pub fn reset_for_tile(&mut self) {
        match self {
            Self::Ws(array) => array.reset_for_tile(),
            Self::Os(array) => array.reset_for_tile(),
        }
    }

    /// Runs one array-sized tile end to end (`A_sub x B_sub`, shapes per
    /// the dataflow's operand contract — see the module docs) and returns
    /// the tile output with its statistics (`tiles == 1`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DimensionMismatch`] if the operands do not fit
    /// the dataflow's tile contract for this array.
    pub fn execute_tile(
        &mut self,
        a_sub: &Matrix<i32>,
        b_sub: &Matrix<i32>,
    ) -> Result<TileResult, SimError> {
        self.execute_operands(TileOperand::whole(a_sub), TileOperand::whole(b_sub))
    }

    /// [`TileEngine::execute_tile`] on operand blocks read in place. The
    /// tile's output covers only the part of the tile the operands reach:
    /// `T x` the columns of `B_sub` inside `B` (weight-stationary), or the
    /// rows of `A_sub` inside `A` `x` those columns (output-stationary).
    /// Past them every product is zero padding.
    pub(crate) fn execute_operands(
        &mut self,
        a_sub: TileOperand<'_>,
        b_sub: TileOperand<'_>,
    ) -> Result<TileResult, SimError> {
        match self {
            Self::Ws(array) => execute_ws_tile(array, a_sub, b_sub),
            Self::Os(array) => execute_os_tile(array, a_sub, b_sub),
        }
    }
}

/// The weight-stationary tile flow: preload `B_sub` as the stationary
/// weights, stream `A_sub` west-to-east on the feeder schedule and collect
/// the south edge.
fn execute_ws_tile(
    array: &mut SystolicArray,
    a_sub: TileOperand<'_>,
    b_sub: TileOperand<'_>,
) -> Result<TileResult, SimError> {
    let config = array.config();
    array.reset_for_tile();
    array.load_tile_weights(b_sub)?;
    let feeder = InputFeeder::from_operand(a_sub, config)?;
    let t = a_sub.rows();
    let mut collector = OutputCollector::clipped(config, t, b_sub.real_cols());
    array.run_cycles(&feeder, 0, config.compute_cycles(t as u64), &mut collector)?;
    let output = collector.into_output()?;
    let mut stats = array.stats();
    stats.tiles = 1;
    Ok(TileResult { output, stats })
}

/// The output-stationary tile flow: stream `A_sub` west and `B_sub` north
/// on the skewed feeder schedules, accumulate in place and drain the
/// resident accumulators on the collector schedule.
fn execute_os_tile(
    array: &mut OutputStationaryArray,
    a_sub: TileOperand<'_>,
    b_sub: TileOperand<'_>,
) -> Result<TileResult, SimError> {
    let config = array.config();
    array.reset_for_tile();
    let west = OsWestFeeder::from_operand(a_sub, config)?;
    let north = OsNorthFeeder::from_operand(b_sub, config)?;
    let n = west.stream_length();
    let mut collector = OsCollector::clipped(config, n, a_sub.real_rows(), b_sub.real_cols());
    array.run_cycles(&west, &north, 0, config.os_tile_cycles(n), &mut collector)?;
    let output = collector.into_output()?;
    let mut stats = array.stats();
    stats.tiles = 1;
    Ok(TileResult { output, stats })
}

impl From<SystolicArray> for TileEngine {
    fn from(array: SystolicArray) -> Self {
        Self::Ws(Box::new(array))
    }
}

impl From<OutputStationaryArray> for TileEngine {
    fn from(array: OutputStationaryArray) -> Self {
        Self::Os(Box::new(array))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemm::{multiply, rng::SplitMix64, Matrix};

    #[test]
    fn engine_dispatches_by_dataflow_and_computes_the_same_product() {
        let mut rng = SplitMix64::new(41);
        // Both dataflows multiply the same 4x6 by 6x4 product, each on its
        // own tile shape: WS tiles (T=4) x (R=6) x (C=4) directly; OS pads
        // the 4 output rows onto a 6-row array.
        let a = Matrix::random(4, 6, &mut rng, -9, 9);
        let b = Matrix::random(6, 4, &mut rng, -9, 9);
        let expected = multiply(&a, &b).unwrap();

        let ws_config = ArrayConfig::new(6, 4).with_collapse_depth(2);
        let mut ws = TileEngine::new(ws_config).unwrap();
        assert_eq!(ws.dataflow(), Dataflow::WeightStationary);
        assert_eq!(ws.config(), ws_config);
        let ws_tile = ws.execute_tile(&a, &b).unwrap();
        assert_eq!(ws_tile.output, expected);
        assert_eq!(ws_tile.stats.tiles, 1);

        let os_config = ArrayConfig::new(4, 4)
            .with_collapse_depth(2)
            .with_dataflow(Dataflow::OutputStationary);
        let mut os = TileEngine::new(os_config).unwrap();
        assert_eq!(os.dataflow(), Dataflow::OutputStationary);
        let os_tile = os.execute_tile(&a, &b).unwrap();
        assert_eq!(os_tile.output, expected);
        assert_eq!(os_tile.stats.tiles, 1);
        assert_eq!(os_tile.stats.load_cycles, 0);
        assert_eq!(os_tile.stats.total_cycles(), os_config.os_tile_cycles(6));
    }

    #[test]
    fn engine_lifecycle_delegates_to_the_backend() {
        let config = ArrayConfig::new(4, 4).with_dataflow(Dataflow::OutputStationary);
        let mut engine = TileEngine::new(config).unwrap();
        engine.reset_for_tile();
        assert_eq!(engine.stats(), RunStats::default());
        // The From conversions wrap raw engines for pool checkin.
        let raw = SystolicArray::new(ArrayConfig::new(2, 2)).unwrap();
        assert_eq!(TileEngine::from(raw).dataflow(), Dataflow::WeightStationary);
        let raw = OutputStationaryArray::new(config).unwrap();
        assert_eq!(TileEngine::from(raw).dataflow(), Dataflow::OutputStationary);
    }
}
