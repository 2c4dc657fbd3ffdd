//! The central ArrayFlex analytical model.
//!
//! [`ArrayFlexModel`] ties the substrates together for one array size
//! (`R x C` PEs): the latency model of Equations (1)–(4), the clock-period
//! model of Equation (5) via [`ClockPlan`], and the activity-based power
//! model. Its output for one GEMM in one operating point is a
//! [`LayerExecution`] — cycles, frequency, absolute time, average power and
//! energy — which the scheduler, the comparison framework and the
//! figure-regeneration benches all build upon.

use crate::error::ArrayFlexError;
use gemm::{GemmDims, TileGrid};
use hw_model::{
    ActivityProfile, ClockPlan, Design, EnergyReport, Gigahertz, Microjoules, Microseconds,
    Milliwatts, PowerModel,
};
use sa_sim::{ArrayConfig, Dataflow};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Outcome of executing one GEMM on one design in one pipeline mode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerExecution {
    /// Which design executed the GEMM.
    pub design: Design,
    /// Pipeline collapsing depth used (always 1 for the conventional
    /// design).
    pub collapse_depth: u32,
    /// The GEMM dimensions.
    pub dims: GemmDims,
    /// Number of array-sized tiles the GEMM was decomposed into.
    pub tiles: u64,
    /// Total latency in clock cycles (`Ltotal(k)`, Equation 4).
    pub cycles: u64,
    /// Operating clock frequency of this mode.
    pub frequency: Gigahertz,
    /// Absolute execution time (`Tabs(k)`, Equation 6).
    pub time: Microseconds,
    /// Average power drawn while executing.
    pub power: Milliwatts,
    /// Energy consumed.
    pub energy: Microjoules,
}

impl LayerExecution {
    /// The (time, energy) pair as an [`EnergyReport`] for aggregation.
    #[must_use]
    pub fn energy_report(&self) -> EnergyReport {
        EnergyReport {
            time: self.time,
            energy: self.energy,
        }
    }
}

impl fmt::Display for LayerExecution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} k={} {}: {} cycles @ {} -> {} ({}, {})",
            self.design,
            self.collapse_depth,
            self.dims,
            self.cycles,
            self.frequency,
            self.time,
            self.power,
            self.energy
        )
    }
}

/// Analytical model of one systolic array instance (`R x C` PEs) in both its
/// conventional and ArrayFlex incarnations.
///
/// # Examples
///
/// ```
/// use arrayflex::ArrayFlexModel;
/// use gemm::GemmDims;
///
/// let model = ArrayFlexModel::new(128, 128)?;
/// // ResNet-34 layer 28 (Fig. 5(b)): deep collapsing pays off.
/// let dims = GemmDims::new(512, 2304, 49);
/// let shallow = model.execute_arrayflex(dims, 4)?;
/// let baseline = model.execute_conventional(dims)?;
/// assert!(shallow.time < baseline.time);
/// # Ok::<(), arrayflex::ArrayFlexError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrayFlexModel {
    rows: u32,
    cols: u32,
    dataflow: Dataflow,
    clocks: ClockPlan,
    power: PowerModel,
}

impl ArrayFlexModel {
    /// Creates a model of an `rows x cols` array with the paper's default
    /// calibration (28 nm clock plan and power model, 32-bit operands).
    ///
    /// # Errors
    ///
    /// Returns [`ArrayFlexError::InvalidConfiguration`] if either dimension
    /// is zero.
    pub fn new(rows: u32, cols: u32) -> Result<Self, ArrayFlexError> {
        if rows == 0 || cols == 0 {
            return Err(ArrayFlexError::InvalidConfiguration {
                reason: format!("array must be at least 1x1, got {rows}x{cols}"),
            });
        }
        Ok(Self {
            rows,
            cols,
            dataflow: Dataflow::WeightStationary,
            clocks: ClockPlan::date23_calibrated(),
            power: PowerModel::date23_default(),
        })
    }

    /// Replaces the dataflow the modeled array executes (weight-stationary,
    /// the paper's architecture and the default, or output-stationary). The
    /// latency model, the tiling decomposition and the backing simulator
    /// configuration all follow the choice.
    #[must_use]
    pub fn with_dataflow(mut self, dataflow: Dataflow) -> Self {
        self.dataflow = dataflow;
        self
    }

    /// Replaces the clock plan (for example with a purely analytical one for
    /// depths the paper did not synthesize).
    #[must_use]
    pub fn with_clock_plan(mut self, clocks: ClockPlan) -> Self {
        self.clocks = clocks;
        self
    }

    /// Replaces the power model.
    #[must_use]
    pub fn with_power_model(mut self, power: PowerModel) -> Self {
        self.power = power;
        self
    }

    /// Number of PE rows.
    #[must_use]
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Number of PE columns.
    #[must_use]
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// The dataflow the modeled array executes.
    #[must_use]
    pub fn dataflow(&self) -> Dataflow {
        self.dataflow
    }

    /// The clock plan in use.
    #[must_use]
    pub fn clock_plan(&self) -> &ClockPlan {
        &self.clocks
    }

    /// The power model in use.
    #[must_use]
    pub fn power_model(&self) -> &PowerModel {
        &self.power
    }

    /// The simulator configuration corresponding to collapsing depth `k`.
    #[must_use]
    pub fn array_config(&self, k: u32) -> ArrayConfig {
        ArrayConfig::new(self.rows, self.cols)
            .with_collapse_depth(k)
            .with_dataflow(self.dataflow)
    }

    /// Latency in clock cycles of one GEMM with collapsing depth `k`.
    ///
    /// Weight-stationary (the paper's architecture):
    /// `Ltotal(k) = L(k) * ceil(N/R) * ceil(M/C)` (Equations 2 and 4).
    /// Output-stationary: the per-tile cycle count streams the full `N`
    /// reduction and drains the resident accumulators, and the tile grid
    /// decomposes the *output* space, `ceil(T/R) * ceil(M/C)` tiles.
    ///
    /// # Errors
    ///
    /// Returns an error for zero GEMM dimensions or an invalid `k`.
    pub fn total_cycles(&self, dims: GemmDims, k: u32) -> Result<u64, ArrayFlexError> {
        let config = self.array_config(k);
        config.validate()?;
        let per_tile = match self.dataflow {
            Dataflow::WeightStationary => config.tile_latency(dims.t),
            Dataflow::OutputStationary => config.os_tile_cycles(dims.n),
        };
        Ok(per_tile * self.tiles(dims)?)
    }

    /// Number of array-sized tiles of one GEMM: the weight matrix grid
    /// `ceil(N/R) * ceil(M/C)` for the weight-stationary dataflow, the
    /// output grid `ceil(T/R) * ceil(M/C)` for the output-stationary one.
    ///
    /// # Errors
    ///
    /// Returns an error for zero GEMM dimensions.
    pub fn tiles(&self, dims: GemmDims) -> Result<u64, ArrayFlexError> {
        match self.dataflow {
            Dataflow::WeightStationary => {
                Ok(TileGrid::new(dims, self.rows, self.cols)?.tile_count())
            }
            Dataflow::OutputStationary => {
                dims.validate()?;
                Ok(dims.t.div_ceil(u64::from(self.rows)) * dims.m.div_ceil(u64::from(self.cols)))
            }
        }
    }

    /// Fraction of PE-cycles that perform useful MACs when executing the
    /// GEMM (spatial under-utilization of edge tiles plus pipeline
    /// fill/drain and weight-load overhead).
    ///
    /// # Errors
    ///
    /// Returns an error for zero GEMM dimensions or an invalid `k`.
    pub fn utilization(&self, dims: GemmDims, k: u32) -> Result<f64, ArrayFlexError> {
        let cycles = self.total_cycles(dims, k)?;
        let pe_cycles = cycles as f64 * f64::from(self.rows) * f64::from(self.cols);
        Ok((dims.macs() as f64 / pe_cycles).min(1.0))
    }

    fn execute(
        &self,
        design: Design,
        dims: GemmDims,
        k: u32,
        frequency: Gigahertz,
    ) -> Result<LayerExecution, ArrayFlexError> {
        dims.validate()?;
        let cycles = self.total_cycles(dims, k)?;
        let tiles = self.tiles(dims)?;
        let time = hw_model::units::cycles_to_time(cycles, frequency.period());
        let activity = ActivityProfile::with_utilization(self.utilization(dims, k)?);
        let power = self
            .power
            .array_power(design, k, self.rows, self.cols, frequency, activity)?
            .total();
        let energy = power.energy_over(time);
        Ok(LayerExecution {
            design,
            collapse_depth: k,
            dims,
            tiles,
            cycles,
            frequency,
            time,
            power,
            energy,
        })
    }

    /// Executes one GEMM on the conventional, fixed-pipeline array (normal
    /// pipeline, highest clock frequency).
    ///
    /// # Errors
    ///
    /// Returns an error for zero GEMM dimensions.
    pub fn execute_conventional(&self, dims: GemmDims) -> Result<LayerExecution, ArrayFlexError> {
        self.execute(
            Design::Conventional,
            dims,
            1,
            self.clocks.conventional_frequency(),
        )
    }

    /// Executes one GEMM on ArrayFlex with pipeline collapsing depth `k` at
    /// the corresponding clock frequency.
    ///
    /// # Errors
    ///
    /// Returns an error for zero GEMM dimensions or a depth outside the
    /// clock plan's supported range.
    pub fn execute_arrayflex(
        &self,
        dims: GemmDims,
        k: u32,
    ) -> Result<LayerExecution, ArrayFlexError> {
        let frequency = self.clocks.arrayflex_frequency(k)?;
        self.execute(Design::ArrayFlex, dims, k, frequency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ArrayFlexModel {
        ArrayFlexModel::new(128, 128).unwrap()
    }

    #[test]
    fn zero_sized_arrays_are_rejected() {
        assert!(ArrayFlexModel::new(0, 128).is_err());
        assert!(ArrayFlexModel::new(128, 0).is_err());
    }

    #[test]
    fn cycle_counts_follow_equations_2_and_4() {
        let m = model();
        // Layer 28 of ResNet-34: (M, N, T) = (512, 2304, 49).
        let dims = GemmDims::new(512, 2304, 49);
        // Normal mode: L(1) = 2*128 + 128 + 49 - 2 = 431 cycles per tile,
        // tiles = ceil(2304/128) * ceil(512/128) = 18 * 4 = 72.
        assert_eq!(m.total_cycles(dims, 1).unwrap(), 431 * 72);
        // k = 4: L(4) = 128 + 32 + 32 + 49 - 2 = 239 cycles per tile.
        assert_eq!(m.total_cycles(dims, 4).unwrap(), 239 * 72);
        assert_eq!(m.tiles(dims).unwrap(), 72);
    }

    #[test]
    fn output_stationary_cycles_follow_the_os_tile_model() {
        use sa_sim::Dataflow;
        let m = model().with_dataflow(Dataflow::OutputStationary);
        assert_eq!(m.dataflow(), Dataflow::OutputStationary);
        assert_eq!(
            m.array_config(4).dataflow,
            Dataflow::OutputStationary,
            "the simulator configuration must follow the model's dataflow"
        );
        // Layer 28 of ResNet-34: (M, N, T) = (512, 2304, 49). The output
        // grid is ceil(49/128) * ceil(512/128) = 1 * 4 tiles, each
        // streaming the full N = 2304 reduction:
        // k = 1: N + RB + CB + R - 2 = 2304 + 128 + 128 + 128 - 2 = 2686.
        let dims = GemmDims::new(512, 2304, 49);
        assert_eq!(m.tiles(dims).unwrap(), 4);
        assert_eq!(m.total_cycles(dims, 1).unwrap(), 2686 * 4);
        // k = 4: N + 32 + 32 + 128 - 2 = 2494 cycles per tile.
        assert_eq!(m.total_cycles(dims, 4).unwrap(), 2494 * 4);
        // The weight-stationary default is untouched by the builder.
        assert_eq!(model().total_cycles(dims, 1).unwrap(), 431 * 72);
        for k in [1, 2, 4] {
            let u = m.utilization(dims, k).unwrap();
            assert!((0.0..=1.0).contains(&u), "OS utilization {u} for k={k}");
        }
        assert!(m.tiles(GemmDims::new(0, 1, 1)).is_err());
    }

    #[test]
    fn collapsing_reduces_cycles_but_not_below_streaming_bound() {
        let m = model();
        let dims = GemmDims::new(256, 2304, 196);
        let c1 = m.total_cycles(dims, 1).unwrap();
        let c2 = m.total_cycles(dims, 2).unwrap();
        let c4 = m.total_cycles(dims, 4).unwrap();
        assert!(c2 < c1);
        assert!(c4 < c2);
        // The streamed T rows and the weight loads are incompressible.
        let tiles = m.tiles(dims).unwrap();
        assert!(c4 >= (dims.t + u64::from(m.rows()) - 1) * tiles);
    }

    #[test]
    fn conventional_runs_faster_per_cycle_but_needs_more_cycles_than_k4() {
        let m = model();
        let dims = GemmDims::new(512, 2304, 49);
        let conv = m.execute_conventional(dims).unwrap();
        let af4 = m.execute_arrayflex(dims, 4).unwrap();
        assert!(conv.frequency > af4.frequency);
        assert!(conv.cycles > af4.cycles);
        // For this small-T layer the cycle savings win (Fig. 5(b)).
        assert!(af4.time < conv.time);
    }

    #[test]
    fn large_t_layers_prefer_the_conventional_array() {
        let m = model();
        // First layers of a CNN: very large T relative to the array.
        let dims = GemmDims::new(64, 147, 12_544);
        let conv = m.execute_conventional(dims).unwrap();
        let af1 = m.execute_arrayflex(dims, 1).unwrap();
        let af4 = m.execute_arrayflex(dims, 4).unwrap();
        // Same cycle count in normal mode, so the conventional array's
        // higher frequency wins (Section IV-A, layers 1-11 of ConvNeXt).
        assert_eq!(conv.cycles, af1.cycles);
        assert!(conv.time < af1.time);
        // Deep collapsing barely reduces cycles here but costs a lot of
        // frequency, so it is slower than normal mode.
        assert!(af4.time > af1.time);
    }

    #[test]
    fn energy_is_power_times_time() {
        let m = model();
        let dims = GemmDims::new(512, 2304, 49);
        let exec = m.execute_arrayflex(dims, 2).unwrap();
        let expected = exec.power.energy_over(exec.time);
        assert!((exec.energy.value() - expected.value()).abs() < 1e-9);
        let report = exec.energy_report();
        assert_eq!(report.time, exec.time);
        assert_eq!(report.energy, exec.energy);
    }

    #[test]
    fn utilization_is_between_zero_and_one() {
        let m = model();
        for dims in [
            GemmDims::new(512, 2304, 49),
            GemmDims::new(1000, 512, 1),
            GemmDims::new(64, 147, 12_544),
        ] {
            for k in [1, 2, 4] {
                let u = m.utilization(dims, k).unwrap();
                assert!((0.0..=1.0).contains(&u), "utilization {u} for {dims} k={k}");
            }
        }
    }

    #[test]
    fn invalid_requests_are_rejected() {
        let m = model();
        let dims = GemmDims::new(512, 2304, 49);
        assert!(m.execute_arrayflex(dims, 0).is_err());
        assert!(m.execute_arrayflex(dims, 9).is_err());
        assert!(m.execute_conventional(GemmDims::new(0, 1, 1)).is_err());
        assert!(m.total_cycles(GemmDims::new(1, 0, 1), 1).is_err());
    }

    #[test]
    fn display_mentions_the_design_and_mode() {
        let m = model();
        let exec = m
            .execute_arrayflex(GemmDims::new(512, 2304, 49), 4)
            .unwrap();
        let text = exec.to_string();
        assert!(text.contains("arrayflex"));
        assert!(text.contains("k=4"));
    }
}
