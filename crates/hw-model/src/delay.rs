//! Gate-level delay estimates for the processing-element datapath.
//!
//! The paper's clock-period model (Equation 5) is
//!
//! ```text
//! Tclock(k) = dFF + dmul + dadd + k * (dCSA + 2 * dmux)
//! ```
//!
//! where `dmul` is the delay of the input multiplier, `dadd` the delay of the
//! final carry-propagate adder, `dCSA` the delay of one 3:2 carry-save stage,
//! `dmux` the delay of one bypass multiplexer and `dFF` the flip-flop
//! clocking overhead. [`DatapathDelays`] estimates each term from the
//! technology's fanout-of-4 delay and the datapath bit widths, and exposes
//! both the ArrayFlex period for any collapsing depth `k` and the period of
//! the conventional, non-configurable PE (which has no carry-save stage or
//! bypass multiplexers in its critical path and therefore runs faster).

use crate::error::HwModelError;
use crate::tech::TechnologyParams;
use crate::units::{Gigahertz, Picoseconds};
use serde::{Deserialize, Serialize};

/// Default bit width of inputs and weights used throughout the paper's
/// evaluation (32-bit quantized operands).
pub const DEFAULT_INPUT_BITS: u32 = 32;

/// Logic-depth coefficient of the multiplier delay estimate, in FO4 units per
/// `log2(width)`. A Wallace/Dadda-style tree multiplier has a depth that
/// grows logarithmically with the operand width; the coefficient is
/// calibrated so a 32x32 multiplier closes at ~330 ps in the 28 nm model.
const MUL_FO4_PER_LOG2: f64 = 4.0;
/// Constant logic depth of the multiplier (partial-product generation and
/// final stage), in FO4 units.
const MUL_FO4_CONSTANT: f64 = 2.0;
/// Logic-depth coefficient of the parallel-prefix carry-propagate adder, in
/// FO4 units per `log2(width)`; calibrated to ~120 ps for a 64-bit adder.
const ADD_FO4_PER_LOG2: f64 = 4.0 / 3.0;
/// Logic depth of one 3:2 carry-save stage (a single full-adder level), in
/// FO4 units.
const CSA_FO4: f64 = 2.0;
/// Logic depth of one 2:1 bypass multiplexer, in FO4 units.
const MUX_FO4: f64 = 0.8;

/// Per-component combinational delays of one processing element.
///
/// # Examples
///
/// ```
/// use hw_model::delay::DatapathDelays;
/// use hw_model::tech::TechnologyParams;
///
/// let delays = DatapathDelays::for_technology(&TechnologyParams::cmos_28nm(), 32)?;
/// // The conventional fixed-pipeline PE reaches 2 GHz ...
/// assert!((delays.conventional_frequency().value() - 2.0).abs() < 0.05);
/// // ... and ArrayFlex in normal mode (k = 1) runs slightly slower.
/// assert!(delays.arrayflex_frequency(1)? < delays.conventional_frequency());
/// # Ok::<(), hw_model::HwModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DatapathDelays {
    /// Flip-flop clocking overhead (`dFF`): clock-to-Q plus setup.
    pub d_ff: Picoseconds,
    /// Delay of the input multiplier (`dmul`).
    pub d_mul: Picoseconds,
    /// Delay of the final carry-propagate adder (`dadd`).
    pub d_add: Picoseconds,
    /// Delay of one 3:2 carry-save adder stage (`dCSA`).
    pub d_csa: Picoseconds,
    /// Delay of one bypass multiplexer (`dmux`).
    pub d_mux: Picoseconds,
    /// Width of inputs and weights in bits.
    pub input_bits: u32,
    /// Width of the column accumulation datapath in bits (twice the input
    /// width, to hold the full product).
    pub accumulator_bits: u32,
}

impl DatapathDelays {
    /// Estimates the datapath delays for the given technology and input bit
    /// width. The accumulation datapath is twice as wide as the inputs, as
    /// in the paper (32-bit operands, 64-bit column additions).
    ///
    /// # Errors
    ///
    /// Returns [`HwModelError::ZeroBitWidth`] if `input_bits` is zero.
    pub fn for_technology(tech: &TechnologyParams, input_bits: u32) -> Result<Self, HwModelError> {
        if input_bits == 0 {
            return Err(HwModelError::ZeroBitWidth);
        }
        let accumulator_bits = input_bits * 2;
        let fo4 = tech.fo4_delay;
        let mul_depth = MUL_FO4_PER_LOG2 * f64::from(input_bits).log2() + MUL_FO4_CONSTANT;
        let add_depth = ADD_FO4_PER_LOG2 * f64::from(accumulator_bits).log2();
        Ok(Self {
            d_ff: tech.ff_overhead(),
            d_mul: fo4 * mul_depth,
            d_add: fo4 * add_depth,
            d_csa: fo4 * CSA_FO4,
            d_mux: fo4 * MUX_FO4,
            input_bits,
            accumulator_bits,
        })
    }

    /// Convenience constructor for the default 28 nm technology and 32-bit
    /// operands used by the paper's evaluation.
    #[must_use]
    pub fn date23_default() -> Self {
        Self::for_technology(&TechnologyParams::cmos_28nm(), DEFAULT_INPUT_BITS)
            .expect("default bit width is non-zero")
    }

    /// Clock period of the conventional, non-configurable PE.
    ///
    /// The conventional PE has no carry-save stage and no bypass multiplexers
    /// in its multiply-add path, so its critical path is
    /// `dFF + dmul + dadd`.
    #[must_use]
    pub fn conventional_period(&self) -> Picoseconds {
        self.d_ff + self.d_mul + self.d_add
    }

    /// Clock frequency of the conventional, non-configurable PE.
    #[must_use]
    pub fn conventional_frequency(&self) -> Gigahertz {
        self.conventional_period().frequency()
    }

    /// Clock period of the ArrayFlex PE for pipeline collapsing depth `k`
    /// (Equation 5 of the paper).
    ///
    /// For `k = 1` (normal pipeline mode) the carry-save adder and the two
    /// bypass multiplexers still sit in series between the multiplier and the
    /// carry-propagate adder, which is exactly the configurability overhead
    /// the paper discusses.
    ///
    /// # Errors
    ///
    /// Returns [`HwModelError::ZeroCollapseDepth`] if `k` is zero.
    pub fn arrayflex_period(&self, k: u32) -> Result<Picoseconds, HwModelError> {
        if k == 0 {
            return Err(HwModelError::ZeroCollapseDepth);
        }
        let per_stage = self.d_csa + self.d_mux * 2.0;
        Ok(self.d_ff + self.d_mul + self.d_add + per_stage * f64::from(k))
    }

    /// Clock frequency of the ArrayFlex PE for pipeline collapsing depth `k`.
    ///
    /// # Errors
    ///
    /// Returns [`HwModelError::ZeroCollapseDepth`] if `k` is zero.
    pub fn arrayflex_frequency(&self, k: u32) -> Result<Gigahertz, HwModelError> {
        Ok(self.arrayflex_period(k)?.frequency())
    }

    /// The delay added to the clock period by each additional collapsed
    /// pipeline stage: one 3:2 carry-save stage plus two bypass multiplexers.
    #[must_use]
    pub fn per_stage_overhead(&self) -> Picoseconds {
        self.d_csa + self.d_mux * 2.0
    }

    /// The fixed part of the ArrayFlex clock period that does not depend on
    /// `k`: `dFF + dmul + dadd`.
    #[must_use]
    pub fn fixed_path(&self) -> Picoseconds {
        self.d_ff + self.d_mul + self.d_add
    }

    /// Ratio between the continuous-k "collapsibility" delay terms used by
    /// the closed-form optimum of Equation (7):
    /// `(dFF + dmul + dadd) / (dCSA + 2 dmux)`.
    #[must_use]
    pub fn delay_ratio(&self) -> f64 {
        self.fixed_path() / self.per_stage_overhead()
    }
}

impl Default for DatapathDelays {
    fn default() -> Self {
        Self::date23_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delays() -> DatapathDelays {
        DatapathDelays::date23_default()
    }

    #[test]
    fn conventional_pe_reaches_about_2_ghz() {
        let f = delays().conventional_frequency().value();
        assert!((f - 2.0).abs() < 0.05, "conventional frequency {f} GHz");
    }

    #[test]
    fn arrayflex_normal_mode_is_about_1_8_ghz() {
        let f = delays().arrayflex_frequency(1).unwrap().value();
        assert!((1.75..=1.85).contains(&f), "k=1 frequency {f} GHz");
    }

    #[test]
    fn arrayflex_k4_is_about_1_4_ghz() {
        let f = delays().arrayflex_frequency(4).unwrap().value();
        assert!((1.35..=1.45).contains(&f), "k=4 frequency {f} GHz");
    }

    #[test]
    fn period_is_monotonically_increasing_in_k() {
        let d = delays();
        let mut prev = d.arrayflex_period(1).unwrap();
        for k in 2..=8 {
            let next = d.arrayflex_period(k).unwrap();
            assert!(next > prev, "period must grow with k");
            prev = next;
        }
    }

    #[test]
    fn period_growth_is_linear_in_k() {
        let d = delays();
        let p1 = d.arrayflex_period(1).unwrap();
        let p2 = d.arrayflex_period(2).unwrap();
        let p5 = d.arrayflex_period(5).unwrap();
        let step = p2 - p1;
        assert!((p5.value() - (p1.value() + 4.0 * step.value())).abs() < 1e-9);
        assert!((step.value() - d.per_stage_overhead().value()).abs() < 1e-9);
    }

    #[test]
    fn conventional_is_faster_than_any_arrayflex_mode() {
        let d = delays();
        for k in 1..=8 {
            assert!(d.conventional_period() < d.arrayflex_period(k).unwrap());
        }
    }

    #[test]
    fn zero_k_is_rejected() {
        assert_eq!(
            delays().arrayflex_period(0),
            Err(HwModelError::ZeroCollapseDepth)
        );
        assert_eq!(
            delays().arrayflex_frequency(0).unwrap_err(),
            HwModelError::ZeroCollapseDepth
        );
    }

    #[test]
    fn zero_bit_width_is_rejected() {
        assert_eq!(
            DatapathDelays::for_technology(&TechnologyParams::cmos_28nm(), 0),
            Err(HwModelError::ZeroBitWidth)
        );
    }

    #[test]
    fn wider_datapaths_are_slower() {
        let tech = TechnologyParams::cmos_28nm();
        let d16 = DatapathDelays::for_technology(&tech, 16).unwrap();
        let d32 = DatapathDelays::for_technology(&tech, 32).unwrap();
        let d64 = DatapathDelays::for_technology(&tech, 64).unwrap();
        assert!(d16.conventional_period() < d32.conventional_period());
        assert!(d32.conventional_period() < d64.conventional_period());
        assert_eq!(d32.accumulator_bits, 64);
    }

    #[test]
    fn delay_ratio_matches_components() {
        let d = delays();
        let expected = (d.d_ff + d.d_mul + d.d_add).value() / (d.d_csa + d.d_mux * 2.0).value();
        assert!((d.delay_ratio() - expected).abs() < 1e-12);
    }
}
