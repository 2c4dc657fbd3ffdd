//! Activity-based power model of the two systolic-array designs.
//!
//! The paper measures average power with the Cadence implementation flow
//! while executing complete CNN inference runs (Fig. 9). This reproduction
//! models the same effects analytically:
//!
//! * **Dynamic power** is per-cycle switched energy of each PE times the
//!   operating frequency. The per-cycle energy depends on the design and on
//!   the selected pipeline mode: in shallow mode only one in `k` rows drives
//!   its carry-propagate adder, and the bypassed (transparent) pipeline
//!   registers are clock-gated, so the register clocking energy drops by
//!   roughly `(k-1)/k`.
//! * **Leakage power** is proportional to the placed area, so ArrayFlex pays
//!   its ~16 % area overhead here as well.
//!
//! The conventional design always runs in normal pipeline mode at its higher
//! clock frequency; ArrayFlex in normal mode (`k = 1`) consumes *more* power
//! than the conventional array (extra switched capacitance of the carry-save
//! adder and bypass multiplexers), while shallow modes consume less, exactly
//! the qualitative behaviour described in Section IV-B of the paper.

use crate::area::AreaModel;
use crate::design::Design;
use crate::error::HwModelError;
use crate::tech::TechnologyParams;
use crate::units::{Femtojoules, Gigahertz, Milliwatts};
use serde::{Deserialize, Serialize};

/// Switching-activity description of a workload phase.
///
/// The defaults correspond to a dense GEMM executing at high utilization
/// with typical data toggle rates, which is the situation in the paper's
/// evaluation (dense CNN layers, single-batch inference).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActivityProfile {
    /// Fraction of cycles in which a PE performs a useful multiply-accumulate
    /// (drives the multiplier and the reduction path). Between 0 and 1.
    pub mac_utilization: f64,
    /// Average fraction of datapath bits toggling per active cycle.
    /// Between 0 and 1.
    pub data_toggle_rate: f64,
}

impl ActivityProfile {
    /// Activity profile of a dense, fully-utilized GEMM.
    #[must_use]
    pub fn dense_gemm() -> Self {
        Self {
            mac_utilization: 0.95,
            data_toggle_rate: 0.5,
        }
    }

    /// Activity profile with explicit utilization, keeping the default
    /// toggle rate.
    #[must_use]
    pub fn with_utilization(mac_utilization: f64) -> Self {
        Self {
            mac_utilization: mac_utilization.clamp(0.0, 1.0),
            data_toggle_rate: 0.5,
        }
    }

    /// Validates that the profile's rates are within `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`HwModelError::NonPositiveParameter`] if a rate is negative,
    /// NaN or greater than one.
    pub fn validate(&self) -> Result<(), HwModelError> {
        if !(0.0..=1.0).contains(&self.mac_utilization) {
            return Err(HwModelError::NonPositiveParameter {
                name: "mac_utilization",
            });
        }
        if !(0.0..=1.0).contains(&self.data_toggle_rate) {
            return Err(HwModelError::NonPositiveParameter {
                name: "data_toggle_rate",
            });
        }
        Ok(())
    }
}

impl Default for ActivityProfile {
    fn default() -> Self {
        Self::dense_gemm()
    }
}

/// Per-event switched energies of the PE components, derived from the
/// technology parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PeEnergyParams {
    /// Energy of one multiplication.
    pub multiplier: Femtojoules,
    /// Energy of one carry-propagate addition on the accumulation path.
    pub carry_propagate_adder: Femtojoules,
    /// Energy of one 3:2 carry-save addition (sum and carry vectors).
    pub carry_save_adder: Femtojoules,
    /// Energy of the bypass multiplexers switching once.
    pub bypass_muxes: Femtojoules,
    /// Clocking energy of the vertical (sum/carry) pipeline registers per
    /// non-gated cycle.
    pub sum_register_clock: Femtojoules,
    /// Data-toggle energy of the vertical pipeline registers at 100 % toggle
    /// rate.
    pub sum_register_data: Femtojoules,
    /// Clocking energy of the horizontal operand register per non-gated
    /// cycle.
    pub input_register_clock: Femtojoules,
    /// Data-toggle energy of the horizontal operand register at 100 % toggle
    /// rate.
    pub input_register_data: Femtojoules,
    /// Clocking energy of the weight-stationary register (its data does not
    /// toggle during computation).
    pub weight_register_clock: Femtojoules,
    /// Extra clock-tree and configuration-logic energy per cycle in the
    /// ArrayFlex PE (configuration bits, clock-gating cells, heavier clock
    /// net due to the larger PE).
    pub configurability_overhead: Femtojoules,
    /// Fraction of the register clocking energy that is still dissipated
    /// when a register is clock-gated (gating-cell and local clock-net
    /// residual). Between 0 and 1.
    pub clock_gate_residual: f64,
}

impl PeEnergyParams {
    /// Fraction of `width^2` full-adder-equivalent switching events per
    /// multiplication; mirrors the area model's multiplier estimate but with
    /// a lower factor because not every cell toggles every cycle.
    const MULTIPLIER_FA_EQUIVALENTS: f64 = 0.5;

    /// Derives the per-event energies from a technology description and the
    /// input bit width.
    ///
    /// # Errors
    ///
    /// Returns [`HwModelError::ZeroBitWidth`] if `input_bits` is zero.
    pub fn for_technology(tech: &TechnologyParams, input_bits: u32) -> Result<Self, HwModelError> {
        if input_bits == 0 {
            return Err(HwModelError::ZeroBitWidth);
        }
        let in_bits = f64::from(input_bits);
        let acc_bits = in_bits * 2.0;
        let fa = tech.full_adder_energy;
        Ok(Self {
            multiplier: fa * (Self::MULTIPLIER_FA_EQUIVALENTS * in_bits * in_bits),
            carry_propagate_adder: fa * acc_bits,
            // A single 3:2 full-adder level has no carry-propagation
            // glitching, so it switches roughly half the energy of the
            // carry-propagate adder of the same width.
            carry_save_adder: fa * (0.5 * acc_bits),
            bypass_muxes: tech.mux_bit_energy * (in_bits + 2.0 * acc_bits),
            sum_register_clock: tech.ff_clock_energy * acc_bits,
            sum_register_data: tech.ff_data_energy * acc_bits,
            input_register_clock: tech.ff_clock_energy * in_bits,
            input_register_data: tech.ff_data_energy * in_bits,
            weight_register_clock: tech.ff_clock_energy * in_bits,
            // Configuration bits, clock-gating cells and the heavier clock
            // net of the ~16% larger ArrayFlex PE.
            configurability_overhead: tech.ff_clock_energy * (0.5 * acc_bits),
            clock_gate_residual: 0.2,
        })
    }
}

/// Dynamic/leakage power split of a whole array in one operating point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerBreakdown {
    /// Switching (dynamic) power of the PE array.
    pub dynamic: Milliwatts,
    /// Leakage power of the PE array.
    pub leakage: Milliwatts,
}

impl PowerBreakdown {
    /// Total power.
    #[must_use]
    pub fn total(&self) -> Milliwatts {
        self.dynamic + self.leakage
    }
}

/// Activity-based power model for both designs.
///
/// # Examples
///
/// ```
/// use hw_model::power::{ActivityProfile, PowerModel};
/// use hw_model::units::Gigahertz;
/// use hw_model::Design;
///
/// let model = PowerModel::date23_default();
/// let activity = ActivityProfile::dense_gemm();
/// let conventional = model.array_power(
///     Design::Conventional, 1, 128, 128, Gigahertz::new(2.0), activity)?;
/// let shallow = model.array_power(
///     Design::ArrayFlex, 4, 128, 128, Gigahertz::new(1.4), activity)?;
/// // Deep pipeline collapsing at a lower clock saves power.
/// assert!(shallow.total() < conventional.total());
/// # Ok::<(), hw_model::HwModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    params: PeEnergyParams,
    area: AreaModel,
    leakage_density_mw_per_um2: f64,
}

impl PowerModel {
    /// Creates a power model for the given technology and input bit width.
    ///
    /// # Errors
    ///
    /// Returns [`HwModelError::ZeroBitWidth`] if `input_bits` is zero, or a
    /// technology validation error.
    pub fn new(tech: TechnologyParams, input_bits: u32) -> Result<Self, HwModelError> {
        let params = PeEnergyParams::for_technology(&tech, input_bits)?;
        let leakage_density_mw_per_um2 = tech.leakage_density_mw_per_um2;
        let area = AreaModel::new(tech, input_bits)?;
        Ok(Self {
            params,
            area,
            leakage_density_mw_per_um2,
        })
    }

    /// Power model matching the paper's evaluation: 28 nm technology and
    /// 32-bit operands.
    #[must_use]
    pub fn date23_default() -> Self {
        Self::new(TechnologyParams::cmos_28nm(), 32).expect("default parameters are valid")
    }

    /// The per-event energy parameters in use.
    #[must_use]
    pub fn energy_params(&self) -> &PeEnergyParams {
        &self.params
    }

    /// Returns a copy of this model with a different clock-gating residual:
    /// the fraction of register clocking energy still dissipated when a
    /// register is transparent. Setting it to `1.0` disables the benefit of
    /// clock gating entirely, which is the knob behind the clock-gating
    /// ablation bench.
    #[must_use]
    pub fn with_clock_gate_residual(mut self, residual: f64) -> Self {
        self.params.clock_gate_residual = residual.clamp(0.0, 1.0);
        self
    }

    /// The area model used for leakage estimation.
    #[must_use]
    pub fn area_model(&self) -> &AreaModel {
        &self.area
    }

    /// Average switched energy of one PE during one clock cycle, for the
    /// given design, pipeline collapsing depth and activity profile.
    ///
    /// For the conventional design `k` must be 1 (it has a fixed pipeline).
    ///
    /// # Errors
    ///
    /// Returns [`HwModelError::ZeroCollapseDepth`] if `k` is zero, or an
    /// activity validation error.
    pub fn pe_energy_per_cycle(
        &self,
        design: Design,
        k: u32,
        activity: ActivityProfile,
    ) -> Result<Femtojoules, HwModelError> {
        if k == 0 {
            return Err(HwModelError::ZeroCollapseDepth);
        }
        activity.validate()?;
        let p = &self.params;
        let u = activity.mac_utilization;
        let toggle = activity.data_toggle_rate;
        let kf = f64::from(k);

        // Fraction of pipeline registers that remain clocked in this mode:
        // in shallow mode only one register per collapsed block is clocked,
        // the other (k-1)/k are transparent and clock-gated.
        let clocked_fraction = 1.0 / kf;
        let gated_fraction = 1.0 - clocked_fraction;
        let residual = p.clock_gate_residual;

        let mut energy = Femtojoules::zero();
        // Multiplier switches on every useful MAC in both designs.
        energy += p.multiplier * u;
        match design {
            Design::Conventional => {
                // Fixed pipeline: every PE drives its carry-propagate adder
                // and clocks all of its registers every cycle.
                energy += p.carry_propagate_adder * u;
                energy += p.sum_register_clock + p.sum_register_data * (toggle * u);
                energy += p.input_register_clock + p.input_register_data * (toggle * u);
                energy += p.weight_register_clock;
            }
            Design::ArrayFlex => {
                // The carry-save stage and the bypass multiplexers are in the
                // active path in every mode (including k = 1).
                energy += p.carry_save_adder * u;
                energy += p.bypass_muxes * u;
                // Only the last row of each collapsed block finalizes the sum
                // with its carry-propagate adder.
                energy += p.carry_propagate_adder * (u / kf);
                // Clocked registers pay full clock+data energy, transparent
                // registers only the gating residual (their data is pass-through
                // combinational and does not consume register energy).
                let reg_clock_scale = clocked_fraction + gated_fraction * residual;
                energy += p.sum_register_clock * reg_clock_scale
                    + p.sum_register_data * (toggle * u * clocked_fraction);
                energy += p.input_register_clock * reg_clock_scale
                    + p.input_register_data * (toggle * u * clocked_fraction);
                energy += p.weight_register_clock;
                energy += p.configurability_overhead;
            }
        }
        Ok(energy)
    }

    /// Dynamic power of an `rows x cols` array at the given frequency.
    ///
    /// # Errors
    ///
    /// Returns [`HwModelError::ZeroArrayDimension`] for an empty array, plus
    /// the conditions of [`PowerModel::pe_energy_per_cycle`].
    pub fn array_dynamic_power(
        &self,
        design: Design,
        k: u32,
        rows: u32,
        cols: u32,
        frequency: Gigahertz,
        activity: ActivityProfile,
    ) -> Result<Milliwatts, HwModelError> {
        if rows == 0 || cols == 0 {
            return Err(HwModelError::ZeroArrayDimension);
        }
        let per_pe = self.pe_energy_per_cycle(design, k, activity)?;
        // fJ * GHz = uW; divide by 1000 for mW.
        let pes = f64::from(rows) * f64::from(cols);
        Ok(Milliwatts::new(
            per_pe.value() * frequency.value() * pes / 1_000.0,
        ))
    }

    /// Leakage power of an `rows x cols` array of the given design.
    ///
    /// # Errors
    ///
    /// Returns [`HwModelError::ZeroArrayDimension`] for an empty array.
    pub fn array_leakage_power(
        &self,
        design: Design,
        rows: u32,
        cols: u32,
    ) -> Result<Milliwatts, HwModelError> {
        let area = self.area.array_area(design, rows, cols)?;
        Ok(Milliwatts::new(
            area.value() * self.leakage_density_mw_per_um2,
        ))
    }

    /// Total (dynamic plus leakage) power of an array in one operating point.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PowerModel::array_dynamic_power`].
    pub fn array_power(
        &self,
        design: Design,
        k: u32,
        rows: u32,
        cols: u32,
        frequency: Gigahertz,
        activity: ActivityProfile,
    ) -> Result<PowerBreakdown, HwModelError> {
        Ok(PowerBreakdown {
            dynamic: self.array_dynamic_power(design, k, rows, cols, frequency, activity)?,
            leakage: self.array_leakage_power(design, rows, cols)?,
        })
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        Self::date23_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PowerModel {
        PowerModel::date23_default()
    }

    fn dense() -> ActivityProfile {
        ActivityProfile::dense_gemm()
    }

    #[test]
    fn arrayflex_normal_mode_energy_exceeds_conventional() {
        let m = model();
        let conv = m
            .pe_energy_per_cycle(Design::Conventional, 1, dense())
            .unwrap();
        let af = m
            .pe_energy_per_cycle(Design::ArrayFlex, 1, dense())
            .unwrap();
        assert!(
            af > conv,
            "ArrayFlex k=1 per-cycle energy ({af}) must exceed conventional ({conv})"
        );
    }

    #[test]
    fn arrayflex_normal_mode_power_exceeds_conventional_power() {
        // Section IV-B: "in normal pipeline mode, ArrayFlex still consumes
        // more power than a conventional SA", even at its lower frequency.
        let m = model();
        let conv = m
            .array_power(
                Design::Conventional,
                1,
                128,
                128,
                Gigahertz::new(2.0),
                dense(),
            )
            .unwrap();
        let af = m
            .array_power(Design::ArrayFlex, 1, 128, 128, Gigahertz::new(1.8), dense())
            .unwrap();
        assert!(af.total() > conv.total());
    }

    #[test]
    fn shallow_modes_save_power() {
        let m = model();
        let conv = m
            .array_power(
                Design::Conventional,
                1,
                128,
                128,
                Gigahertz::new(2.0),
                dense(),
            )
            .unwrap()
            .total();
        let k2 = m
            .array_power(Design::ArrayFlex, 2, 128, 128, Gigahertz::new(1.7), dense())
            .unwrap()
            .total();
        let k4 = m
            .array_power(Design::ArrayFlex, 4, 128, 128, Gigahertz::new(1.4), dense())
            .unwrap()
            .total();
        assert!(
            k2 < conv,
            "k=2 power {k2} should be below conventional {conv}"
        );
        assert!(k4 < k2, "k=4 power {k4} should be below k=2 power {k2}");
        // The k=4 saving should be substantial (paper: shallow modes drive
        // overall savings of 13%-23%).
        let saving = 1.0 - k4.value() / conv.value();
        assert!(saving > 0.15, "k=4 saving {saving} too small");
    }

    #[test]
    fn energy_decreases_with_deeper_collapsing_at_fixed_activity() {
        let m = model();
        let e1 = m
            .pe_energy_per_cycle(Design::ArrayFlex, 1, dense())
            .unwrap();
        let e2 = m
            .pe_energy_per_cycle(Design::ArrayFlex, 2, dense())
            .unwrap();
        let e4 = m
            .pe_energy_per_cycle(Design::ArrayFlex, 4, dense())
            .unwrap();
        assert!(e2 < e1);
        assert!(e4 < e2);
    }

    #[test]
    fn leakage_scales_with_area_overhead() {
        let m = model();
        let conv = m.array_leakage_power(Design::Conventional, 64, 64).unwrap();
        let af = m.array_leakage_power(Design::ArrayFlex, 64, 64).unwrap();
        let ratio = af.value() / conv.value();
        let overhead = 1.0 + m.area_model().overhead_fraction();
        assert!((ratio - overhead).abs() < 1e-9);
    }

    #[test]
    fn dynamic_power_scales_linearly_with_frequency_and_pes() {
        let m = model();
        let base = m
            .array_dynamic_power(
                Design::Conventional,
                1,
                64,
                64,
                Gigahertz::new(1.0),
                dense(),
            )
            .unwrap();
        let double_freq = m
            .array_dynamic_power(
                Design::Conventional,
                1,
                64,
                64,
                Gigahertz::new(2.0),
                dense(),
            )
            .unwrap();
        let double_pes = m
            .array_dynamic_power(
                Design::Conventional,
                1,
                128,
                64,
                Gigahertz::new(1.0),
                dense(),
            )
            .unwrap();
        assert!((double_freq.value() / base.value() - 2.0).abs() < 1e-9);
        assert!((double_pes.value() / base.value() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let m = model();
        assert!(m
            .pe_energy_per_cycle(Design::ArrayFlex, 0, dense())
            .is_err());
        assert!(m
            .array_dynamic_power(Design::ArrayFlex, 1, 0, 8, Gigahertz::new(1.0), dense())
            .is_err());
        let bad = ActivityProfile {
            mac_utilization: 1.5,
            data_toggle_rate: 0.5,
        };
        assert!(m.pe_energy_per_cycle(Design::ArrayFlex, 1, bad).is_err());
        let bad_toggle = ActivityProfile {
            mac_utilization: 0.5,
            data_toggle_rate: -0.1,
        };
        assert!(m
            .pe_energy_per_cycle(Design::ArrayFlex, 1, bad_toggle)
            .is_err());
    }

    #[test]
    fn utilization_clamps_and_lowers_energy() {
        let m = model();
        let busy = m
            .pe_energy_per_cycle(
                Design::Conventional,
                1,
                ActivityProfile::with_utilization(1.0),
            )
            .unwrap();
        let idle = m
            .pe_energy_per_cycle(
                Design::Conventional,
                1,
                ActivityProfile::with_utilization(0.0),
            )
            .unwrap();
        assert!(idle < busy);
        // Idle PEs still pay register clocking power.
        assert!(idle.value() > 0.0);
        let clamped = ActivityProfile::with_utilization(7.0);
        assert!((clamped.mac_utilization - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disabling_clock_gating_removes_the_shallow_mode_register_savings() {
        let gated = model();
        let ungated = model().with_clock_gate_residual(1.0);
        let k4_gated = gated
            .pe_energy_per_cycle(Design::ArrayFlex, 4, dense())
            .unwrap();
        let k4_ungated = ungated
            .pe_energy_per_cycle(Design::ArrayFlex, 4, dense())
            .unwrap();
        assert!(k4_ungated > k4_gated);
        // In normal mode nothing is gated, so the residual does not matter.
        let k1_gated = gated
            .pe_energy_per_cycle(Design::ArrayFlex, 1, dense())
            .unwrap();
        let k1_ungated = ungated
            .pe_energy_per_cycle(Design::ArrayFlex, 1, dense())
            .unwrap();
        assert!((k1_gated.value() - k1_ungated.value()).abs() < 1e-9);
        // The residual is clamped into [0, 1].
        let clamped = model().with_clock_gate_residual(7.0);
        assert!((clamped.energy_params().clock_gate_residual - 1.0).abs() < 1e-12);
    }

    #[test]
    fn power_breakdown_total_is_sum() {
        let b = PowerBreakdown {
            dynamic: Milliwatts::new(10.0),
            leakage: Milliwatts::new(2.0),
        };
        assert_eq!(b.total(), Milliwatts::new(12.0));
    }
}
