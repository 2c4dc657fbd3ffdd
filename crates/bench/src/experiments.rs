//! The experiments behind every table and figure of the paper's evaluation.
//!
//! Each function builds the data for one figure (or text-table) of the DATE
//! 2023 paper and returns it as a plain struct that can be printed as an
//! aligned text table or serialized to JSON. The figure-regeneration
//! binaries in `src/bin/` are thin wrappers around these functions, and the
//! Criterion benches time them, so `cargo bench --workspace` exercises every
//! experiment's code path.

use crate::tables::TextTable;
use arrayflex::{compare_network, ArrayFlexError, ArrayFlexModel, EvaluationSweep};
use cnn::models::{convnext_tiny, paper_evaluation_networks, resnet34};
use cnn::DepthwiseMapping;
use gemm::{DimBounds, GemmDims, Matrix, WorkloadGenerator};
use hw_model::{AreaModel, ClockPlan, DatapathDelays, Design};
use sa_sim::{ArrayConfig, Simulator, SystolicArray};
use serde::Serialize;

/// The array size used by Fig. 5 of the paper (divisible by k = 1..4).
pub const FIG5_ARRAY: u32 = 132;
/// The array sizes used by Figs. 7, 8 and 9.
pub const EVALUATION_SIZES: [u32; 2] = [128, 256];

// ---------------------------------------------------------------------------
// Section IV text: clock frequency table
// ---------------------------------------------------------------------------

/// One row of the clock-frequency table (Section IV of the paper).
#[derive(Debug, Clone, Serialize)]
pub struct FrequencyRow {
    /// Design / pipeline-mode label.
    pub mode: String,
    /// Operating frequency in GHz.
    pub frequency_ghz: f64,
    /// Clock period in picoseconds.
    pub period_ps: f64,
    /// Whether the value is calibrated to the paper or produced by the
    /// analytical Equation (5).
    pub source: &'static str,
}

/// Builds the clock-frequency table: the conventional SA plus every
/// ArrayFlex mode, from both the calibrated plan and the analytical model.
#[must_use]
pub fn frequency_table() -> Vec<FrequencyRow> {
    let calibrated = ClockPlan::date23_calibrated();
    let analytical = DatapathDelays::date23_default();
    let mut rows = vec![FrequencyRow {
        mode: "conventional".to_owned(),
        frequency_ghz: calibrated.conventional_frequency().value(),
        period_ps: calibrated.conventional_period().value(),
        source: "paper",
    }];
    for k in 1..=4u32 {
        let calibrated_points = calibrated.calibrated_depths();
        let (freq, source) = if calibrated_points.contains(&k) {
            (
                calibrated.arrayflex_frequency(k).expect("k <= k_max"),
                "paper",
            )
        } else {
            (
                analytical.arrayflex_frequency(k).expect("k >= 1"),
                "equation (5)",
            )
        };
        rows.push(FrequencyRow {
            mode: format!("arrayflex k={k}"),
            frequency_ghz: freq.value(),
            period_ps: freq.period().value(),
            source,
        });
    }
    rows
}

/// Renders the frequency table.
#[must_use]
pub fn frequency_table_text(rows: &[FrequencyRow]) -> String {
    let mut table = TextTable::new(vec!["mode", "frequency (GHz)", "period (ps)", "source"]);
    for row in rows {
        table.push_row(vec![
            row.mode.clone(),
            format!("{:.2}", row.frequency_ghz),
            format!("{:.1}", row.period_ps),
            row.source.to_owned(),
        ]);
    }
    table.render()
}

// ---------------------------------------------------------------------------
// Fig. 5: execution time of ResNet-34 layers 20 and 28 vs collapsing depth
// ---------------------------------------------------------------------------

/// One point of a Fig. 5 sweep.
#[derive(Debug, Clone, Serialize)]
pub struct DepthSweepPoint {
    /// Pipeline collapsing depth.
    pub k: u32,
    /// Total cycles (Equation 4).
    pub cycles: u64,
    /// Operating frequency in GHz.
    pub frequency_ghz: f64,
    /// Absolute execution time in microseconds (Equation 6).
    pub time_us: f64,
}

/// The execution-time sweep of one layer (one panel of Fig. 5).
#[derive(Debug, Clone, Serialize)]
pub struct DepthSweep {
    /// Label of the layer ("ResNet-34 layer 20", ...).
    pub label: String,
    /// GEMM dimensions of the layer.
    pub dims: GemmDims,
    /// Array rows/columns used for the sweep.
    pub array: u32,
    /// Execution time on the conventional fixed-pipeline SA (the straight
    /// line of Fig. 5).
    pub conventional_time_us: f64,
    /// ArrayFlex execution time for every collapsing depth.
    pub points: Vec<DepthSweepPoint>,
}

impl DepthSweep {
    /// The depth with the minimum absolute execution time.
    #[must_use]
    pub fn best_depth(&self) -> u32 {
        self.points
            .iter()
            .min_by(|a, b| a.time_us.total_cmp(&b.time_us))
            .map_or(1, |p| p.k)
    }

    /// Renders the sweep as a table.
    #[must_use]
    pub fn table(&self) -> String {
        let mut table = TextTable::new(vec![
            "k",
            "cycles",
            "frequency (GHz)",
            "time (us)",
            "vs conventional",
        ]);
        table.push_row(vec![
            "conv".to_owned(),
            String::new(),
            String::new(),
            format!("{:.2}", self.conventional_time_us),
            "1.000".to_owned(),
        ]);
        for p in &self.points {
            table.push_row(vec![
                p.k.to_string(),
                p.cycles.to_string(),
                format!("{:.2}", p.frequency_ghz),
                format!("{:.2}", p.time_us),
                format!("{:.3}", p.time_us / self.conventional_time_us),
            ]);
        }
        format!(
            "{} {} on a {}x{} SA\n{}",
            self.label,
            self.dims,
            self.array,
            self.array,
            table.render()
        )
    }
}

/// Builds one panel of Fig. 5 for an arbitrary layer shape.
///
/// # Errors
///
/// Returns an error for invalid GEMM dimensions.
pub fn depth_sweep(label: &str, dims: GemmDims, array: u32) -> Result<DepthSweep, ArrayFlexError> {
    let model = ArrayFlexModel::new(array, array)?;
    let conventional = model.execute_conventional(dims)?;
    let points = model
        .depth_sweep(dims)?
        .into_iter()
        .map(|e| DepthSweepPoint {
            k: e.collapse_depth,
            cycles: e.cycles,
            frequency_ghz: e.frequency.value(),
            time_us: e.time.value(),
        })
        .collect();
    Ok(DepthSweep {
        label: label.to_owned(),
        dims,
        array,
        conventional_time_us: conventional.time.value(),
        points,
    })
}

/// Builds both panels of Fig. 5: ResNet-34 layers 20 and 28 on a 132x132
/// array.
///
/// # Errors
///
/// Propagates model errors.
pub fn fig5() -> Result<Vec<DepthSweep>, ArrayFlexError> {
    let net = resnet34();
    let layer20 = net.layer(20).expect("ResNet-34 has 34 layers").gemm_dims();
    let layer28 = net.layer(28).expect("ResNet-34 has 34 layers").gemm_dims();
    Ok(vec![
        depth_sweep("Fig. 5(a) ResNet-34 layer 20", layer20, FIG5_ARRAY)?,
        depth_sweep("Fig. 5(b) ResNet-34 layer 28", layer28, FIG5_ARRAY)?,
    ])
}

// ---------------------------------------------------------------------------
// Fig. 6: area of 8x8 conventional vs ArrayFlex arrays
// ---------------------------------------------------------------------------

/// The area comparison of Fig. 6.
#[derive(Debug, Clone, Serialize)]
pub struct AreaComparison {
    /// Edge length (in PEs) of the compared arrays.
    pub array: u32,
    /// Conventional PE area in square micrometres.
    pub conventional_pe_um2: f64,
    /// ArrayFlex PE area in square micrometres.
    pub arrayflex_pe_um2: f64,
    /// Conventional array area.
    pub conventional_array_um2: f64,
    /// ArrayFlex array area.
    pub arrayflex_array_um2: f64,
    /// Fractional per-PE overhead (the paper reports about 0.16).
    pub overhead_fraction: f64,
}

/// Builds the Fig. 6 area comparison for an `n x n` array (the paper uses
/// 8x8).
///
/// # Errors
///
/// Returns an error for a zero-sized array.
pub fn fig6_area(n: u32) -> Result<AreaComparison, ArrayFlexError> {
    let area = AreaModel::date23_default();
    Ok(AreaComparison {
        array: n,
        conventional_pe_um2: area.pe_area(Design::Conventional).value(),
        arrayflex_pe_um2: area.pe_area(Design::ArrayFlex).value(),
        conventional_array_um2: area.array_area(Design::Conventional, n, n)?.value(),
        arrayflex_array_um2: area.array_area(Design::ArrayFlex, n, n)?.value(),
        overhead_fraction: area.overhead_fraction(),
    })
}

/// Renders the Fig. 6 comparison, including the per-component breakdown.
#[must_use]
pub fn fig6_text(cmp: &AreaComparison) -> String {
    let area = AreaModel::date23_default();
    let mut table = TextTable::new(vec!["component", "conventional (um^2)", "arrayflex (um^2)"]);
    let conv = area.pe_breakdown(Design::Conventional);
    let af = area.pe_breakdown(Design::ArrayFlex);
    let rows: [(&str, f64, f64); 8] = [
        ("multiplier", conv.multiplier.value(), af.multiplier.value()),
        (
            "carry-propagate adder",
            conv.carry_propagate_adder.value(),
            af.carry_propagate_adder.value(),
        ),
        (
            "carry-save adder",
            conv.carry_save_adder.value(),
            af.carry_save_adder.value(),
        ),
        (
            "bypass muxes",
            conv.bypass_muxes.value(),
            af.bypass_muxes.value(),
        ),
        (
            "pipeline registers",
            conv.pipeline_registers.value(),
            af.pipeline_registers.value(),
        ),
        (
            "weight register",
            conv.weight_register.value(),
            af.weight_register.value(),
        ),
        (
            "configuration",
            conv.configuration.value(),
            af.configuration.value(),
        ),
        ("routing overhead", conv.routing.value(), af.routing.value()),
    ];
    for (name, c, a) in rows {
        table.push_row(vec![name.to_owned(), format!("{c:.1}"), format!("{a:.1}")]);
    }
    table.push_row(vec![
        "PE total".to_owned(),
        format!("{:.1}", cmp.conventional_pe_um2),
        format!("{:.1}", cmp.arrayflex_pe_um2),
    ]);
    table.push_row(vec![
        format!("{0}x{0} array total", cmp.array),
        format!("{:.0}", cmp.conventional_array_um2),
        format!("{:.0}", cmp.arrayflex_array_um2),
    ]);
    format!(
        "{}\nper-PE area overhead: {:.1}% (paper: ~16%)\n",
        table.render(),
        cmp.overhead_fraction * 100.0
    )
}

// ---------------------------------------------------------------------------
// Fig. 7: per-layer execution time of ConvNeXt on 128x128 arrays
// ---------------------------------------------------------------------------

/// One ConvNeXt layer of Fig. 7.
#[derive(Debug, Clone, Serialize)]
pub struct PerLayerRow {
    /// 1-based layer index (matches the paper's numbering).
    pub layer_index: u32,
    /// Layer name.
    pub layer_name: String,
    /// GEMM dimensions of the layer.
    pub dims: GemmDims,
    /// Execution time on the conventional SA in microseconds.
    pub conventional_us: f64,
    /// Execution time on ArrayFlex in microseconds.
    pub arrayflex_us: f64,
    /// The pipeline depth ArrayFlex selected for this layer.
    pub chosen_k: u32,
    /// The continuous-relaxation estimate of Equation (7).
    pub k_hat: f64,
    /// Fractional time saving of ArrayFlex for this layer (negative when
    /// the conventional array finishes earlier).
    pub saving: f64,
}

/// The whole Fig. 7 experiment.
#[derive(Debug, Clone, Serialize)]
pub struct PerLayerReport {
    /// Network name.
    pub network: String,
    /// Array edge length.
    pub array: u32,
    /// Per-layer rows in execution order.
    pub rows: Vec<PerLayerRow>,
    /// Total conventional execution time.
    pub conventional_total_us: f64,
    /// Total ArrayFlex execution time.
    pub arrayflex_total_us: f64,
}

impl PerLayerReport {
    /// Total fractional time saving (the paper reports ~11% for ConvNeXt).
    #[must_use]
    pub fn total_saving(&self) -> f64 {
        1.0 - self.arrayflex_total_us / self.conventional_total_us
    }

    /// Renders the per-layer table.
    #[must_use]
    pub fn table(&self) -> String {
        let mut table = TextTable::new(vec![
            "layer",
            "name",
            "M",
            "N",
            "T",
            "k",
            "k_hat",
            "conv (us)",
            "arrayflex (us)",
            "saving",
        ]);
        for row in &self.rows {
            table.push_row(vec![
                row.layer_index.to_string(),
                row.layer_name.clone(),
                row.dims.m.to_string(),
                row.dims.n.to_string(),
                row.dims.t.to_string(),
                row.chosen_k.to_string(),
                format!("{:.2}", row.k_hat),
                format!("{:.2}", row.conventional_us),
                format!("{:.2}", row.arrayflex_us),
                format!("{:+.1}%", row.saving * 100.0),
            ]);
        }
        format!(
            "{} on {}x{} PEs\n{}\ntotal: conventional {:.1} us, arrayflex {:.1} us, saving {:.1}%\n",
            self.network,
            self.array,
            self.array,
            table.render(),
            self.conventional_total_us,
            self.arrayflex_total_us,
            self.total_saving() * 100.0
        )
    }
}

/// Builds the per-layer execution-time report for any network and array size
/// (Fig. 7 uses ConvNeXt on 128x128).
///
/// # Errors
///
/// Propagates model errors.
pub fn per_layer_report(
    network: &cnn::Network,
    array: u32,
) -> Result<PerLayerReport, ArrayFlexError> {
    let model = ArrayFlexModel::new(array, array)?;
    let cmp = compare_network(&model, network, DepthwiseMapping::default())?;
    let rows = cmp
        .conventional
        .layers
        .iter()
        .zip(&cmp.arrayflex.layers)
        .map(|(base, prop)| PerLayerRow {
            layer_index: base.layer_index,
            layer_name: base.layer_name.clone(),
            dims: base.execution.dims,
            conventional_us: base.time().value(),
            arrayflex_us: prop.time().value(),
            chosen_k: prop.execution.collapse_depth,
            k_hat: prop.continuous_estimate,
            saving: 1.0 - prop.time().value() / base.time().value(),
        })
        .collect();
    Ok(PerLayerReport {
        network: network.name().to_owned(),
        array,
        rows,
        conventional_total_us: cmp.conventional.total_time().value(),
        arrayflex_total_us: cmp.arrayflex.total_time().value(),
    })
}

/// The Fig. 7 experiment: ConvNeXt, 128x128 PEs.
///
/// # Errors
///
/// Propagates model errors.
pub fn fig7() -> Result<PerLayerReport, ArrayFlexError> {
    per_layer_report(&convnext_tiny(), 128)
}

// ---------------------------------------------------------------------------
// Fig. 8 and Fig. 9: whole-network execution time and power
// ---------------------------------------------------------------------------

/// One (network, array size) entry of Figs. 8 and 9.
#[derive(Debug, Clone, Serialize)]
pub struct NetworkEntry {
    /// Network name.
    pub network: String,
    /// Array edge length.
    pub array: u32,
    /// Total conventional execution time in microseconds.
    pub conventional_us: f64,
    /// Total ArrayFlex execution time in microseconds.
    pub arrayflex_us: f64,
    /// ArrayFlex execution time normalized to the conventional SA (Fig. 8
    /// normalizes because ConvNeXt is much heavier than the other CNNs).
    pub normalized_arrayflex: f64,
    /// Conventional average power in milliwatts.
    pub conventional_mw: f64,
    /// ArrayFlex average power in milliwatts.
    pub arrayflex_mw: f64,
    /// Fractional power saving.
    pub power_saving: f64,
    /// Energy-delay-product gain.
    pub edp_gain: f64,
    /// Time, power and layer share of each ArrayFlex pipeline mode
    /// (the per-mode breakdown Fig. 9 shows separately).
    pub mode_breakdown: Vec<ModeEntry>,
}

/// Time/power share of one pipeline mode within a network run.
#[derive(Debug, Clone, Serialize)]
pub struct ModeEntry {
    /// Collapsing depth of the mode.
    pub k: u32,
    /// Number of layers that selected this mode.
    pub layers: u32,
    /// Time spent in this mode (microseconds).
    pub time_us: f64,
    /// Average power while in this mode (milliwatts).
    pub power_mw: f64,
}

/// Runs the full evaluation sweep behind Figs. 8 and 9: the three CNNs of
/// the paper on 128x128 and 256x256 arrays (serial).
///
/// # Errors
///
/// Propagates model errors.
pub fn evaluation_sweep() -> Result<Vec<NetworkEntry>, ArrayFlexError> {
    evaluation_sweep_threads(1)
}

/// [`evaluation_sweep`] with the (array size × network × pipeline choice)
/// planning jobs fanned out over `threads` workers through
/// [`EvaluationSweep::threads`] (`0` auto-detects, `1` is serial). The
/// entries are identical for every thread count.
///
/// # Errors
///
/// Propagates model errors.
pub fn evaluation_sweep_threads(threads: usize) -> Result<Vec<NetworkEntry>, ArrayFlexError> {
    let networks = paper_evaluation_networks();
    let comparisons = EvaluationSweep::date23().threads(threads).run(&networks)?;
    Ok(comparisons
        .iter()
        .map(|cmp| {
            let mode_breakdown = cmp
                .arrayflex
                .mode_breakdown()
                .into_iter()
                .map(|(k, share)| ModeEntry {
                    k,
                    layers: share.layers,
                    time_us: share.time.value(),
                    power_mw: share.average_power().value(),
                })
                .collect();
            NetworkEntry {
                network: cmp.network_name.clone(),
                array: cmp.rows,
                conventional_us: cmp.conventional.total_time().value(),
                arrayflex_us: cmp.arrayflex.total_time().value(),
                normalized_arrayflex: cmp.arrayflex.total_time().value()
                    / cmp.conventional.total_time().value(),
                conventional_mw: cmp.conventional.average_power().value(),
                arrayflex_mw: cmp.arrayflex.average_power().value(),
                power_saving: cmp.power_saving(),
                edp_gain: cmp.edp_gain(),
                mode_breakdown,
            }
        })
        .collect())
}

/// Renders the Fig. 8 table (normalized execution times).
#[must_use]
pub fn fig8_text(entries: &[NetworkEntry]) -> String {
    let mut out = String::new();
    for &array in &EVALUATION_SIZES {
        let mut table = TextTable::new(vec![
            "network",
            "conventional (us)",
            "arrayflex (us)",
            "normalized conv",
            "normalized arrayflex",
            "saving",
        ]);
        for e in entries.iter().filter(|e| e.array == array) {
            table.push_row(vec![
                e.network.clone(),
                format!("{:.1}", e.conventional_us),
                format!("{:.1}", e.arrayflex_us),
                "1.000".to_owned(),
                format!("{:.3}", e.normalized_arrayflex),
                format!("{:.1}%", (1.0 - e.normalized_arrayflex) * 100.0),
            ]);
        }
        out.push_str(&format!(
            "Fig. 8: {array}x{array} SAs\n{}\n",
            table.render()
        ));
    }
    out
}

/// Renders the Fig. 9 table (average power with per-mode breakdown).
#[must_use]
pub fn fig9_text(entries: &[NetworkEntry]) -> String {
    let mut out = String::new();
    for &array in &EVALUATION_SIZES {
        let mut table = TextTable::new(vec![
            "network",
            "conventional (mW)",
            "arrayflex (mW)",
            "saving",
            "per-mode (k: layers, time us, mW)",
        ]);
        for e in entries.iter().filter(|e| e.array == array) {
            let modes = e
                .mode_breakdown
                .iter()
                .map(|m| {
                    format!(
                        "k={}: {} layers, {:.1} us, {:.0} mW",
                        m.k, m.layers, m.time_us, m.power_mw
                    )
                })
                .collect::<Vec<_>>()
                .join(" | ");
            table.push_row(vec![
                e.network.clone(),
                format!("{:.0}", e.conventional_mw),
                format!("{:.0}", e.arrayflex_mw),
                format!("{:.1}%", e.power_saving * 100.0),
                modes,
            ]);
        }
        out.push_str(&format!(
            "Fig. 9: {array}x{array} SAs\n{}\n",
            table.render()
        ));
    }
    out
}

/// Renders the energy-delay-product summary table (Section IV-B text).
#[must_use]
pub fn edp_text(entries: &[NetworkEntry]) -> String {
    let mut table = TextTable::new(vec![
        "network",
        "array",
        "time saving",
        "power saving",
        "EDP gain",
    ]);
    for e in entries {
        table.push_row(vec![
            e.network.clone(),
            format!("{0}x{0}", e.array),
            format!("{:.1}%", (1.0 - e.normalized_arrayflex) * 100.0),
            format!("{:.1}%", e.power_saving * 100.0),
            format!("{:.2}x", e.edp_gain),
        ]);
    }
    format!(
        "{}\npaper: 1.4x-1.8x combined EDP efficiency\n",
        table.render()
    )
}

// ---------------------------------------------------------------------------
// Equation (7) validation
// ---------------------------------------------------------------------------

/// One layer of the k-hat validation table.
#[derive(Debug, Clone, Serialize)]
pub struct KhatRow {
    /// Network name.
    pub network: String,
    /// Layer index.
    pub layer_index: u32,
    /// Streaming dimension `T` of the layer.
    pub t: u64,
    /// Continuous-relaxation estimate of Equation (7).
    pub k_hat: f64,
    /// Discrete mode chosen by exhaustive search.
    pub chosen_k: u32,
}

/// Compares the closed-form `k_hat` of Equation (7) to the discrete optimum
/// for every layer of the three evaluated CNNs.
///
/// # Errors
///
/// Propagates model errors.
pub fn khat_validation(array: u32) -> Result<Vec<KhatRow>, ArrayFlexError> {
    let model = ArrayFlexModel::new(array, array)?;
    let mut rows = Vec::new();
    for network in paper_evaluation_networks() {
        for gemm in network.gemms(DepthwiseMapping::default()) {
            let choice = model.optimal_depth(gemm.dims)?;
            rows.push(KhatRow {
                network: network.name().to_owned(),
                layer_index: gemm.layer_index,
                t: gemm.dims.t,
                k_hat: choice.continuous_estimate,
                chosen_k: choice.collapse_depth,
            });
        }
    }
    Ok(rows)
}

/// Renders the k-hat validation table and its summary statistics.
#[must_use]
pub fn khat_text(rows: &[KhatRow]) -> String {
    let mut table = TextTable::new(vec!["network", "layer", "T", "k_hat", "chosen k"]);
    for row in rows {
        table.push_row(vec![
            row.network.clone(),
            row.layer_index.to_string(),
            row.t.to_string(),
            format!("{:.2}", row.k_hat),
            row.chosen_k.to_string(),
        ]);
    }
    let close = rows
        .iter()
        .filter(|r| (f64::from(r.chosen_k) - r.k_hat).abs() <= 1.5)
        .count();
    format!(
        "{}\n{} of {} layers have the discrete optimum within 1.5 of k_hat\n",
        table.render(),
        close,
        rows.len()
    )
}

// ---------------------------------------------------------------------------
// Simulator validation (latency model vs cycle-accurate simulation)
// ---------------------------------------------------------------------------

/// One cross-check of the analytical latency model against the
/// cycle-accurate simulator.
#[derive(Debug, Clone, Serialize)]
pub struct SimValidationRow {
    /// Array edge length.
    pub array: u32,
    /// Collapsing depth.
    pub k: u32,
    /// GEMM dimensions.
    pub dims: GemmDims,
    /// Cycles measured by the register-level simulation.
    pub simulated_cycles: u64,
    /// Cycles predicted by Equations (1)-(4).
    pub analytical_cycles: u64,
    /// Whether the simulated product matched the reference GEMM.
    pub functionally_correct: bool,
}

/// Runs the simulator-vs-model cross-check on a set of small random GEMMs
/// (serial).
///
/// # Errors
///
/// Propagates simulation errors.
pub fn sim_validation(seed: u64) -> Result<Vec<SimValidationRow>, ArrayFlexError> {
    sim_validation_threads(seed, 1)
}

/// [`sim_validation`] with each GEMM's tiles simulated on `threads` worker
/// threads through [`Simulator::threads`] (`0` auto-detects, `1` is
/// serial). Tile-parallel simulation is bit-identical to serial, so the
/// rows are unchanged for every thread count.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn sim_validation_threads(
    seed: u64,
    threads: usize,
) -> Result<Vec<SimValidationRow>, ArrayFlexError> {
    let mut generator = WorkloadGenerator::new(seed);
    let mut rows = Vec::new();
    for array in [4u32, 8, 16] {
        let model = ArrayFlexModel::new(array, array)?;
        for k in [1u32, 2, 4] {
            let workload = generator.random_workload(DimBounds { min: 2, max: 24 });
            let result = model.simulate_gemm_threads(&workload.a, &workload.b, k, threads)?;
            rows.push(SimValidationRow {
                array,
                k,
                dims: workload.dims,
                simulated_cycles: result.stats.total_cycles(),
                analytical_cycles: result.predicted.cycles,
                functionally_correct: result.functionally_correct,
            });
        }
    }
    Ok(rows)
}

/// Renders the simulator validation table.
#[must_use]
pub fn sim_validation_text(rows: &[SimValidationRow]) -> String {
    let mut table = TextTable::new(vec![
        "array",
        "k",
        "dims",
        "simulated",
        "analytical",
        "match",
        "functional",
    ]);
    for row in rows {
        table.push_row(vec![
            format!("{0}x{0}", row.array),
            row.k.to_string(),
            row.dims.to_string(),
            row.simulated_cycles.to_string(),
            row.analytical_cycles.to_string(),
            (row.simulated_cycles == row.analytical_cycles).to_string(),
            row.functionally_correct.to_string(),
        ]);
    }
    table.render()
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

/// One row of the global-k ablation: per-layer selection vs one fixed depth.
#[derive(Debug, Clone, Serialize)]
pub struct GlobalKRow {
    /// Network name.
    pub network: String,
    /// Array edge length.
    pub array: u32,
    /// Execution time with per-layer mode selection (microseconds).
    pub per_layer_us: f64,
    /// Execution time with the whole network fixed at k = 1, 2 and 4.
    pub fixed_us: Vec<(u32, f64)>,
}

/// Runs the global-k ablation: how much of ArrayFlex's benefit comes from
/// choosing the depth per layer instead of globally.
///
/// # Errors
///
/// Propagates model errors.
pub fn ablation_global_k(array: u32) -> Result<Vec<GlobalKRow>, ArrayFlexError> {
    let model = ArrayFlexModel::new(array, array)?;
    let mut rows = Vec::new();
    for network in paper_evaluation_networks() {
        let per_layer = model.plan_arrayflex(&network, DepthwiseMapping::default())?;
        let mut fixed_us = Vec::new();
        for k in [1u32, 2, 4] {
            let plan = model.plan_arrayflex_fixed(&network, DepthwiseMapping::default(), k)?;
            fixed_us.push((k, plan.total_time().value()));
        }
        rows.push(GlobalKRow {
            network: network.name().to_owned(),
            array,
            per_layer_us: per_layer.total_time().value(),
            fixed_us,
        });
    }
    Ok(rows)
}

/// Renders the global-k ablation table.
#[must_use]
pub fn ablation_global_k_text(rows: &[GlobalKRow]) -> String {
    let mut table = TextTable::new(vec![
        "network",
        "array",
        "per-layer (us)",
        "k=1 (us)",
        "k=2 (us)",
        "k=4 (us)",
    ]);
    for row in rows {
        let fixed: Vec<String> = row
            .fixed_us
            .iter()
            .map(|(_, t)| format!("{t:.1}"))
            .collect();
        table.push_row(vec![
            row.network.clone(),
            format!("{0}x{0}", row.array),
            format!("{:.1}", row.per_layer_us),
            fixed.first().cloned().unwrap_or_default(),
            fixed.get(1).cloned().unwrap_or_default(),
            fixed.get(2).cloned().unwrap_or_default(),
        ]);
    }
    table.render()
}

/// One row of the carry-save ablation: the clock period with the paper's
/// carry-save reduction versus a naive chain of carry-propagate adders.
#[derive(Debug, Clone, Serialize)]
pub struct CsaAblationRow {
    /// Collapsing depth.
    pub k: u32,
    /// Clock period with the carry-save reduction (Equation 5), in ps.
    pub carry_save_period_ps: f64,
    /// Clock period if `k` carry-propagate adders were chained instead.
    pub ripple_period_ps: f64,
}

/// Computes the carry-save ablation of Section III-B: without the 3:2
/// carry-save stage, collapsing `k` stages would chain `k` carry-propagate
/// adders and the clock period would degrade far more steeply.
#[must_use]
pub fn ablation_csa() -> Vec<CsaAblationRow> {
    let delays = DatapathDelays::date23_default();
    (1..=4)
        .map(|k| {
            let carry_save = delays.arrayflex_period(k).expect("k >= 1").value();
            // Naive alternative: k carry-propagate adders plus the bypass
            // multiplexers in series after the multiplier.
            let ripple = delays.d_ff.value()
                + delays.d_mul.value()
                + f64::from(k) * (delays.d_add.value() + 2.0 * delays.d_mux.value());
            CsaAblationRow {
                k,
                carry_save_period_ps: carry_save,
                ripple_period_ps: ripple,
            }
        })
        .collect()
}

/// Renders the carry-save ablation table.
#[must_use]
pub fn ablation_csa_text(rows: &[CsaAblationRow]) -> String {
    let mut table = TextTable::new(vec![
        "k",
        "carry-save period (ps)",
        "ripple period (ps)",
        "ratio",
    ]);
    for row in rows {
        table.push_row(vec![
            row.k.to_string(),
            format!("{:.0}", row.carry_save_period_ps),
            format!("{:.0}", row.ripple_period_ps),
            format!("{:.2}", row.ripple_period_ps / row.carry_save_period_ps),
        ]);
    }
    table.render()
}

/// One row of the clock-gating ablation.
#[derive(Debug, Clone, Serialize)]
pub struct ClockGatingRow {
    /// Network name.
    pub network: String,
    /// Array edge length.
    pub array: u32,
    /// Conventional average power (mW).
    pub conventional_mw: f64,
    /// ArrayFlex average power with clock gating of transparent registers
    /// (the paper's design), in mW.
    pub gated_mw: f64,
    /// ArrayFlex average power if the transparent registers kept toggling
    /// their clock pins (no gating), in mW.
    pub ungated_mw: f64,
}

/// Runs the clock-gating ablation: how much of ArrayFlex's power saving is
/// due to gating the transparent registers (Section III-B / IV-B) rather
/// than to the lower clock frequency alone.
///
/// # Errors
///
/// Propagates model errors.
pub fn ablation_clock_gating(array: u32) -> Result<Vec<ClockGatingRow>, ArrayFlexError> {
    use hw_model::PowerModel;
    let gated_model = ArrayFlexModel::new(array, array)?;
    let ungated_model = ArrayFlexModel::new(array, array)?
        .with_power_model(PowerModel::date23_default().with_clock_gate_residual(1.0));
    let mut rows = Vec::new();
    for network in paper_evaluation_networks() {
        let conventional = gated_model.plan_conventional(&network, DepthwiseMapping::default())?;
        let gated = gated_model.plan_arrayflex(&network, DepthwiseMapping::default())?;
        let ungated = ungated_model.plan_arrayflex(&network, DepthwiseMapping::default())?;
        rows.push(ClockGatingRow {
            network: network.name().to_owned(),
            array,
            conventional_mw: conventional.average_power().value(),
            gated_mw: gated.average_power().value(),
            ungated_mw: ungated.average_power().value(),
        });
    }
    Ok(rows)
}

/// Renders the clock-gating ablation table.
#[must_use]
pub fn ablation_clock_gating_text(rows: &[ClockGatingRow]) -> String {
    let mut table = TextTable::new(vec![
        "network",
        "array",
        "conventional (mW)",
        "arrayflex gated (mW)",
        "arrayflex ungated (mW)",
        "saving gated",
        "saving ungated",
    ]);
    for row in rows {
        table.push_row(vec![
            row.network.clone(),
            format!("{0}x{0}", row.array),
            format!("{:.0}", row.conventional_mw),
            format!("{:.0}", row.gated_mw),
            format!("{:.0}", row.ungated_mw),
            format!("{:.1}%", (1.0 - row.gated_mw / row.conventional_mw) * 100.0),
            format!(
                "{:.1}%",
                (1.0 - row.ungated_mw / row.conventional_mw) * 100.0
            ),
        ]);
    }
    table.render()
}

/// One row of the batch-size sweep.
#[derive(Debug, Clone, Serialize)]
pub struct BatchSweepRow {
    /// Batch size (multiplies the streaming dimension `T`).
    pub batch: u64,
    /// GEMM dimensions at this batch size.
    pub dims: GemmDims,
    /// ArrayFlex pipeline depth chosen at this batch size.
    pub chosen_k: u32,
    /// Continuous estimate of Equation (7).
    pub k_hat: f64,
    /// Per-image execution time on the conventional array (us).
    pub conventional_us_per_image: f64,
    /// Per-image execution time on ArrayFlex (us).
    pub arrayflex_us_per_image: f64,
}

/// Sweeps the batch size of one layer: batching multiplies `T`, so the
/// benefit of pipeline collapsing shrinks exactly as Equation (7) predicts —
/// the paper's motivation that latency-sensitive, small-batch inference is
/// where ArrayFlex matters most.
///
/// # Errors
///
/// Propagates model errors.
pub fn batch_sweep(
    base: GemmDims,
    array: u32,
    batches: &[u64],
) -> Result<Vec<BatchSweepRow>, ArrayFlexError> {
    let model = ArrayFlexModel::new(array, array)?;
    let mut rows = Vec::new();
    for &batch in batches {
        let dims = GemmDims::new(base.m, base.n, base.t * batch);
        let conventional = model.execute_conventional(dims)?;
        let choice = model.optimal_depth(dims)?;
        rows.push(BatchSweepRow {
            batch,
            dims,
            chosen_k: choice.collapse_depth,
            k_hat: choice.continuous_estimate,
            conventional_us_per_image: conventional.time.value() / batch as f64,
            arrayflex_us_per_image: choice.execution.time.value() / batch as f64,
        });
    }
    Ok(rows)
}

/// Renders the batch sweep table.
#[must_use]
pub fn batch_sweep_text(rows: &[BatchSweepRow]) -> String {
    let mut table = TextTable::new(vec![
        "batch",
        "T",
        "chosen k",
        "k_hat",
        "conv us/image",
        "arrayflex us/image",
        "saving",
    ]);
    for row in rows {
        table.push_row(vec![
            row.batch.to_string(),
            row.dims.t.to_string(),
            row.chosen_k.to_string(),
            format!("{:.2}", row.k_hat),
            format!("{:.2}", row.conventional_us_per_image),
            format!("{:.2}", row.arrayflex_us_per_image),
            format!(
                "{:+.1}%",
                (1.0 - row.arrayflex_us_per_image / row.conventional_us_per_image) * 100.0
            ),
        ]);
    }
    table.render()
}

/// One row of the transformer (sequence-length) study.
#[derive(Debug, Clone, Serialize)]
pub struct TransformerRow {
    /// Sequence length of single-batch inference.
    pub sequence_length: u64,
    /// Total conventional execution time (us).
    pub conventional_us: f64,
    /// Total ArrayFlex execution time (us).
    pub arrayflex_us: f64,
    /// Fractional time saving.
    pub saving: f64,
    /// Number of GEMM layers per chosen mode `(k, layers)`.
    pub layers_per_mode: Vec<(u32, u32)>,
}

/// Runs the beyond-the-paper transformer study: BERT-base encoder inference
/// at several sequence lengths on one array size.
///
/// # Errors
///
/// Propagates model errors.
pub fn transformer_study(
    array: u32,
    sequence_lengths: &[u64],
) -> Result<Vec<TransformerRow>, ArrayFlexError> {
    let model = ArrayFlexModel::new(array, array)?;
    let mut rows = Vec::new();
    for &seq in sequence_lengths {
        let network = cnn::models::bert_base(seq);
        let cmp = compare_network(&model, &network, DepthwiseMapping::default())?;
        let layers_per_mode = cmp
            .arrayflex
            .mode_breakdown()
            .into_iter()
            .map(|(k, share)| (k, share.layers))
            .collect();
        rows.push(TransformerRow {
            sequence_length: seq,
            conventional_us: cmp.conventional.total_time().value(),
            arrayflex_us: cmp.arrayflex.total_time().value(),
            saving: cmp.time_saving(),
            layers_per_mode,
        });
    }
    Ok(rows)
}

/// Renders the transformer study table.
#[must_use]
pub fn transformer_study_text(rows: &[TransformerRow]) -> String {
    let mut table = TextTable::new(vec![
        "sequence",
        "conventional (us)",
        "arrayflex (us)",
        "saving",
        "layers per mode",
    ]);
    for row in rows {
        let modes = row
            .layers_per_mode
            .iter()
            .map(|(k, n)| format!("k={k}: {n}"))
            .collect::<Vec<_>>()
            .join(", ");
        table.push_row(vec![
            row.sequence_length.to_string(),
            format!("{:.1}", row.conventional_us),
            format!("{:.1}", row.arrayflex_us),
            format!("{:+.1}%", row.saving * 100.0),
            modes,
        ]);
    }
    table.render()
}

/// One row of the optimization-objective ablation.
#[derive(Debug, Clone, Serialize)]
pub struct ObjectiveRow {
    /// Network name.
    pub network: String,
    /// Objective the per-layer selection minimized.
    pub objective: String,
    /// Total execution time (us).
    pub time_us: f64,
    /// Total energy (uJ).
    pub energy_uj: f64,
    /// Energy-delay product (uJ x us).
    pub edp: f64,
}

/// Runs the objective ablation: plan every evaluated network while
/// minimizing latency (the paper's policy), energy, or energy-delay product.
///
/// # Errors
///
/// Propagates model errors.
pub fn ablation_objective(array: u32) -> Result<Vec<ObjectiveRow>, ArrayFlexError> {
    use arrayflex::Objective;
    let model = ArrayFlexModel::new(array, array)?;
    let mut rows = Vec::new();
    for network in paper_evaluation_networks() {
        for objective in Objective::ALL {
            let plan = model.plan_arrayflex_with_objective(
                &network,
                DepthwiseMapping::default(),
                objective,
            )?;
            let report = plan.energy_report();
            rows.push(ObjectiveRow {
                network: network.name().to_owned(),
                objective: objective.to_string(),
                time_us: plan.total_time().value(),
                energy_uj: plan.total_energy().value(),
                edp: report.energy_delay_product(),
            });
        }
    }
    Ok(rows)
}

/// Renders the objective ablation table.
#[must_use]
pub fn ablation_objective_text(rows: &[ObjectiveRow]) -> String {
    let mut table = TextTable::new(vec![
        "network",
        "objective",
        "time (us)",
        "energy (uJ)",
        "EDP",
    ]);
    for row in rows {
        table.push_row(vec![
            row.network.clone(),
            row.objective.clone(),
            format!("{:.1}", row.time_us),
            format!("{:.1}", row.energy_uj),
            format!("{:.0}", row.edp),
        ]);
    }
    table.render()
}

// ---------------------------------------------------------------------------
// Small helpers used by the Criterion benches
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Throughput: serial vs. parallel execution engine
// ---------------------------------------------------------------------------

/// One row of the serial-vs-parallel throughput experiment: a workload, the
/// execution mode it ran in, its wall-clock time and the speedup over the
/// serial mode of the same workload.
#[derive(Debug, Clone, Serialize)]
pub struct ThroughputRow {
    /// Workload label.
    pub workload: String,
    /// Execution-mode label (`serial`, `N threads`, `step_into scan`, ...).
    pub mode: String,
    /// Worker threads used (1 for serial modes).
    pub threads: usize,
    /// Best-of-three wall-clock time in milliseconds.
    pub wall_ms: f64,
    /// Speedup over the serial mode of the same workload (1.0 for the
    /// serial row itself).
    pub speedup: f64,
}

/// Best-of-three wall-clock milliseconds of `f`.
fn best_of_three<F: FnMut()>(mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = std::time::Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn throughput_pair(
    workload: &str,
    serial_label: &str,
    parallel_label: &str,
    threads: usize,
    serial_ms: f64,
    parallel_ms: f64,
) -> [ThroughputRow; 2] {
    [
        ThroughputRow {
            workload: workload.to_owned(),
            mode: serial_label.to_owned(),
            threads: 1,
            wall_ms: serial_ms,
            speedup: 1.0,
        },
        ThroughputRow {
            workload: workload.to_owned(),
            mode: parallel_label.to_owned(),
            threads,
            wall_ms: parallel_ms,
            speedup: serial_ms / parallel_ms,
        },
    ]
}

/// Measures the parallel execution engine against serial execution on three
/// workloads (the data behind the speedup table in `EXPERIMENTS.md`):
///
/// 1. the DATE'23 evaluation sweep (`EvaluationSweep::run`, serial vs.
///    fanned out over `threads` workers);
/// 2. a tiled cycle-accurate GEMM (`Simulator::run_gemm`, serial tiles vs.
///    tile-parallel);
/// 3. one simulated tile with the per-cycle `step_into` scan vs. the
///    analytic wavefront kernel (single-threaded in both modes).
///
/// `threads == 0` auto-detects the hardware parallelism. Every mode's
/// result is asserted bit-identical to its serial/naive reference before
/// timing, so the table can never report a speedup of a wrong computation.
/// Speedups for workloads 1 and 2 scale with the core count of the host
/// (they are ~1.0 on a single-core machine); the wavefront speedup of
/// workload 3 is machine-independent.
///
/// # Errors
///
/// Propagates model and simulation errors.
///
/// # Panics
///
/// Panics if a parallel or wavefront result diverges from its serial or
/// naive-scan reference, which would indicate a determinism bug.
pub fn throughput(threads: usize) -> Result<Vec<ThroughputRow>, ArrayFlexError> {
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        threads
    };
    let mut rows = Vec::new();

    // 1. The DATE'23 evaluation sweep.
    let networks = paper_evaluation_networks();
    let serial_sweep = EvaluationSweep::date23();
    let parallel_sweep = EvaluationSweep::date23().threads(threads);
    assert_eq!(
        parallel_sweep.run(&networks)?,
        serial_sweep.run(&networks)?,
        "parallel sweep diverged from serial"
    );
    let serial_ms = best_of_three(|| {
        serial_sweep.run(&networks).expect("serial sweep");
    });
    let parallel_ms = best_of_three(|| {
        parallel_sweep.run(&networks).expect("parallel sweep");
    });
    rows.extend(throughput_pair(
        "DATE'23 evaluation sweep",
        "serial",
        &format!("{threads} threads"),
        threads,
        serial_ms,
        parallel_ms,
    ));

    // 2. Tile-parallel cycle-accurate GEMM: 8x4 = 32 tiles on a 32x32 array.
    let mut rng = gemm::rng::SplitMix64::new(41);
    let a = Matrix::random(24, 256, &mut rng, -50, 50);
    let b = Matrix::random(256, 128, &mut rng, -50, 50);
    let serial_sim = Simulator::new(ArrayConfig::new(32, 32).with_collapse_depth(2))
        .map_err(ArrayFlexError::from)?;
    let parallel_sim = serial_sim.threads(threads);
    assert_eq!(
        parallel_sim
            .run_gemm(&a, &b)
            .map_err(ArrayFlexError::from)?,
        serial_sim.run_gemm(&a, &b).map_err(ArrayFlexError::from)?,
        "tile-parallel simulation diverged from serial"
    );
    let serial_ms = best_of_three(|| {
        serial_sim.run_gemm(&a, &b).expect("serial simulation");
    });
    let parallel_ms = best_of_three(|| {
        parallel_sim.run_gemm(&a, &b).expect("parallel simulation");
    });
    rows.extend(throughput_pair(
        "tiled GEMM simulation",
        "serial tiles",
        &format!("{threads} threads"),
        threads,
        serial_ms,
        parallel_ms,
    ));

    // 3. The per-cycle `step_into` scan (on one reused array) vs. the
    //    wavefront kernel `run_tile` takes, on one drain-heavy tile (small
    //    T relative to the array).
    let a_tile = Matrix::random(4, 64, &mut rng, -50, 50);
    let b_tile = Matrix::random(64, 64, &mut rng, -50, 50);
    let tile_config = ArrayConfig::new(64, 64);
    let tile_sim = Simulator::new(tile_config).map_err(ArrayFlexError::from)?;
    let mut tile_array = SystolicArray::new(tile_config).map_err(ArrayFlexError::from)?;
    let wavefront = tile_sim
        .run_tile(&a_tile, &b_tile)
        .map_err(ArrayFlexError::from)?;
    let naive = crate::baseline::naive_scan_tile(&mut tile_array, &a_tile, &b_tile)
        .map_err(ArrayFlexError::from)?;
    assert_eq!(
        wavefront, naive,
        "wavefront kernel diverged from the naive scan"
    );
    let naive_ms = best_of_three(|| {
        crate::baseline::naive_scan_tile(&mut tile_array, &a_tile, &b_tile).expect("naive tile");
    });
    let wavefront_ms = best_of_three(|| {
        tile_sim.run_tile(&a_tile, &b_tile).expect("wavefront tile");
    });
    rows.extend(throughput_pair(
        "single-tile cycle kernel",
        "step_into scan",
        "wavefront kernel",
        1,
        naive_ms,
        wavefront_ms,
    ));
    Ok(rows)
}

/// Renders the throughput table.
#[must_use]
pub fn throughput_text(rows: &[ThroughputRow]) -> String {
    let mut table = TextTable::new(vec!["workload", "mode", "threads", "wall (ms)", "speedup"]);
    for row in rows {
        table.push_row(vec![
            row.workload.clone(),
            row.mode.clone(),
            row.threads.to_string(),
            format!("{:.3}", row.wall_ms),
            format!("{:.2}x", row.speedup),
        ]);
    }
    format!("Serial vs. parallel execution engine\n{}", table.render())
}

/// A small random GEMM executed on the cycle-accurate simulator; used by the
/// simulator bench so every mode is timed on identical operands.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn simulate_small_gemm(k: u32) -> Result<u64, ArrayFlexError> {
    let mut rng = gemm::rng::SplitMix64::new(13);
    let a = Matrix::random(16, 32, &mut rng, -50, 50);
    let b = Matrix::random(32, 16, &mut rng, -50, 50);
    let sim = Simulator::new(ArrayConfig::new(16, 16).with_collapse_depth(k))
        .map_err(ArrayFlexError::from)?;
    let run = sim.run_gemm(&a, &b).map_err(ArrayFlexError::from)?;
    Ok(run.stats.total_cycles())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_reproduces_the_papers_optimal_depths() {
        let sweeps = fig5().unwrap();
        assert_eq!(sweeps.len(), 2);
        // Layer 20 is minimized at k = 2, layer 28 at k = 4.
        assert_eq!(sweeps[0].best_depth(), 2);
        assert_eq!(sweeps[1].best_depth(), 4);
        // The conventional SA line sits between the extremes.
        for sweep in &sweeps {
            assert!(sweep.points.len() == 4);
            assert!(!sweep.table().is_empty());
        }
    }

    #[test]
    fn frequency_table_lists_all_modes() {
        let rows = frequency_table();
        assert_eq!(rows.len(), 5);
        assert!((rows[0].frequency_ghz - 2.0).abs() < 1e-9);
        assert!(frequency_table_text(&rows).contains("arrayflex k=4"));
    }

    #[test]
    fn fig6_overhead_is_near_16_percent() {
        let cmp = fig6_area(8).unwrap();
        assert!((0.12..=0.20).contains(&cmp.overhead_fraction));
        assert!(cmp.arrayflex_array_um2 > cmp.conventional_array_um2);
        assert!(fig6_text(&cmp).contains("per-PE area overhead"));
    }

    #[test]
    fn fig7_total_saving_is_near_11_percent() {
        let report = fig7().unwrap();
        assert_eq!(report.rows.len(), 55);
        let saving = report.total_saving();
        assert!((0.05..=0.20).contains(&saving), "saving {saving}");
        // Per-layer savings range: early layers negative, late layers
        // clearly positive (paper: 1.5%-26% for the layers that benefit).
        assert!(report.rows[1].saving < 0.0);
        assert!(report.rows.iter().any(|r| r.saving > 0.15));
        assert!(report.table().contains("total:"));
    }

    #[test]
    fn throughput_rows_cover_every_workload_and_verify_results() {
        // throughput() itself asserts parallel == serial and wavefront ==
        // naive scan before timing; here we check the table's shape.
        let rows = throughput(2).unwrap();
        assert_eq!(rows.len(), 6);
        for pair in rows.chunks_exact(2) {
            assert_eq!(pair[0].workload, pair[1].workload);
            assert!((pair[0].speedup - 1.0).abs() < 1e-12);
            assert!(pair[0].wall_ms > 0.0 && pair[1].wall_ms > 0.0);
            assert!(pair[1].speedup > 0.0);
        }
        assert_eq!(rows[1].threads, 2);
        let text = throughput_text(&rows);
        assert!(text.contains("wavefront kernel"));
        assert!(text.contains("DATE'23 evaluation sweep"));
    }

    #[test]
    fn evaluation_sweep_produces_six_entries_with_positive_savings() {
        let entries = evaluation_sweep().unwrap();
        assert_eq!(entries.len(), 6);
        for e in &entries {
            assert!(e.normalized_arrayflex < 1.0);
            assert!(e.power_saving > 0.0);
            assert!(e.edp_gain > 1.0);
            assert!(!e.mode_breakdown.is_empty());
        }
        assert!(fig8_text(&entries).contains("128x128"));
        assert!(fig9_text(&entries).contains("256x256"));
        assert!(edp_text(&entries).contains("EDP gain"));
    }

    #[test]
    fn threaded_sweep_and_sim_validation_match_serial() {
        // The `--threads N` flag of the bench binaries must never change
        // the data, only the wall-clock time.
        let serial = evaluation_sweep().unwrap();
        let threaded = evaluation_sweep_threads(3).unwrap();
        assert_eq!(
            serde_json::to_string(&threaded).unwrap(),
            serde_json::to_string(&serial).unwrap()
        );
        let serial = sim_validation(2023).unwrap();
        let threaded = sim_validation_threads(2023, 4).unwrap();
        assert_eq!(
            serde_json::to_string(&threaded).unwrap(),
            serde_json::to_string(&serial).unwrap()
        );
    }

    #[test]
    fn khat_tracks_the_discrete_choice_for_most_layers() {
        let rows = khat_validation(128).unwrap();
        assert_eq!(rows.len(), 34 + 28 + 55);
        let close = rows
            .iter()
            .filter(|r| (f64::from(r.chosen_k) - r.k_hat).abs() <= 1.5)
            .count();
        assert!(
            close as f64 / rows.len() as f64 > 0.85,
            "only {close}/{} layers close to k_hat",
            rows.len()
        );
        assert!(khat_text(&rows).contains("chosen k"));
    }

    #[test]
    fn simulator_validation_matches_everywhere() {
        let rows = sim_validation(7).unwrap();
        assert_eq!(rows.len(), 9);
        for row in &rows {
            assert!(row.functionally_correct, "functional mismatch: {row:?}");
            assert_eq!(
                row.simulated_cycles, row.analytical_cycles,
                "latency mismatch: {row:?}"
            );
        }
        assert!(sim_validation_text(&rows).contains("functional"));
    }

    #[test]
    fn global_k_ablation_shows_per_layer_selection_winning() {
        let rows = ablation_global_k(128).unwrap();
        assert_eq!(rows.len(), 3);
        for row in &rows {
            for (k, fixed) in &row.fixed_us {
                assert!(
                    row.per_layer_us <= *fixed + 1e-9,
                    "{}: per-layer slower than fixed k={k}",
                    row.network
                );
            }
        }
        assert!(ablation_global_k_text(&rows).contains("per-layer"));
    }

    #[test]
    fn csa_ablation_shows_the_carry_save_advantage_growing_with_k() {
        let rows = ablation_csa();
        assert_eq!(rows.len(), 4);
        // At k = 1 both structures are similar; by k = 4 the ripple chain is
        // much slower.
        assert!(rows[0].ripple_period_ps / rows[0].carry_save_period_ps < 1.2);
        assert!(rows[3].ripple_period_ps / rows[3].carry_save_period_ps > 1.3);
        assert!(ablation_csa_text(&rows).contains("ratio"));
    }

    #[test]
    fn small_simulated_gemm_counts_fewer_cycles_with_collapsing() {
        let c1 = simulate_small_gemm(1).unwrap();
        let c4 = simulate_small_gemm(4).unwrap();
        assert!(c4 < c1);
    }

    #[test]
    fn clock_gating_ablation_shows_gating_is_essential() {
        let rows = ablation_clock_gating(128).unwrap();
        assert_eq!(rows.len(), 3);
        for row in &rows {
            // With gating ArrayFlex saves power; without it, most (or all)
            // of the saving disappears.
            assert!(row.gated_mw < row.conventional_mw, "{}", row.network);
            assert!(row.ungated_mw > row.gated_mw, "{}", row.network);
        }
        assert!(ablation_clock_gating_text(&rows).contains("ungated"));
    }

    #[test]
    fn batch_sweep_shifts_the_optimum_towards_normal_mode() {
        let base = GemmDims::new(512, 2304, 49);
        let rows = batch_sweep(base, 128, &[1, 2, 4, 8, 32]).unwrap();
        assert_eq!(rows.len(), 5);
        // Small batches prefer deep collapsing, large batches shallow.
        assert_eq!(rows[0].chosen_k, 4);
        assert!(rows.last().unwrap().chosen_k <= rows[0].chosen_k);
        // k_hat decreases monotonically with the batch size.
        for pair in rows.windows(2) {
            assert!(pair[1].k_hat <= pair[0].k_hat + 1e-12);
        }
        assert!(batch_sweep_text(&rows).contains("us/image"));
    }

    #[test]
    fn transformer_study_finds_savings_that_shrink_with_sequence_length() {
        let rows = transformer_study(128, &[64, 128, 512]).unwrap();
        assert_eq!(rows.len(), 3);
        // Short sequences (hard-to-batch, latency-critical inference) are
        // where ArrayFlex pays off clearly ...
        assert!(
            rows[0].saving > 0.10,
            "saving at seq 64: {}",
            rows[0].saving
        );
        // ... and the benefit shrinks monotonically as the sequence (and
        // therefore the streaming dimension T) grows; at very long
        // sequences the conventional array's higher clock can even win.
        assert!(rows[0].saving >= rows[1].saving);
        assert!(rows[1].saving >= rows[2].saving);
        assert!(transformer_study_text(&rows).contains("sequence"));
    }

    #[test]
    fn objective_ablation_orders_the_metrics_correctly() {
        let rows = ablation_objective(128).unwrap();
        assert_eq!(rows.len(), 9);
        for network in ["resnet34", "mobilenet_v1", "convnext_tiny"] {
            let of = |obj: &str| {
                rows.iter()
                    .find(|r| r.network == network && r.objective == obj)
                    .unwrap()
            };
            let latency = of("latency");
            let energy = of("energy");
            let edp = of("energy-delay product");
            assert!(latency.time_us <= energy.time_us + 1e-9);
            assert!(energy.energy_uj <= latency.energy_uj + 1e-9);
            assert!(edp.edp <= latency.edp + 1e-9);
            assert!(edp.edp <= energy.edp + 1e-9);
        }
        assert!(ablation_objective_text(&rows).contains("EDP"));
    }
}
