//! Cycle-by-cycle tracing of a tile execution.
//!
//! RTL debugging relies on waveforms; the closest equivalent for this
//! simulator is a per-cycle trace of what enters the west edge, what leaves
//! the south edge and how many PEs did useful work. [`trace_tile`] runs one
//! tile exactly like [`Simulator::run_tile`](crate::Simulator) but records a
//! [`TileTrace`] that can be rendered as a compact text "waveform" — handy
//! in tests, examples and when extending the dataflow.

use crate::array::SystolicArray;
use crate::config::ArrayConfig;
use crate::dataflow::{InputFeeder, OutputCollector};
use crate::error::SimError;
use crate::stats::RunStats;
use gemm::Matrix;
use serde::{Deserialize, Serialize};

/// What happened in one compute cycle of a traced tile execution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleRecord {
    /// Compute-cycle index (0-based, after the weight-load phase).
    pub cycle: u64,
    /// Operands entering each array row from the west edge (`None` when a
    /// row's stream is idle this cycle).
    pub west_inputs: Vec<Option<i32>>,
    /// Results registered at the south edge of each column this cycle.
    pub south_outputs: Vec<Option<i64>>,
    /// Number of rows receiving a valid operand this cycle.
    pub active_rows: usize,
    /// Number of columns producing a valid result this cycle.
    pub producing_cols: usize,
}

/// The full trace of one tile execution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileTrace {
    /// The array configuration that was traced.
    pub config: ArrayConfig,
    /// Number of streamed `A` rows.
    pub stream_length: u64,
    /// Per-cycle records, in order.
    pub cycles: Vec<CycleRecord>,
}

impl TileTrace {
    /// Number of recorded compute cycles.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cycles.len()
    }

    /// Returns `true` if no cycles were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cycles.is_empty()
    }

    /// The cycle in which the first result reached the south edge.
    #[must_use]
    pub fn first_output_cycle(&self) -> Option<u64> {
        self.cycles
            .iter()
            .find(|c| c.producing_cols > 0)
            .map(|c| c.cycle)
    }

    /// Renders the trace as a compact text table: one line per cycle, one
    /// character per row/column lane (`.` idle, `#` active).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "trace of {} tile, {} streamed rows, {} compute cycles\n",
            self.config,
            self.stream_length,
            self.cycles.len()
        ));
        out.push_str("cycle  west lanes / south lanes\n");
        for record in &self.cycles {
            let west: String = record
                .west_inputs
                .iter()
                .map(|v| if v.is_some() { '#' } else { '.' })
                .collect();
            let south: String = record
                .south_outputs
                .iter()
                .map(|v| if v.is_some() { '#' } else { '.' })
                .collect();
            out.push_str(&format!("{:>5}  {west} / {south}\n", record.cycle));
        }
        out
    }
}

/// Runs one weight-stationary tile cycle-accurately while recording a
/// [`TileTrace`].
///
/// Produces exactly the same output matrix and statistics as
/// [`Simulator::run_tile`](crate::Simulator::run_tile).
///
/// # Errors
///
/// Returns the same errors as
/// [`Simulator::run_tile`](crate::Simulator::run_tile), and
/// [`SimError::InvalidConfig`] if `config` is not
/// [`Dataflow::WeightStationary`](crate::Dataflow::WeightStationary).
pub fn trace_tile(
    config: ArrayConfig,
    a_sub: &Matrix<i32>,
    b_sub: &Matrix<i32>,
) -> Result<(Matrix<i64>, RunStats, TileTrace), SimError> {
    let mut array = SystolicArray::new(config)?;
    array.load_weights(b_sub)?;
    let feeder = InputFeeder::new(a_sub, config)?;
    let t = a_sub.rows();
    let mut collector = OutputCollector::new(config, t);
    let mut trace = TileTrace {
        config,
        stream_length: t as u64,
        cycles: Vec::new(),
    };
    for cycle in 0..config.compute_cycles(t as u64) {
        // The per-record vectors double as the staging buffers of the
        // allocation-free core and are then moved into the trace.
        let mut west = vec![None; config.rows as usize];
        feeder.west_inputs_into(cycle, &mut west);
        let mut south = vec![None; config.cols as usize];
        array.step_into(&west, &mut south)?;
        collector.collect(cycle, &south)?;
        trace.cycles.push(CycleRecord {
            cycle,
            active_rows: west.iter().filter(|v| v.is_some()).count(),
            producing_cols: south.iter().filter(|v| v.is_some()).count(),
            west_inputs: west,
            south_outputs: south,
        });
    }
    let mut stats = array.stats();
    stats.tiles = 1;
    Ok((collector.into_output()?, stats, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use gemm::rng::SplitMix64;

    fn operands(t: usize, n: usize, m: usize) -> (Matrix<i32>, Matrix<i32>) {
        let mut rng = SplitMix64::new(17);
        (
            Matrix::random(t, n, &mut rng, -9, 9),
            Matrix::random(n, m, &mut rng, -9, 9),
        )
    }

    #[test]
    fn traced_execution_matches_the_plain_simulation() {
        let config = ArrayConfig::new(4, 4).with_collapse_depth(2);
        let (a, b) = operands(5, 4, 4);
        let (output, stats, trace) = trace_tile(config, &a, &b).unwrap();
        let plain = Simulator::new(config).unwrap().run_tile(&a, &b).unwrap();
        assert_eq!(output, plain.output);
        assert_eq!(stats, plain.stats);
        assert_eq!(trace.len() as u64, config.compute_cycles(5));
        assert!(!trace.is_empty());
    }

    #[test]
    fn first_output_appears_after_the_fill_latency() {
        let config = ArrayConfig::new(4, 4);
        let (a, b) = operands(3, 4, 4);
        let (_, _, trace) = trace_tile(config, &a, &b).unwrap();
        // Row blocks - 1 = 3 cycles of fill before column 0 produces.
        assert_eq!(trace.first_output_cycle(), Some(3));
        let shallow = ArrayConfig::new(4, 4).with_collapse_depth(4);
        let (_, _, trace) = trace_tile(shallow, &a, &b).unwrap();
        assert_eq!(trace.first_output_cycle(), Some(0));
    }

    #[test]
    fn render_shows_one_line_per_cycle() {
        let config = ArrayConfig::new(2, 2);
        let (a, b) = operands(2, 2, 2);
        let (_, _, trace) = trace_tile(config, &a, &b).unwrap();
        let text = trace.render();
        assert_eq!(text.lines().count(), trace.len() + 2);
        assert!(text.contains('#'));
        assert!(text.contains('/'));
    }

    #[test]
    fn output_stationary_configurations_are_rejected() {
        // The trace steps the weight-stationary array, whose statistics
        // are not an output-stationary tile's.
        let config = ArrayConfig::new(4, 4)
            .with_collapse_depth(2)
            .with_dataflow(crate::Dataflow::OutputStationary);
        for (a, b) in [operands(4, 4, 4), operands(4, 6, 4)] {
            assert!(matches!(
                trace_tile(config, &a, &b),
                Err(SimError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn mismatched_operands_are_rejected() {
        let config = ArrayConfig::new(4, 4);
        let (a, _) = operands(3, 4, 4);
        let bad_b = Matrix::<i32>::zeros(3, 4);
        assert!(trace_tile(config, &a, &bad_b).is_err());
    }
}
