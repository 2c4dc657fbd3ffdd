//! Array geometry and pipeline configuration.

use crate::error::SimError;
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;

/// Which dataflow a simulated array executes.
///
/// The paper's architecture is weight-stationary; the output-stationary
/// variant keeps the accumulators resident in the PEs, streams **both**
/// operands through the transparent-pipeline register files, and drains the
/// accumulators through the south edge after the last reduction index. Both
/// dataflows share the collapse-depth block structure (and therefore the
/// per-cycle register-activity accounting), but differ in their
/// input/output schedules and per-tile latency.
///
/// Serialized as the snake_case wire names `"weight_stationary"` /
/// `"output_stationary"` (the request schemas of `/v1/sweep` and
/// `/v1/simulate` use the same spelling).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Dataflow {
    /// Weights preloaded and stationary; `A` streamed west, results drained
    /// south (the paper's architecture).
    #[default]
    WeightStationary,
    /// Accumulators stationary in the PEs; `A` streamed west, `B` streamed
    /// north, accumulators drained south after the reduction completes.
    OutputStationary,
}

impl Dataflow {
    /// Every supported dataflow, in a stable order.
    pub const ALL: [Dataflow; 2] = [Dataflow::WeightStationary, Dataflow::OutputStationary];

    /// The stable snake_case wire name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::WeightStationary => "weight_stationary",
            Self::OutputStationary => "output_stationary",
        }
    }

    /// Parses a wire name produced by [`Dataflow::as_str`].
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "weight_stationary" => Some(Self::WeightStationary),
            "output_stationary" => Some(Self::OutputStationary),
            _ => None,
        }
    }
}

impl fmt::Display for Dataflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for Dataflow {
    fn to_value(&self) -> Value {
        Value::Str(self.as_str().to_owned())
    }

    fn serialize_into(&self, out: &mut String) {
        self.as_str().serialize_into(out);
    }
}

impl Deserialize for Dataflow {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Str(name) => Self::parse(name).ok_or_else(|| {
                DeError::new(format!(
                    "unknown dataflow {name:?} (expected \"weight_stationary\" or \
                     \"output_stationary\")"
                ))
            }),
            other => Err(DeError::new(format!(
                "dataflow must be a string, got {other:?}"
            ))),
        }
    }
}

/// Geometry and pipeline configuration of one simulated systolic array.
///
/// `rows x cols` PEs, a [`Dataflow`] (weight-stationary by default), and a
/// pipeline collapsing depth `collapse_depth` (`k` in the paper): `k = 1` is
/// normal pipeline mode, `k > 1` merges `k` adjacent pipeline stages in both
/// the horizontal and the vertical direction by making the intermediate
/// registers transparent.
///
/// # Examples
///
/// ```
/// use sa_sim::ArrayConfig;
///
/// let config = ArrayConfig::new(8, 8).with_collapse_depth(2);
/// config.validate()?;
/// assert_eq!(config.row_blocks(), 4);
/// assert_eq!(config.col_blocks(), 4);
/// # Ok::<(), sa_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ArrayConfig {
    /// Number of PE rows (`R`), i.e. the reduction dimension mapped onto the
    /// array.
    pub rows: u32,
    /// Number of PE columns (`C`), i.e. the output dimension mapped onto the
    /// array.
    pub cols: u32,
    /// Pipeline collapsing depth (`k`). `1` means normal pipeline mode.
    pub collapse_depth: u32,
    /// The dataflow the array executes (weight-stationary by default).
    pub dataflow: Dataflow,
}

impl ArrayConfig {
    /// Creates a weight-stationary configuration in normal pipeline mode
    /// (`k = 1`).
    #[must_use]
    pub const fn new(rows: u32, cols: u32) -> Self {
        Self {
            rows,
            cols,
            collapse_depth: 1,
            dataflow: Dataflow::WeightStationary,
        }
    }

    /// Returns a copy with the given pipeline collapsing depth.
    #[must_use]
    pub const fn with_collapse_depth(mut self, k: u32) -> Self {
        self.collapse_depth = k;
        self
    }

    /// Returns a copy executing the given dataflow.
    #[must_use]
    pub const fn with_dataflow(mut self, dataflow: Dataflow) -> Self {
        self.dataflow = dataflow;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if any dimension or the collapse
    /// depth is zero, or if the collapse depth exceeds either array
    /// dimension.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.rows == 0 || self.cols == 0 {
            return Err(SimError::InvalidConfig {
                reason: format!(
                    "array must be at least 1x1, got {}x{}",
                    self.rows, self.cols
                ),
            });
        }
        if self.collapse_depth == 0 {
            return Err(SimError::InvalidConfig {
                reason: "pipeline collapsing depth must be at least 1".to_owned(),
            });
        }
        if self.collapse_depth > self.rows || self.collapse_depth > self.cols {
            return Err(SimError::InvalidConfig {
                reason: format!(
                    "collapse depth {} exceeds the array dimensions {}x{}",
                    self.collapse_depth, self.rows, self.cols
                ),
            });
        }
        Ok(())
    }

    /// Returns `true` if the array operates in normal pipeline mode.
    #[must_use]
    pub fn is_normal_mode(&self) -> bool {
        self.collapse_depth == 1
    }

    /// Number of vertical (reduction) pipeline blocks: `ceil(R / k)`.
    #[must_use]
    pub fn row_blocks(&self) -> u32 {
        self.rows.div_ceil(self.collapse_depth)
    }

    /// Number of horizontal (broadcast) pipeline blocks: `ceil(C / k)`.
    #[must_use]
    pub fn col_blocks(&self) -> u32 {
        self.cols.div_ceil(self.collapse_depth)
    }

    /// Number of cycles needed to preload one tile of weights (one row per
    /// cycle): `R`.
    #[must_use]
    pub fn load_cycles(&self) -> u64 {
        u64::from(self.rows)
    }

    /// Number of compute cycles needed to stream `t` rows of `A` through the
    /// configured pipeline: `T + ceil(R/k) + ceil(C/k) - 2`.
    #[must_use]
    pub fn compute_cycles(&self, t: u64) -> u64 {
        t + u64::from(self.row_blocks()) + u64::from(self.col_blocks()) - 2
    }

    /// Total per-tile latency in cycles, `L(k)` of the paper (Equations 1
    /// and 3 when `k` divides both dimensions):
    /// `R + ceil(R/k) + ceil(C/k) + T - 2`.
    #[must_use]
    pub fn tile_latency(&self, t: u64) -> u64 {
        self.load_cycles() + self.compute_cycles(t)
    }

    /// Per-tile latency of the **output-stationary** dataflow for a tile
    /// that reduces over `n` operand pairs: both operands stream through the
    /// skewed block pipelines (`n + ceil(R/k) + ceil(C/k) - 2` cycles to the
    /// last multiply-accumulate, counting from cycle 0 inclusively), then
    /// the resident accumulators drain through the south edge one row per
    /// cycle (`R` further cycles, the last of which overlaps the cycle after
    /// the final MAC):
    /// `n + ceil(R/k) + ceil(C/k) + R - 2`.
    ///
    /// There is no weight-preload phase — nothing is stationary except the
    /// accumulators — so this is the whole tile, load included.
    #[must_use]
    pub fn os_tile_cycles(&self, n: u64) -> u64 {
        n + u64::from(self.row_blocks()) + u64::from(self.col_blocks()) + u64::from(self.rows) - 2
    }

    /// Total number of PEs.
    #[must_use]
    pub fn pe_count(&self) -> u64 {
        u64::from(self.rows) * u64::from(self.cols)
    }
}

impl fmt::Display for ArrayConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.dataflow {
            Dataflow::WeightStationary => {
                write!(f, "{}x{} (k={})", self.rows, self.cols, self.collapse_depth)
            }
            Dataflow::OutputStationary => write!(
                f,
                "{}x{} (k={}, {})",
                self.rows, self.cols, self.collapse_depth, self.dataflow
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_catches_bad_configs() {
        assert!(ArrayConfig::new(0, 4).validate().is_err());
        assert!(ArrayConfig::new(4, 0).validate().is_err());
        assert!(ArrayConfig::new(4, 4)
            .with_collapse_depth(0)
            .validate()
            .is_err());
        assert!(ArrayConfig::new(4, 4)
            .with_collapse_depth(8)
            .validate()
            .is_err());
        assert!(ArrayConfig::new(4, 4)
            .with_collapse_depth(4)
            .validate()
            .is_ok());
    }

    #[test]
    fn block_counts_use_ceiling_division() {
        let c = ArrayConfig::new(8, 8).with_collapse_depth(4);
        assert_eq!(c.row_blocks(), 2);
        assert_eq!(c.col_blocks(), 2);
        let c = ArrayConfig::new(6, 6).with_collapse_depth(4);
        assert_eq!(c.row_blocks(), 2);
        assert_eq!(c.col_blocks(), 2);
    }

    #[test]
    fn normal_mode_latency_matches_equation_1() {
        // L = 2R + C + T - 2.
        let c = ArrayConfig::new(132, 132);
        assert!(c.is_normal_mode());
        assert_eq!(c.tile_latency(196), 2 * 132 + 132 + 196 - 2);
    }

    #[test]
    fn shallow_mode_latency_matches_equation_3() {
        // L(k) = R + R/k + C/k + T - 2.
        let c = ArrayConfig::new(132, 132).with_collapse_depth(4);
        assert_eq!(c.tile_latency(49), 132 + 33 + 33 + 49 - 2);
        let c = ArrayConfig::new(128, 128).with_collapse_depth(2);
        assert_eq!(c.tile_latency(100), 128 + 64 + 64 + 100 - 2);
    }

    #[test]
    fn display_and_pe_count() {
        let c = ArrayConfig::new(16, 8).with_collapse_depth(2);
        assert_eq!(c.to_string(), "16x8 (k=2)");
        assert_eq!(c.pe_count(), 128);
        let os = c.with_dataflow(Dataflow::OutputStationary);
        assert_eq!(os.to_string(), "16x8 (k=2, output_stationary)");
    }

    #[test]
    fn dataflow_parses_and_serializes_snake_case_names() {
        for df in Dataflow::ALL {
            assert_eq!(Dataflow::parse(df.as_str()), Some(df));
            assert_eq!(df.to_value(), Value::Str(df.as_str().to_owned()));
            assert_eq!(Dataflow::from_value(&df.to_value()), Ok(df));
            // The streamed rendering is the tree's, bare and inside a
            // derived struct.
            let mut streamed = String::new();
            df.serialize_into(&mut streamed);
            assert_eq!(streamed, format!("\"{}\"", df.as_str()));
            let mut tree = String::new();
            df.to_value().serialize_into(&mut tree);
            assert_eq!(streamed, tree);
            let config = ArrayConfig::new(8, 4).with_dataflow(df);
            let (mut streamed, mut tree) = (String::new(), String::new());
            config.serialize_into(&mut streamed);
            config.to_value().serialize_into(&mut tree);
            assert_eq!(streamed, tree);
        }
        assert_eq!(Dataflow::default(), Dataflow::WeightStationary);
        assert!(Dataflow::parse("input_stationary").is_none());
        assert!(Dataflow::from_value(&Value::Str("nope".to_owned())).is_err());
        assert!(Dataflow::from_value(&Value::Int(1)).is_err());
        // The config round-trips through the derive with the dataflow field.
        let config = ArrayConfig::new(8, 4)
            .with_collapse_depth(2)
            .with_dataflow(Dataflow::OutputStationary);
        let decoded = ArrayConfig::from_value(&config.to_value()).unwrap();
        assert_eq!(decoded, config);
    }

    #[test]
    fn output_stationary_tile_cycles_cover_stream_and_drain() {
        // N + ceil(R/k) + ceil(C/k) + R - 2, no weight preload.
        let c = ArrayConfig::new(4, 4).with_collapse_depth(2);
        assert_eq!(c.os_tile_cycles(16), 16 + 2 + 2 + 4 - 2);
        let c = ArrayConfig::new(1, 1);
        assert_eq!(c.os_tile_cycles(1), 2);
        let c = ArrayConfig::new(6, 3).with_collapse_depth(3);
        assert_eq!(c.os_tile_cycles(10), 10 + 2 + 1 + 6 - 2);
    }
}
