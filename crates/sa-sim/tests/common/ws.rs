//! The weight-stationary array-of-structs reference: a faithful
//! reimplementation of the cycle kernel the simulator shipped with before
//! the SoA rearchitecture — per-PE state in dense vectors, the naive scan
//! that evaluates every pipeline block of every column every cycle, and the
//! same statistics accounting.

use gemm::Matrix;
use sa_sim::{ArrayConfig, RunStats};

/// Carry-save arithmetic, reproduced verbatim from the simulator so the
/// reference resolves partial sums through the identical datapath.
#[derive(Clone, Copy, Default)]
struct CarrySave {
    sum: i64,
    carry: i64,
}

impl CarrySave {
    fn from_binary(value: i64) -> Self {
        Self {
            sum: value,
            carry: 0,
        }
    }

    fn add(self, operand: i64) -> Self {
        let a = self.sum as u64;
        let b = self.carry as u64;
        let c = operand as u64;
        let sum = a ^ b ^ c;
        let carry = ((a & b) | (a & c) | (b & c)) << 1;
        Self {
            sum: sum as i64,
            carry: carry as i64,
        }
    }

    fn resolve(self) -> i64 {
        self.sum.wrapping_add(self.carry)
    }
}

/// The pre-refactor array model: one weight per PE in a row-major
/// vector, full-size horizontal/vertical register files with `Vec<bool>`
/// validity, and a `step` that clones the register files and scans
/// every (column, row block) pair every cycle.
pub struct LegacyArray {
    config: ArrayConfig,
    weights: Vec<i64>,
    h_regs: Vec<i32>,
    h_valid: Vec<bool>,
    v_regs: Vec<i64>,
    v_valid: Vec<bool>,
    stats: RunStats,
}

impl LegacyArray {
    pub fn new(config: ArrayConfig) -> Self {
        let n = (config.rows * config.cols) as usize;
        Self {
            config,
            weights: vec![0; n],
            h_regs: vec![0; n],
            h_valid: vec![false; n],
            v_regs: vec![0; n],
            v_valid: vec![false; n],
            stats: RunStats::default(),
        }
    }

    pub fn stats(&self) -> RunStats {
        self.stats
    }

    fn index(&self, row: usize, col: usize) -> usize {
        row * self.config.cols as usize + col
    }

    pub fn load_weights(&mut self, weights: &Matrix<i32>) {
        let rows = self.config.rows as usize;
        let cols = self.config.cols as usize;
        assert_eq!(weights.rows(), rows);
        assert_eq!(weights.cols(), cols);
        self.h_regs.fill(0);
        self.h_valid.fill(false);
        self.v_regs.fill(0);
        self.v_valid.fill(false);
        for row in 0..rows {
            for col in 0..cols {
                let idx = self.index(row, col);
                self.weights[idx] = i64::from(weights[(row, col)]);
            }
            self.stats.load_cycles += 1;
        }
    }

    /// One cycle of the pre-refactor naive scan.
    pub fn step(&mut self, west_inputs: &[Option<i32>]) -> Vec<Option<i64>> {
        let rows = self.config.rows as usize;
        let cols = self.config.cols as usize;
        let k = self.config.collapse_depth as usize;
        let row_blocks = self.config.row_blocks() as usize;
        let col_blocks = self.config.col_blocks() as usize;
        assert_eq!(west_inputs.len(), rows);

        // The operand visible to every (row, column block) this cycle.
        let mut operands = vec![0i32; rows * col_blocks];
        let mut operand_valid = vec![false; rows * col_blocks];
        for row in 0..rows {
            for cb in 0..col_blocks {
                let (value, valid) = if cb == 0 {
                    (west_inputs[row].unwrap_or(0), west_inputs[row].is_some())
                } else {
                    let prev_last_col = cb * k - 1;
                    let idx = self.index(row, prev_last_col);
                    (self.h_regs[idx], self.h_valid[idx])
                };
                operands[row * col_blocks + cb] = value;
                operand_valid[row * col_blocks + cb] = valid;
            }
        }

        // Vertical reduction, evaluating every block of every column.
        let mut next_v = self.v_regs.clone();
        let mut next_v_valid = self.v_valid.clone();
        let mut outputs = vec![None; cols];
        for (col, output) in outputs.iter_mut().enumerate() {
            let cb = col / k;
            for rb in 0..row_blocks {
                let first_row = rb * k;
                let last_row = ((rb + 1) * k).min(rows) - 1;
                let incoming = if rb == 0 {
                    0i64
                } else {
                    self.v_regs[self.index(first_row - 1, col)]
                };
                let mut acc = CarrySave::from_binary(incoming);
                let mut block_valid = false;
                for row in first_row..=last_row {
                    let op_idx = row * col_blocks + cb;
                    let product = self.weights[self.index(row, col)] * i64::from(operands[op_idx]);
                    acc = acc.add(product);
                    if operand_valid[op_idx] {
                        block_valid = true;
                        self.stats.macs += 1;
                    }
                }
                let resolved = acc.resolve();
                let reg_idx = self.index(last_row, col);
                next_v[reg_idx] = resolved;
                next_v_valid[reg_idx] = block_valid;
                if rb == row_blocks - 1 {
                    *output = block_valid.then_some(resolved);
                }
            }
        }

        // Horizontal propagation: only block-last-column registers clock.
        let mut next_h = self.h_regs.clone();
        let mut next_h_valid = self.h_valid.clone();
        for row in 0..rows {
            for cb in 0..col_blocks {
                let last_col = ((cb + 1) * k).min(cols) - 1;
                let idx = self.index(row, last_col);
                next_h[idx] = operands[row * col_blocks + cb];
                next_h_valid[idx] = operand_valid[row * col_blocks + cb];
            }
        }

        self.h_regs = next_h;
        self.h_valid = next_h_valid;
        self.v_regs = next_v;
        self.v_valid = next_v_valid;
        self.stats.compute_cycles += 1;
        self.stats.pe_cycles += (rows * cols) as u64;
        let clocked = (rows * col_blocks + cols * row_blocks) as u64;
        let total_regs = 2 * (rows * cols) as u64;
        self.stats.clocked_register_events += clocked;
        self.stats.gated_register_events += total_regs - clocked;

        outputs
    }
}
