//! Affine quantization of floating-point tensors to integers.
//!
//! The paper evaluates both arrays on "32-bit quantized inputs and weights".
//! This module provides the standard affine (scale + zero-point) quantization
//! scheme so that the examples can start from floating-point data, quantize
//! it, run the integer GEMM on the simulated array and dequantize the result.

use crate::error::GemmError;
use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// Affine quantization parameters mapping real values to integers via
/// `q = round(x / scale) + zero_point`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantParams {
    /// Real-valued step size of one integer level.
    pub scale: f64,
    /// Integer value that represents real zero.
    pub zero_point: i32,
    /// Number of bits of the integer representation (determines clamping).
    pub bits: u32,
}

impl QuantParams {
    /// Chooses symmetric quantization parameters that cover `[-max_abs, max_abs]`
    /// with the given bit width.
    ///
    /// # Errors
    ///
    /// Returns [`GemmError::InvalidConvolution`] if `bits` is 0 or greater
    /// than 32, or `max_abs` is not positive and finite.
    pub fn symmetric(max_abs: f64, bits: u32) -> Result<Self, GemmError> {
        if bits == 0 || bits > 32 {
            return Err(GemmError::InvalidConvolution {
                reason: format!("unsupported quantization width {bits}"),
            });
        }
        if max_abs <= 0.0 || !max_abs.is_finite() {
            return Err(GemmError::InvalidConvolution {
                reason: "quantization range must be positive and finite".to_owned(),
            });
        }
        let levels = 2f64.powi(bits as i32 - 1) - 1.0;
        Ok(Self {
            scale: max_abs / levels,
            zero_point: 0,
            bits,
        })
    }

    /// Largest representable quantized value.
    #[must_use]
    pub fn q_max(&self) -> i32 {
        if self.bits >= 32 {
            i32::MAX
        } else {
            (1i64 << (self.bits - 1)) as i32 - 1
        }
    }

    /// Smallest representable quantized value.
    #[must_use]
    pub fn q_min(&self) -> i32 {
        if self.bits >= 32 {
            i32::MIN
        } else {
            -((1i64 << (self.bits - 1)) as i32)
        }
    }

    /// Quantizes one real value, clamping to the representable range.
    #[must_use]
    pub fn quantize(&self, x: f64) -> i32 {
        let q = (x / self.scale).round() as i64 + i64::from(self.zero_point);
        q.clamp(i64::from(self.q_min()), i64::from(self.q_max())) as i32
    }

    /// Dequantizes one integer value back to a real number.
    #[must_use]
    pub fn dequantize(&self, q: i32) -> f64 {
        (f64::from(q) - f64::from(self.zero_point)) * self.scale
    }

    /// Quantizes a whole matrix of real values.
    #[must_use]
    pub fn quantize_matrix(&self, values: &Matrix<f64>) -> Matrix<i32> {
        values.map(|v| self.quantize(v))
    }

    /// Dequantizes an accumulated (i64) GEMM output given the quantization
    /// parameters of both operands: the effective scale of a product is the
    /// product of the operand scales.
    #[must_use]
    pub fn dequantize_product(acc: i64, a: &QuantParams, b: &QuantParams) -> f64 {
        acc as f64 * a.scale * b.scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::multiply;
    use crate::rng::SplitMix64;

    #[test]
    fn symmetric_parameters_cover_the_range() {
        let p = QuantParams::symmetric(4.0, 8).unwrap();
        assert_eq!(p.q_max(), 127);
        assert_eq!(p.q_min(), -128);
        assert_eq!(p.quantize(4.0), 127);
        assert_eq!(p.quantize(-4.0), -127);
        assert_eq!(p.quantize(0.0), 0);
        // Values outside the range clamp.
        assert_eq!(p.quantize(100.0), 127);
        assert_eq!(p.quantize(-100.0), -128);
    }

    #[test]
    fn thirty_two_bit_parameters_do_not_overflow() {
        let p = QuantParams::symmetric(1.0, 32).unwrap();
        assert_eq!(p.q_max(), i32::MAX);
        assert_eq!(p.q_min(), i32::MIN);
        let q = p.quantize(0.5);
        assert!((p.dequantize(q) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn round_trip_error_is_bounded_by_half_a_step() {
        let p = QuantParams::symmetric(2.0, 16).unwrap();
        let mut rng = SplitMix64::new(5);
        for _ in 0..1_000 {
            let x = (rng.next_f64() - 0.5) * 4.0;
            let err = (p.dequantize(p.quantize(x)) - x).abs();
            assert!(
                err <= p.scale / 2.0 + 1e-12,
                "error {err} exceeds half step"
            );
        }
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(QuantParams::symmetric(1.0, 0).is_err());
        assert!(QuantParams::symmetric(1.0, 33).is_err());
        assert!(QuantParams::symmetric(0.0, 8).is_err());
        assert!(QuantParams::symmetric(f64::NAN, 8).is_err());
    }

    #[test]
    fn quantized_gemm_approximates_real_gemm() {
        let mut rng = SplitMix64::new(42);
        let a_real = Matrix::from_fn(4, 6, |_, _| rng.next_f64() * 2.0 - 1.0);
        let b_real = Matrix::from_fn(6, 3, |_, _| rng.next_f64() * 2.0 - 1.0);
        let pa = QuantParams::symmetric(1.0, 16).unwrap();
        let pb = QuantParams::symmetric(1.0, 16).unwrap();
        let a_q = pa.quantize_matrix(&a_real);
        let b_q = pb.quantize_matrix(&b_real);
        let product = multiply(&a_q, &b_q).unwrap();
        for t in 0..4 {
            for m in 0..3 {
                let exact: f64 = (0..6).map(|n| a_real[(t, n)] * b_real[(n, m)]).sum();
                let approx = QuantParams::dequantize_product(product[(t, m)], &pa, &pb);
                assert!(
                    (exact - approx).abs() < 1e-3,
                    "quantized GEMM too far from real GEMM: {exact} vs {approx}"
                );
            }
        }
    }
}
