//! The multiply-accumulate lane kernels the simulator's array kernels and
//! the reference GEMM run on.
//!
//! Both kernels accumulate widened `i32 x i32 -> i64` products into an
//! `i64` lane with wrapping addition — the arithmetic of the PEs' adders,
//! and of the reference GEMM, so a simulated product and its reference
//! agree bit for bit even when the accumulation wraps:
//!
//! * [`mac`]: `acc[i] += a[i] * b[i]`;
//! * [`mac_scaled`]: `acc[i] += x[i] * s` for one scalar factor `s`.
//!
//! There is one arithmetic source per kernel: a plain scalar loop. On the
//! baseline x86-64 target it compiles to scalar code, since SSE2 has no
//! signed 32x32->64 vector multiply. So on x86-64 each kernel also compiles
//! the same loop inside a private `#[target_feature(enable = "avx2")]`
//! function, where LLVM vectorizes it four lanes wide, and picks that body
//! at run time when `is_x86_feature_detected!("avx2")` holds. Elsewhere the
//! scalar body is the only path. [`kernel`] reports which one runs.
//!
//! This is the only module of the crate allowed to use `unsafe` (the crate
//! root is `#![deny(unsafe_code)]`): calling a `#[target_feature]` function
//! is unsafe because the CPU must support the feature, which the detection
//! right before each call establishes.
#![allow(unsafe_code)]

/// `acc[i] = acc[i].wrapping_add(a[i] * b[i])` for every lane, with the
/// product widened to `i64` (it cannot overflow; only the sum wraps).
///
/// # Panics
///
/// Panics if the three slices differ in length.
///
/// # Examples
///
/// ```
/// let mut acc = [1i64, i64::MAX];
/// gemm::lanes::mac(&mut acc, &[2, 1], &[3, 1]);
/// assert_eq!(acc, [7, i64::MIN]);
/// ```
#[inline]
pub fn mac(acc: &mut [i64], a: &[i32], b: &[i32]) {
    assert!(
        a.len() == acc.len() && b.len() == acc.len(),
        "lane lengths differ: acc {}, a {}, b {}",
        acc.len(),
        a.len(),
        b.len()
    );
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        // SAFETY: the CPU supports AVX2 (checked just above), the only
        // requirement of `mac_avx2`.
        unsafe { mac_avx2(acc, a, b) };
        return;
    }
    mac_scalar(acc, a, b);
}

/// `acc[i] = acc[i].wrapping_add(x[i] * s)` for every lane, with the
/// product widened to `i64`.
///
/// # Panics
///
/// Panics if the two slices differ in length.
///
/// # Examples
///
/// ```
/// let mut acc = [0i64, 10];
/// gemm::lanes::mac_scaled(&mut acc, &[4, -1], 3);
/// assert_eq!(acc, [12, 7]);
/// ```
#[inline]
pub fn mac_scaled(acc: &mut [i64], x: &[i32], s: i32) {
    assert_eq!(x.len(), acc.len(), "lane lengths differ");
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        // SAFETY: the CPU supports AVX2 (checked just above), the only
        // requirement of `mac_scaled_avx2`.
        unsafe { mac_scaled_avx2(acc, x, s) };
        return;
    }
    mac_scaled_scalar(acc, x, s);
}

/// The body [`mac`] and [`mac_scaled`] run on this CPU: `"avx2"` or
/// `"scalar"`.
#[must_use]
pub fn kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        return "avx2";
    }
    "scalar"
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn avx2() -> bool {
    std::is_x86_feature_detected!("avx2")
}

/// The one arithmetic source of [`mac`]: the oracle, the path of CPUs
/// without AVX2, and (inlined) the body of the AVX2 variant.
#[inline(always)]
fn mac_scalar(acc: &mut [i64], a: &[i32], b: &[i32]) {
    for ((acc, &a), &b) in acc.iter_mut().zip(a).zip(b) {
        *acc = acc.wrapping_add(i64::from(a) * i64::from(b));
    }
}

/// The one arithmetic source of [`mac_scaled`].
#[inline(always)]
fn mac_scaled_scalar(acc: &mut [i64], x: &[i32], s: i32) {
    let s = i64::from(s);
    for (acc, &x) in acc.iter_mut().zip(x) {
        *acc = acc.wrapping_add(i64::from(x) * s);
    }
}

/// [`mac_scalar`] compiled with AVX2 enabled.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mac_avx2(acc: &mut [i64], a: &[i32], b: &[i32]) {
    mac_scalar(acc, a, b);
}

/// [`mac_scaled_scalar`] compiled with AVX2 enabled.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mac_scaled_avx2(acc: &mut [i64], x: &[i32], s: i32) {
    mac_scaled_scalar(acc, x, s);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Operands that hit the extremes half of the time.
    fn operand() -> impl Strategy<Value = i32> {
        (0u8..6, any::<i32>()).prop_map(|(pick, value)| match pick {
            0 => i32::MIN,
            1 => i32::MAX,
            2 => -1,
            _ => value,
        })
    }

    /// Accumulators near both ends of `i64`, so adding one product can
    /// wrap, plus ordinary values.
    fn accumulator() -> impl Strategy<Value = i64> {
        (0u8..3, 0i64..1 << 62, any::<i64>()).prop_map(|(pick, offset, value)| match pick {
            0 => i64::MAX - offset,
            1 => i64::MIN + offset,
            _ => value,
        })
    }

    /// Lanes of one length in `0..=67`: every vector tail length of the
    /// AVX2 body, around one and two 32-byte blocks.
    fn lanes() -> impl Strategy<Value = (Vec<i64>, Vec<i32>, Vec<i32>)> {
        (0usize..=67).prop_flat_map(|len| {
            (
                proptest::collection::vec(accumulator(), len),
                proptest::collection::vec(operand(), len),
                proptest::collection::vec(operand(), len),
            )
        })
    }

    proptest! {
        #[test]
        fn mac_equals_the_scalar_loop((acc, a, b) in lanes()) {
            let mut expected = acc.clone();
            for i in 0..expected.len() {
                expected[i] = expected[i].wrapping_add(i64::from(a[i]) * i64::from(b[i]));
            }
            let mut got = acc;
            mac(&mut got, &a, &b);
            prop_assert_eq!(got, expected);
        }

        #[test]
        fn mac_scaled_equals_the_scalar_loop((acc, x, _) in lanes(), s in operand()) {
            let mut expected = acc.clone();
            for i in 0..expected.len() {
                expected[i] = expected[i].wrapping_add(i64::from(x[i]) * i64::from(s));
            }
            let mut got = acc;
            mac_scaled(&mut got, &x, s);
            prop_assert_eq!(got, expected);
        }
    }

    #[test]
    #[should_panic(expected = "lane lengths differ")]
    fn mismatched_lanes_are_rejected() {
        mac(&mut [0; 3], &[1; 3], &[1; 2]);
    }

    #[test]
    fn kernel_names_the_dispatched_body() {
        #[cfg(target_arch = "x86_64")]
        let expected = if std::is_x86_feature_detected!("avx2") {
            "avx2"
        } else {
            "scalar"
        };
        #[cfg(not(target_arch = "x86_64"))]
        let expected = "scalar";
        assert_eq!(kernel(), expected);
    }
}
