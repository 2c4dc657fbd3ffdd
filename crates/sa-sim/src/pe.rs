//! The configurable processing element.

use serde::{Deserialize, Serialize};

/// One weight-stationary processing element of the ArrayFlex array.
///
/// Each PE holds one weight, a multiplier, a 3:2 carry-save stage, a
/// carry-propagate adder and two configuration bits that control whether its
/// horizontal (operand) and vertical (partial-sum) pipeline registers are
/// transparent. The surrounding [`SystolicArray`](crate::SystolicArray)
/// keeps all of that state in flat structure-of-arrays buffers for
/// simulation throughput and materializes `ProcessingElement` values on
/// demand (see [`SystolicArray::pe`](crate::SystolicArray::pe)) — this
/// type is the per-PE *view* used by tests, examples and documentation,
/// and the reference implementation of the PE datapath.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcessingElement {
    weight: i32,
    horizontal_transparent: bool,
    vertical_transparent: bool,
}

impl ProcessingElement {
    /// Creates an idle PE with a zero weight and opaque (normal) registers.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads a weight into the stationary register.
    pub fn load_weight(&mut self, weight: i32) {
        self.weight = weight;
    }

    /// The currently loaded weight.
    #[must_use]
    pub fn weight(&self) -> i32 {
        self.weight
    }

    /// Sets the two per-PE configuration bits. They are loaded in parallel
    /// with the weights, as described in Section III-B of the paper.
    pub fn configure(&mut self, horizontal_transparent: bool, vertical_transparent: bool) {
        self.horizontal_transparent = horizontal_transparent;
        self.vertical_transparent = vertical_transparent;
    }

    /// Whether the PE's horizontal (operand) register is transparent, i.e.
    /// bypassed and clock-gated.
    #[must_use]
    pub fn horizontal_transparent(&self) -> bool {
        self.horizontal_transparent
    }

    /// Whether the PE's vertical (partial-sum) register is transparent, i.e.
    /// bypassed and clock-gated.
    #[must_use]
    pub fn vertical_transparent(&self) -> bool {
        self.vertical_transparent
    }

    /// Performs the PE's multiplication: the incoming operand times the
    /// stationary weight, widened to the 64-bit accumulation width.
    #[must_use]
    pub fn multiply(&self, operand: i32) -> i64 {
        i64::from(operand) * i64::from(self.weight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_load_and_multiply() {
        let mut pe = ProcessingElement::new();
        assert_eq!(pe.weight(), 0);
        pe.load_weight(-7);
        assert_eq!(pe.weight(), -7);
        assert_eq!(pe.multiply(3), -21);
        // Full 32-bit operands do not overflow the 64-bit product.
        pe.load_weight(i32::MAX);
        assert_eq!(
            pe.multiply(i32::MAX),
            i64::from(i32::MAX) * i64::from(i32::MAX)
        );
        assert_eq!(
            pe.multiply(i32::MIN),
            i64::from(i32::MAX) * i64::from(i32::MIN)
        );
    }

    #[test]
    fn configuration_bits_are_independent() {
        let mut pe = ProcessingElement::new();
        assert!(!pe.horizontal_transparent());
        assert!(!pe.vertical_transparent());
        pe.configure(true, false);
        assert!(pe.horizontal_transparent());
        assert!(!pe.vertical_transparent());
        pe.configure(false, true);
        assert!(!pe.horizontal_transparent());
        assert!(pe.vertical_transparent());
    }
}
