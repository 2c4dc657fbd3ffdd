//! Strongly-typed physical units used throughout the hardware model.
//!
//! All quantities are stored as `f64` in a fixed canonical unit (picoseconds,
//! gigahertz, milliwatts, femtojoules, square micrometres). Newtypes keep the
//! different magnitudes from being mixed up accidentally (e.g. a clock period
//! cannot be added to an energy), which matters a lot in a model that juggles
//! cycle counts, periods, frequencies, powers and energies.
//!
//! # Examples
//!
//! ```
//! use hw_model::units::{Gigahertz, Picoseconds};
//!
//! let clk = Gigahertz::new(2.0);
//! assert_eq!(clk.period(), Picoseconds::new(500.0));
//! assert_eq!(Picoseconds::new(500.0).frequency(), clk);
//! ```

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Implements the shared boilerplate for an `f64`-backed unit newtype.
macro_rules! unit_newtype {
    ($(#[$meta:meta])* $name:ident, $suffix:expr) => {
        $(#[$meta])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
        pub struct $name(f64);

        impl $name {
            /// Creates a new value from a raw `f64` in the canonical unit.
            #[must_use]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the zero value.
            #[must_use]
            pub const fn zero() -> Self {
                Self(0.0)
            }

            /// Returns the raw value in the canonical unit.
            #[must_use]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns `true` if the value is finite (not NaN or infinite).
            #[must_use]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Returns the maximum of `self` and `other`.
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the minimum of `self` and `other`.
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:.4} {}", self.0, $suffix)
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            type Output = f64;
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }
    };
}

unit_newtype!(
    /// A duration expressed in picoseconds (ps).
    ///
    /// Picoseconds are the natural granularity of standard-cell gate delays
    /// in a 28 nm technology, so they are the canonical time unit of the
    /// timing model.
    Picoseconds,
    "ps"
);

unit_newtype!(
    /// A duration expressed in nanoseconds (ns).
    Nanoseconds,
    "ns"
);

unit_newtype!(
    /// A duration expressed in microseconds (us); used for whole-layer and
    /// whole-network execution times.
    Microseconds,
    "us"
);

unit_newtype!(
    /// A clock frequency expressed in gigahertz (GHz).
    Gigahertz,
    "GHz"
);

unit_newtype!(
    /// A power expressed in milliwatts (mW).
    Milliwatts,
    "mW"
);

unit_newtype!(
    /// An energy expressed in microjoules (uJ); used for whole-run energies.
    Microjoules,
    "uJ"
);

unit_newtype!(
    /// An energy expressed in femtojoules (fJ); used for per-event switched
    /// energies of datapath components.
    Femtojoules,
    "fJ"
);

unit_newtype!(
    /// An area expressed in square micrometres (um^2).
    SquareMicrons,
    "um^2"
);

impl Picoseconds {
    /// Converts this duration to nanoseconds.
    #[must_use]
    pub fn to_nanoseconds(self) -> Nanoseconds {
        Nanoseconds::new(self.0 / 1_000.0)
    }

    /// Converts this duration to microseconds.
    #[must_use]
    pub fn to_microseconds(self) -> Microseconds {
        Microseconds::new(self.0 / 1_000_000.0)
    }

    /// Returns the clock frequency whose period equals this duration.
    ///
    /// # Panics
    ///
    /// Panics if the duration is zero or negative, because a clock period
    /// must be strictly positive.
    #[must_use]
    pub fn frequency(self) -> Gigahertz {
        assert!(self.0 > 0.0, "clock period must be strictly positive");
        Gigahertz::new(1_000.0 / self.0)
    }
}

impl Nanoseconds {
    /// Converts this duration to picoseconds.
    #[must_use]
    pub fn to_picoseconds(self) -> Picoseconds {
        Picoseconds::new(self.0 * 1_000.0)
    }

    /// Converts this duration to microseconds.
    #[must_use]
    pub fn to_microseconds(self) -> Microseconds {
        Microseconds::new(self.0 / 1_000.0)
    }
}

impl Microseconds {
    /// Converts this duration to nanoseconds.
    #[must_use]
    pub fn to_nanoseconds(self) -> Nanoseconds {
        Nanoseconds::new(self.0 * 1_000.0)
    }

    /// Converts this duration to picoseconds.
    #[must_use]
    pub fn to_picoseconds(self) -> Picoseconds {
        Picoseconds::new(self.0 * 1_000_000.0)
    }
}

impl Gigahertz {
    /// Returns the clock period of this frequency.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is zero or negative.
    #[must_use]
    pub fn period(self) -> Picoseconds {
        assert!(self.0 > 0.0, "clock frequency must be strictly positive");
        Picoseconds::new(1_000.0 / self.0)
    }
}

impl Femtojoules {
    /// Converts this energy to microjoules.
    #[must_use]
    pub fn to_microjoules(self) -> Microjoules {
        Microjoules::new(self.0 * 1e-9)
    }
}

impl Microjoules {
    /// Converts this energy to femtojoules.
    #[must_use]
    pub fn to_femtojoules(self) -> Femtojoules {
        Femtojoules::new(self.0 * 1e9)
    }
}

impl Milliwatts {
    /// Returns the energy dissipated when this power is sustained for the
    /// given duration.
    #[must_use]
    pub fn energy_over(self, duration: Microseconds) -> Microjoules {
        // mW * us = nJ; divide by 1000 for uJ.
        Microjoules::new(self.0 * duration.value() / 1_000.0)
    }
}

/// Converts a cycle count and a clock period into an absolute execution time.
///
/// # Examples
///
/// ```
/// use hw_model::units::{cycles_to_time, Picoseconds};
///
/// let t = cycles_to_time(2_000, Picoseconds::new(500.0));
/// assert!((t.value() - 1.0).abs() < 1e-12); // 2000 cycles at 2 GHz = 1 us
/// ```
#[must_use]
pub fn cycles_to_time(cycles: u64, period: Picoseconds) -> Microseconds {
    Picoseconds::new(cycles as f64 * period.value()).to_microseconds()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn period_frequency_round_trip() {
        let f = Gigahertz::new(1.7);
        let p = f.period();
        assert!((p.frequency().value() - 1.7).abs() < 1e-12);
    }

    #[test]
    fn two_gigahertz_is_500_ps() {
        assert!((Gigahertz::new(2.0).period().value() - 500.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_on_durations() {
        let a = Picoseconds::new(300.0);
        let b = Picoseconds::new(200.0);
        assert_eq!(a + b, Picoseconds::new(500.0));
        assert_eq!(a - b, Picoseconds::new(100.0));
        assert_eq!(a * 2.0, Picoseconds::new(600.0));
        assert_eq!(2.0 * b, Picoseconds::new(400.0));
        assert!((a / b - 1.5).abs() < 1e-12);
    }

    #[test]
    fn time_conversions() {
        let ps = Picoseconds::new(1_500_000.0);
        assert!((ps.to_nanoseconds().value() - 1_500.0).abs() < 1e-9);
        assert!((ps.to_microseconds().value() - 1.5).abs() < 1e-12);
        let us = Microseconds::new(2.0);
        assert!((us.to_picoseconds().value() - 2_000_000.0).abs() < 1e-6);
        assert!((us.to_nanoseconds().value() - 2_000.0).abs() < 1e-9);
        let ns = Nanoseconds::new(3.0);
        assert!((ns.to_picoseconds().value() - 3_000.0).abs() < 1e-9);
        assert!((ns.to_microseconds().value() - 0.003).abs() < 1e-12);
    }

    #[test]
    fn energy_conversions() {
        let fj = Femtojoules::new(2e9);
        assert!((fj.to_microjoules().value() - 2.0).abs() < 1e-12);
        let uj = Microjoules::new(0.5);
        assert!((uj.to_femtojoules().value() - 5e8).abs() < 1e-3);
    }

    #[test]
    fn power_times_time_is_energy() {
        // 100 mW for 10 us = 1 uJ.
        let e = Milliwatts::new(100.0).energy_over(Microseconds::new(10.0));
        assert!((e.value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cycles_to_time_examples() {
        let t = cycles_to_time(1_000, Gigahertz::new(1.0).period());
        assert!((t.value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sum_and_ordering() {
        let total: Picoseconds = [10.0, 20.0, 30.0]
            .iter()
            .map(|&v| Picoseconds::new(v))
            .sum();
        assert_eq!(total, Picoseconds::new(60.0));
        assert!(Picoseconds::new(10.0) < Picoseconds::new(20.0));
        assert_eq!(
            Picoseconds::new(5.0).max(Picoseconds::new(7.0)),
            Picoseconds::new(7.0)
        );
        assert_eq!(
            Picoseconds::new(5.0).min(Picoseconds::new(7.0)),
            Picoseconds::new(5.0)
        );
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn zero_period_panics() {
        let _ = Picoseconds::zero().frequency();
    }

    #[test]
    fn display_contains_suffix() {
        assert!(format!("{}", Gigahertz::new(1.4)).contains("GHz"));
        assert!(format!("{}", Milliwatts::new(3.0)).contains("mW"));
        assert!(format!("{}", SquareMicrons::new(3.0)).contains("um^2"));
    }
}
