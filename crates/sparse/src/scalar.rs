//! Minimal numeric trait for matrix values.
//!
//! The distributed code paths in the workspace fix the value type to `f64`,
//! but the containers are generic so the library is usable with `f32` (for
//! example to halve the memory footprint of a feature matrix).

use std::fmt::{self, Debug};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// Serving-precision selector: which [`Scalar`] type a multiply runs in.
///
/// `F64` is the exact default used everywhere the paper's algorithms are
/// verified bit-for-bit. `F32` halves the bandwidth of every multiply (and
/// the bytes moved by the distributed algorithms' cost model) at the price
/// of a bounded rounding error: matrix values and `x` entries are narrowed
/// to `f32` and multiplied in `f32`, while running sums stay `f64` — the
/// wire format between simulated ranks — so each product carries relative
/// error at most `(1 + u)³ − 1` with `u = 2⁻²⁴`. See the f32 error-bound
/// helpers in `arrow-core` for the summed per-entry bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Dtype {
    /// 32-bit floats: half the bytes per value, unit roundoff `2⁻²⁴`.
    F32,
    /// 64-bit floats: the exact reference precision.
    #[default]
    F64,
}

impl Dtype {
    /// Bytes per matrix value at this precision.
    pub const fn bytes(self) -> usize {
        match self {
            Dtype::F32 => 4,
            Dtype::F64 => 8,
        }
    }

    /// Canonical lowercase name (`"f32"` / `"f64"`).
    pub const fn name(self) -> &'static str {
        match self {
            Dtype::F32 => "f32",
            Dtype::F64 => "f64",
        }
    }

    /// Parses the canonical names, e.g. from a `--dtype` CLI flag.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "f32" => Some(Dtype::F32),
            "f64" => Some(Dtype::F64),
            _ => None,
        }
    }
}

impl fmt::Display for Dtype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Numeric element type of sparse and dense matrices.
///
/// The bound set is intentionally small: what the SpMM kernels, reductions
/// and validation code need, and nothing more.
pub trait Scalar:
    Copy
    + Debug
    + PartialEq
    + PartialOrd
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + Sum
    + Send
    + Sync
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;

    /// Absolute value, used by approximate comparisons in tests and
    /// verification helpers.
    fn abs(self) -> Self;

    /// Lossy conversion from `f64`, used by generators.
    fn from_f64(v: f64) -> Self;

    /// Lossy conversion to `f64`, used by statistics.
    fn to_f64(self) -> f64;
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;

    #[inline]
    fn abs(self) -> Self {
        f64::abs(self)
    }

    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }

    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;

    #[inline]
    fn abs(self) -> Self {
        f32::abs(self)
    }

    #[inline]
    fn from_f64(v: f64) -> Self {
        v as f32
    }

    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generic_sum<T: Scalar>(vals: &[T]) -> T {
        vals.iter().copied().sum()
    }

    #[test]
    fn f64_roundtrip() {
        assert_eq!(f64::from_f64(1.5).to_f64(), 1.5);
        assert_eq!(f64::ZERO + f64::ONE, 1.0);
    }

    #[test]
    fn f32_roundtrip() {
        assert_eq!(f32::from_f64(0.25), 0.25f32);
        assert_eq!(f32::ONE.to_f64(), 1.0);
    }

    #[test]
    fn generic_code_compiles_for_both() {
        assert_eq!(generic_sum(&[1.0f64, 2.0, 3.0]), 6.0);
        assert_eq!(generic_sum(&[1.0f32, 2.0]), 3.0);
    }

    #[test]
    fn abs_behaviour() {
        assert_eq!((-2.0f64).abs(), 2.0);
        assert_eq!((-2.0f32).abs(), 2.0);
    }

    #[test]
    fn dtype_properties() {
        assert_eq!(Dtype::default(), Dtype::F64);
        assert_eq!(Dtype::F32.bytes(), 4);
        assert_eq!(Dtype::F64.bytes(), 8);
        assert_eq!(Dtype::parse("f32"), Some(Dtype::F32));
        assert_eq!(Dtype::parse("f64"), Some(Dtype::F64));
        assert_eq!(Dtype::parse("f16"), None);
        assert_eq!(Dtype::F32.to_string(), "f32");
        assert_eq!(format!("{}", Dtype::F64), "f64");
    }
}
