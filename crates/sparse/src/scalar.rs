//! Minimal numeric trait for matrix values.
//!
//! The distributed code paths in the workspace fix the value type to `f64`,
//! but the containers are generic so the library is usable with `f32` (for
//! example to halve the memory footprint of a feature matrix).

use std::fmt::Debug;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// Serving precision: `f64`, the one precision every multiply runs and
/// every byte is counted at.
///
/// Nothing reads it. It stays only as the type of `EngineConfig::dtype`
/// and `PlannerConfig::dtype` until the benchmark package stops naming
/// `PlannerConfig::dtype` (ROADMAP item 29 step 1); the three go together.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Dtype {
    /// 64-bit floats.
    #[default]
    F64,
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
    }
}
