//! Reduction operations over [`MpiType`] elements.
//!
//! The *native* collective path dispatches through [`Op::apply`]: one
//! datatype-and-operation dispatch per buffer, then that operation's
//! own inlined (and vectorizable) loop over the elements. The
//! per-buffer dispatch is the generality the paper's Figure 13 charges
//! the native `MPI_Iallreduce` for ("restricting to `MPI_INT` and
//! `MPI_SUM` avoids a datatype switch and the function-call overhead of
//! calling an operation function") and that the user-level allreduce in
//! `mpfa-interop` avoids by hardcoding `i32`/`+`; it is paid once per
//! call, never once per element.

use crate::datatype::MpiType;
use crate::error::{MpiError, MpiResult};

/// Built-in reduction operations (`MPI_Op`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `MPI_SUM`
    Sum,
    /// `MPI_PROD`
    Prod,
    /// `MPI_MAX`
    Max,
    /// `MPI_MIN`
    Min,
    /// `MPI_BAND` (integers only)
    Band,
    /// `MPI_BOR` (integers only)
    Bor,
    /// `MPI_BXOR` (integers only)
    Bxor,
}

/// Element types reducible by the built-in operations.
pub trait Reducible: MpiType {
    /// `inout[i] = op(inout[i], input[i])` for all i.
    fn reduce(op: Op, inout: &mut [Self], input: &[Self]) -> MpiResult<()>;
}

/// `inout[i] = f(inout[i], input[i])`, instantiated per closure so that
/// every operation gets a loop of its own with `f` inlined into it.
#[inline(always)]
fn zip_with<T: Copy>(inout: &mut [T], input: &[T], f: impl Fn(T, T) -> T) {
    assert_eq!(inout.len(), input.len(), "reduce length mismatch");
    for (x, y) in inout.iter_mut().zip(input) {
        *x = f(*x, *y);
    }
}

macro_rules! impl_reducible_int {
    ($($t:ty),*) => {
        $(
            impl Reducible for $t {
                fn reduce(op: Op, inout: &mut [Self], input: &[Self]) -> MpiResult<()> {
                    match op {
                        Op::Sum => zip_with(inout, input, |a, b| a.wrapping_add(b)),
                        Op::Prod => zip_with(inout, input, |a, b| a.wrapping_mul(b)),
                        Op::Max => zip_with(inout, input, |a, b| a.max(b)),
                        Op::Min => zip_with(inout, input, |a, b| a.min(b)),
                        Op::Band => zip_with(inout, input, |a, b| a & b),
                        Op::Bor => zip_with(inout, input, |a, b| a | b),
                        Op::Bxor => zip_with(inout, input, |a, b| a ^ b),
                    }
                    Ok(())
                }
            }
        )*
    };
}

impl_reducible_int!(u8, i8, u16, i16, u32, i32, u64, i64, usize, isize);

macro_rules! impl_reducible_float {
    ($($t:ty),*) => {
        $(
            impl Reducible for $t {
                fn reduce(op: Op, inout: &mut [Self], input: &[Self]) -> MpiResult<()> {
                    match op {
                        Op::Sum => zip_with(inout, input, |a, b| a + b),
                        Op::Prod => zip_with(inout, input, |a, b| a * b),
                        Op::Max => zip_with(inout, input, |a, b| a.max(b)),
                        Op::Min => zip_with(inout, input, |a, b| a.min(b)),
                        Op::Band | Op::Bor | Op::Bxor => {
                            return Err(MpiError::BadOpForType(
                                "bitwise reduction on floating-point type",
                            ))
                        }
                    }
                    Ok(())
                }
            }
        )*
    };
}

impl_reducible_float!(f32, f64);

impl Op {
    /// Apply this operation element-wise: `inout[i] = op(inout[i], input[i])`.
    pub fn apply<T: Reducible>(self, inout: &mut [T], input: &[T]) -> MpiResult<()> {
        T::reduce(self, inout, input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_ints() {
        let mut a = vec![1i32, 2, 3];
        Op::Sum.apply(&mut a, &[10, 20, 30]).unwrap();
        assert_eq!(a, vec![11, 22, 33]);
    }

    #[test]
    fn prod_wraps() {
        let mut a = vec![i32::MAX];
        Op::Prod.apply(&mut a, &[2]).unwrap();
        assert_eq!(a, vec![i32::MAX.wrapping_mul(2)]);
    }

    #[test]
    fn max_min() {
        let mut a = vec![5i64, -5];
        Op::Max.apply(&mut a, &[3, 3]).unwrap();
        assert_eq!(a, vec![5, 3]);
        let mut b = vec![5i64, -5];
        Op::Min.apply(&mut b, &[3, 3]).unwrap();
        assert_eq!(b, vec![3, -5]);
    }

    #[test]
    fn bitwise_on_ints() {
        let mut a = vec![0b1100u8];
        Op::Band.apply(&mut a, &[0b1010]).unwrap();
        assert_eq!(a, vec![0b1000]);
        let mut b = vec![0b1100u8];
        Op::Bor.apply(&mut b, &[0b1010]).unwrap();
        assert_eq!(b, vec![0b1110]);
        let mut c = vec![0b1100u8];
        Op::Bxor.apply(&mut c, &[0b1010]).unwrap();
        assert_eq!(c, vec![0b0110]);
    }

    #[test]
    fn float_sum_and_max() {
        let mut a = vec![1.5f64, 2.5];
        Op::Sum.apply(&mut a, &[0.5, 0.5]).unwrap();
        assert_eq!(a, vec![2.0, 3.0]);
        let mut b = vec![1.0f32];
        Op::Max.apply(&mut b, &[2.0]).unwrap();
        assert_eq!(b, vec![2.0]);
    }

    #[test]
    fn bitwise_on_floats_rejected() {
        let mut a = vec![1.0f64];
        let err = Op::Band.apply(&mut a, &[2.0]).unwrap_err();
        assert!(matches!(err, MpiError::BadOpForType(_)));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut a = vec![1i32];
        let _ = Op::Sum.apply(&mut a, &[1, 2]);
    }
}
