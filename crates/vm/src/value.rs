//! Runtime values.
//!
//! Vector values store their lanes *inline* (up to [`Lanes`]' capacity)
//! so that cloning a value in the interpreter's register file never
//! heap-allocates for the SIMD widths the vectorizer actually emits
//! (≤ 8×f32 / 4×f64 / 4×i64, i.e. 256-bit vectors). Wider values spill
//! to a heap buffer transparently, preserving semantics.

use mperf_ir::Ty;

/// Inline capacity for f32 lanes (256-bit vector).
pub const INLINE_F32: usize = 8;
/// Inline capacity for f64 lanes (256-bit vector).
pub const INLINE_F64: usize = 4;
/// Inline capacity for i64 lanes (256-bit vector).
pub const INLINE_I64: usize = 4;

/// A small-vector of SIMD lanes: inline up to `N` elements, heap beyond.
#[derive(Debug, Clone)]
pub enum Lanes<T: Copy + Default, const N: usize> {
    /// Lane data held inline in the value itself.
    Inline { len: u8, buf: [T; N] },
    /// Spill storage for lane counts above the inline capacity.
    Spill(Vec<T>),
}

pub type LanesF32 = Lanes<f32, INLINE_F32>;
pub type LanesF64 = Lanes<f64, INLINE_F64>;
pub type LanesI64 = Lanes<i64, INLINE_I64>;

impl<T: Copy + Default, const N: usize> Lanes<T, N> {
    /// All-default lanes of length `n`.
    pub fn zeroed(n: usize) -> Self {
        if n <= N {
            Lanes::Inline {
                len: n as u8,
                buf: [T::default(); N],
            }
        } else {
            Lanes::Spill(vec![T::default(); n])
        }
    }

    /// `n` copies of `x`.
    pub fn splat(x: T, n: usize) -> Self {
        if n <= N {
            Lanes::Inline {
                len: n as u8,
                buf: [x; N],
            }
        } else {
            Lanes::Spill(vec![x; n])
        }
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        match self {
            Lanes::Inline { len, .. } => *len as usize,
            Lanes::Spill(v) => v.len(),
        }
    }

    /// Whether there are zero lanes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The lanes as a slice.
    pub fn as_slice(&self) -> &[T] {
        match self {
            Lanes::Inline { len, buf } => &buf[..*len as usize],
            Lanes::Spill(v) => v,
        }
    }

    /// The lanes as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match self {
            Lanes::Inline { len, buf } => &mut buf[..*len as usize],
            Lanes::Spill(v) => v,
        }
    }

    /// Iterate over the lanes.
    pub fn iter(&self) -> core::slice::Iter<'_, T> {
        self.as_slice().iter()
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for Lanes<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(into: I) -> Self {
        let mut it = into.into_iter();
        let mut buf = [T::default(); N];
        let mut len = 0usize;
        for v in &mut it {
            if len < N {
                buf[len] = v;
                len += 1;
            } else {
                let mut spill = Vec::with_capacity(2 * N);
                spill.extend_from_slice(&buf);
                spill.push(v);
                spill.extend(it);
                return Lanes::Spill(spill);
            }
        }
        Lanes::Inline {
            len: len as u8,
            buf,
        }
    }
}

impl<T: Copy + Default, const N: usize> From<Vec<T>> for Lanes<T, N> {
    fn from(v: Vec<T>) -> Self {
        v.into_iter().collect()
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a Lanes<T, N> {
    type Item = &'a T;
    type IntoIter = core::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for Lanes<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default, const N: usize> core::ops::Index<usize> for Lanes<T, N> {
    type Output = T;
    fn index(&self, i: usize) -> &T {
        &self.as_slice()[i]
    }
}

/// A runtime value held in a virtual register.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    I64(i64),
    F32(f32),
    F64(f64),
    Bool(bool),
    /// Vector lanes (length = type's lane count).
    VF32(LanesF32),
    VF64(LanesF64),
    VI64(LanesI64),
}

impl Value {
    /// Zero value of a type.
    pub fn zero_of(ty: Ty) -> Value {
        match ty {
            Ty::I64 | Ty::Ptr => Value::I64(0),
            Ty::F32 => Value::F32(0.0),
            Ty::F64 => Value::F64(0.0),
            Ty::Bool => Value::Bool(false),
            Ty::VecF32(n) => Value::VF32(LanesF32::zeroed(n as usize)),
            Ty::VecF64(n) => Value::VF64(LanesF64::zeroed(n as usize)),
            Ty::VecI64(n) => Value::VI64(LanesI64::zeroed(n as usize)),
        }
    }

    /// The i64 payload (addresses are i64 at run time).
    ///
    /// # Panics
    /// Panics on non-integer values (a type-confusion bug — the verifier
    /// excludes it for well-formed modules).
    pub fn as_i64(&self) -> i64 {
        match self {
            Value::I64(v) => *v,
            other => panic!("expected i64, found {other:?}"),
        }
    }

    /// The f32 payload.
    ///
    /// # Panics
    /// Panics on other variants.
    pub fn as_f32(&self) -> f32 {
        match self {
            Value::F32(v) => *v,
            other => panic!("expected f32, found {other:?}"),
        }
    }

    /// The bool payload.
    ///
    /// # Panics
    /// Panics on other variants.
    pub fn as_bool(&self) -> bool {
        match self {
            Value::Bool(v) => *v,
            other => panic!("expected bool, found {other:?}"),
        }
    }

    /// Lane count (1 for scalars).
    pub fn lanes(&self) -> usize {
        match self {
            Value::VF32(v) => v.len(),
            Value::VF64(v) => v.len(),
            Value::VI64(v) => v.len(),
            _ => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_match_types() {
        assert_eq!(Value::zero_of(Ty::I64), Value::I64(0));
        assert_eq!(Value::zero_of(Ty::Ptr), Value::I64(0));
        assert_eq!(Value::zero_of(Ty::VecF32(8)).lanes(), 8);
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::I64(5).as_i64(), 5);
        assert_eq!(Value::F32(1.5).as_f32(), 1.5);
        assert!(Value::Bool(true).as_bool());
    }

    #[test]
    #[should_panic(expected = "expected i64")]
    fn type_confusion_panics() {
        let _ = Value::F64(0.0).as_i64();
    }

    #[test]
    fn lanes_inline_within_capacity() {
        let l: LanesF32 = (0..8).map(|i| i as f32).collect();
        assert!(matches!(l, Lanes::Inline { .. }));
        assert_eq!(l.len(), 8);
        assert_eq!(l[3], 3.0);
        assert_eq!(l.iter().sum::<f32>(), 28.0);
    }

    #[test]
    fn lanes_spill_beyond_capacity() {
        let l: LanesI64 = (0..9).collect();
        assert!(matches!(l, Lanes::Spill(_)));
        assert_eq!(l.len(), 9);
        assert_eq!(l.as_slice(), (0..9).collect::<Vec<_>>().as_slice());
    }

    #[test]
    fn lanes_equality_ignores_representation() {
        let a: LanesI64 = LanesI64::from(vec![1, 2, 3]);
        let b: LanesI64 = [1i64, 2, 3].into_iter().collect();
        assert_eq!(a, b);
        assert_ne!(a, LanesI64::splat(1, 3));
    }

    #[test]
    fn splat_and_zeroed() {
        assert_eq!(LanesF64::splat(2.5, 4).as_slice(), &[2.5; 4]);
        assert_eq!(LanesF64::zeroed(6).len(), 6);
        let mut m = LanesF32::zeroed(3);
        m.as_mut_slice()[1] = 7.0;
        assert_eq!(m[1], 7.0);
    }
}
