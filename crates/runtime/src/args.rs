//! Host-side argument binding for MiniACC function runs.

use safara_gpusim::SharedBytes;
use safara_ir::{Ident, ScalarTy};
use std::collections::BTreeMap;

/// A scalar argument value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArgValue {
    /// `int`
    I32(i32),
    /// `long`
    I64(i64),
    /// `float`
    F32(f32),
    /// `double`
    F64(f64),
}

impl ArgValue {
    /// The value as `i64` (floats truncate).
    pub fn as_i64(&self) -> i64 {
        match self {
            ArgValue::I32(v) => *v as i64,
            ArgValue::I64(v) => *v,
            ArgValue::F32(v) => *v as i64,
            ArgValue::F64(v) => *v as i64,
        }
    }

    /// The value as `f64`.
    pub fn as_f64(&self) -> f64 {
        match self {
            ArgValue::I32(v) => *v as f64,
            ArgValue::I64(v) => *v as f64,
            ArgValue::F32(v) => *v as f64,
            ArgValue::F64(v) => *v,
        }
    }
}

/// A host array argument: element type + raw little-endian bytes.
///
/// The bytes are a [`SharedBytes`] allocation: cloning an array (or the
/// [`Args`] holding it) shares it, a run uploads it without a copy and
/// hands back the device's allocations, and its content key, once
/// computed, is read by every holder. Equality compares contents.
#[derive(Debug, Clone, PartialEq)]
pub struct HostArray {
    /// Element type.
    pub elem: ScalarTy,
    /// Raw data (length must match the resolved dimensions).
    pub bytes: SharedBytes,
}

impl HostArray {
    fn of(elem: ScalarTy, bytes: impl Iterator<Item = u8>) -> Self {
        HostArray { elem, bytes: bytes.collect::<Vec<u8>>().into() }
    }

    /// Build from `f32` data.
    pub fn from_f32(data: &[f32]) -> Self {
        Self::of(ScalarTy::F32, data.iter().flat_map(|v| v.to_le_bytes()))
    }

    /// Build from `f64` data.
    pub fn from_f64(data: &[f64]) -> Self {
        Self::of(ScalarTy::F64, data.iter().flat_map(|v| v.to_le_bytes()))
    }

    /// Build from `i32` data.
    pub fn from_i32(data: &[i32]) -> Self {
        Self::of(ScalarTy::I32, data.iter().flat_map(|v| v.to_le_bytes()))
    }

    /// Build `f32` data from raw IEEE-754 bit patterns — the lossless
    /// encoding wire protocols use (decimal text can round).
    pub fn from_f32_bits(bits: &[u32]) -> Self {
        Self::of(ScalarTy::F32, bits.iter().flat_map(|b| b.to_le_bytes()))
    }

    /// Build `f64` data from raw IEEE-754 bit patterns.
    pub fn from_f64_bits(bits: &[u64]) -> Self {
        Self::of(ScalarTy::F64, bits.iter().flat_map(|b| b.to_le_bytes()))
    }

    /// The `f32` elements as raw IEEE-754 bit patterns.
    pub fn as_f32_bits(&self) -> Vec<u32> {
        self.bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    }

    /// The `f64` elements as raw IEEE-754 bit patterns.
    pub fn as_f64_bits(&self) -> Vec<u64> {
        self.bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect()
    }

    /// View as `f32`s.
    pub fn as_f32(&self) -> Vec<f32> {
        self.bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    }

    /// View as `f64`s.
    pub fn as_f64(&self) -> Vec<f64> {
        self.bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
            .collect()
    }

    /// View as `i32`s.
    pub fn as_i32(&self) -> Vec<i32> {
        self.bytes
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.bytes.len() / self.elem.size_bytes() as usize
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// The argument set for one function run. A run replaces each array
/// with the device's final contents (unwritten arrays come back as the
/// very allocations that went in), and scalars with reduction results.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Args {
    /// Scalar bindings by parameter name.
    pub scalars: BTreeMap<Ident, ArgValue>,
    /// Array bindings by parameter name.
    pub arrays: BTreeMap<Ident, HostArray>,
}

impl Args {
    /// Empty argument set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind an `int` scalar.
    pub fn i32(mut self, name: &str, v: i32) -> Self {
        self.scalars.insert(Ident::new(name), ArgValue::I32(v));
        self
    }

    /// Bind a `long` scalar.
    pub fn i64(mut self, name: &str, v: i64) -> Self {
        self.scalars.insert(Ident::new(name), ArgValue::I64(v));
        self
    }

    /// Bind a `float` scalar.
    pub fn f32(mut self, name: &str, v: f32) -> Self {
        self.scalars.insert(Ident::new(name), ArgValue::F32(v));
        self
    }

    /// Bind a `double` scalar.
    pub fn f64(mut self, name: &str, v: f64) -> Self {
        self.scalars.insert(Ident::new(name), ArgValue::F64(v));
        self
    }

    /// Bind a `float` array.
    pub fn array_f32(mut self, name: &str, data: &[f32]) -> Self {
        self.arrays.insert(Ident::new(name), HostArray::from_f32(data));
        self
    }

    /// Bind a `double` array.
    pub fn array_f64(mut self, name: &str, data: &[f64]) -> Self {
        self.arrays.insert(Ident::new(name), HostArray::from_f64(data));
        self
    }

    /// Bind an `int` array.
    pub fn array_i32(mut self, name: &str, data: &[i32]) -> Self {
        self.arrays.insert(Ident::new(name), HostArray::from_i32(data));
        self
    }

    /// Read a scalar after the run (reductions update scalars in place).
    pub fn scalar(&self, name: &str) -> Option<ArgValue> {
        self.scalars.get(&Ident::new(name)).copied()
    }

    /// Read an array after the run.
    pub fn array(&self, name: &str) -> Option<&HostArray> {
        self.arrays.get(&Ident::new(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_roundtrips() {
        let a = HostArray::from_f32(&[1.0, 2.5]);
        assert_eq!(a.as_f32(), vec![1.0, 2.5]);
        assert_eq!(a.len(), 2);
        let b = HostArray::from_f64(&[1e-3]);
        assert_eq!(b.as_f64(), vec![1e-3]);
        let c = HostArray::from_i32(&[-1, 2]);
        assert_eq!(c.as_i32(), vec![-1, 2]);
    }

    #[test]
    fn bit_pattern_roundtrips_are_lossless() {
        let vals = [0.1f32, -0.0, f32::MIN_POSITIVE / 2.0, 1.0e30];
        let a = HostArray::from_f32(&vals);
        let bits = a.as_f32_bits();
        assert_eq!(HostArray::from_f32_bits(&bits), a);
        let d = HostArray::from_f64(&[0.1, -1.0e-300]);
        assert_eq!(HostArray::from_f64_bits(&d.as_f64_bits()), d);
    }

    #[test]
    fn builder_binds_by_name() {
        let args = Args::new().i32("n", 4).f64("alpha", 1.5).array_f32("x", &[0.0; 4]);
        assert_eq!(args.scalar("n"), Some(ArgValue::I32(4)));
        assert_eq!(args.scalar("alpha"), Some(ArgValue::F64(1.5)));
        assert_eq!(args.array("x").unwrap().len(), 4);
        assert!(args.scalar("missing").is_none());
    }

    #[test]
    fn argvalue_conversions() {
        assert_eq!(ArgValue::F64(2.75).as_i64(), 2);
        assert_eq!(ArgValue::I32(-3).as_f64(), -3.0);
        assert_eq!(ArgValue::I64(1 << 40).as_i64(), 1 << 40);
    }
}
