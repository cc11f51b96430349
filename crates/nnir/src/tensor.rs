//! Dense f32 tensors used by the reference executor.
//!
//! The IR keeps all *values* in f32. Quantized *weights* may carry a
//! [`QuantPayload`] sidecar — the integer codes plus per-row scales that
//! [`Tensor::quantize_i8_per_channel`] produces — while `data` keeps the
//! dequantized view, so every f32 consumer (shape checks, cost model,
//! fake-quant accuracy evaluation) is unaffected and only the execution
//! engine's INT8 kernels read the codes.

use crate::dtype::DataType;
use crate::shape::Shape;
use crate::NnirError;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;

/// Quantized sidecar representation of a tensor.
///
/// `codes` are row-major signed integer codes in the same element order
/// as the tensor's f32 data; `scales` holds one symmetric scale per
/// dim-0 row (conv output channel / dense output feature), so
/// `data[r * row_len + i] == f32::from(codes[r * row_len + i]) * scales[r]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantPayload {
    /// Storage type of the codes (currently always [`DataType::I8`]).
    pub dtype: DataType,
    /// Integer codes, same element order as the f32 data.
    pub codes: Vec<i8>,
    /// One scale per dim-0 row.
    pub scales: Vec<f32>,
}

/// The INT8 code of an already-scaled value (`x / scale`), as f32:
/// rounded half away from zero and clamped to ±127.
///
/// Bit-identical to `x.round().clamp(-127.0, 127.0)` on every input,
/// NaN and -0.0 included, but built from plain float arithmetic: on
/// baseline x86-64 `round` is a call to libm's `roundf` and a float to
/// int cast is scalarized, either of which keeps a loop over it from
/// vectorizing. Weight quantization, `FakeQuant` and the INT8 kernels'
/// activation quantization all round through here.
#[inline]
pub(crate) fn round_i8(x: f32) -> f32 {
    /// Adding and subtracting 2^23 rounds any `|a| < 2^23` to an
    /// integer, ties to even.
    const TO_EVEN: f32 = 8_388_608.0;
    let c = x.clamp(-127.0, 127.0);
    let a = c.abs();
    let even = (a + TO_EVEN) - TO_EVEN;
    // `a - even` is exact; it reaches one half only where a tie was
    // rounded down to even, which half-away-from-zero rounds up.
    let r = if a - even >= 0.5 { even + 1.0 } else { even };
    // libm returns a NaN as `x + x`.
    if c.is_nan() {
        c + c
    } else {
        r.copysign(c)
    }
}

/// A dense, row-major f32 tensor.
///
/// ```
/// use vedliot_nnir::{Tensor, Shape};
///
/// # fn main() -> Result<(), vedliot_nnir::NnirError> {
/// let t = Tensor::from_vec(Shape::nf(2, 2), vec![1.0, 2.0, 3.0, 4.0])?;
/// assert_eq!(t.at(&[1, 0]), 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
    /// Quantized sidecar; present only on weights that went through
    /// [`quantize_i8_per_channel`](Tensor::quantize_i8_per_channel).
    /// Dropped by any mutation of the f32 data, which would otherwise
    /// desynchronize the codes.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    quant: Option<Box<QuantPayload>>,
}

impl Tensor {
    /// Creates a zero-filled tensor.
    #[must_use]
    pub fn zeros(shape: Shape) -> Self {
        let n = shape.elem_count();
        Tensor {
            shape,
            data: vec![0.0; n],
            quant: None,
        }
    }

    /// Creates a tensor filled with a constant.
    #[must_use]
    pub fn full(shape: Shape, value: f32) -> Self {
        let n = shape.elem_count();
        Tensor {
            shape,
            data: vec![value; n],
            quant: None,
        }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Errors
    ///
    /// Returns [`NnirError::ShapeMismatch`] if `data.len()` does not equal
    /// the shape's element count.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Result<Self, NnirError> {
        if shape.elem_count() != data.len() {
            return Err(NnirError::ShapeMismatch {
                op: "Tensor::from_vec".into(),
                detail: format!(
                    "shape {shape} holds {} elements but {} were provided",
                    shape.elem_count(),
                    data.len()
                ),
            });
        }
        Ok(Tensor {
            shape,
            data,
            quant: None,
        })
    }

    /// Creates a tensor by evaluating `f` at each linear index.
    #[must_use]
    pub fn from_fn(shape: Shape, mut f: impl FnMut(usize) -> f32) -> Self {
        let n = shape.elem_count();
        Tensor {
            data: (0..n).map(&mut f).collect(),
            shape,
            quant: None,
        }
    }

    /// The tensor's shape.
    #[must_use]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Immutable view of the raw data (row-major).
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the raw data (row-major).
    ///
    /// Drops any [`QuantPayload`]: mutating the f32 view invalidates
    /// the integer codes derived from it.
    pub fn data_mut(&mut self) -> &mut [f32] {
        self.quant = None;
        &mut self.data
    }

    /// The quantized sidecar, if this tensor carries one.
    #[must_use]
    pub fn quant(&self) -> Option<&QuantPayload> {
        self.quant.as_deref()
    }

    /// Detaches the quantized sidecar, keeping the (fake-quantized) f32
    /// view. Used when an analysis refutes INT8 deployment for a layer
    /// whose weights were already quantized.
    pub fn clear_quant(&mut self) {
        self.quant = None;
    }

    /// Quantizes the tensor to symmetric per-channel INT8 in place.
    ///
    /// Each dim-0 row gets its own scale `row_abs_max / 127`; codes are
    /// `round(x / scale)` clamped to ±127. The f32 data is replaced by
    /// the dequantized view `code * scale` (the per-channel fake-quant
    /// the PTQ accuracy evaluation runs on), and the codes + scales are
    /// attached as a [`QuantPayload`] for the execution engine's INT8
    /// kernels. An all-zero row keeps scale 0 and codes 0.
    pub fn quantize_i8_per_channel(&mut self) {
        let rows = self.shape.dim(0).unwrap_or(1).max(1);
        let row_len = self.data.len() / rows;
        let mut codes = vec![0i8; self.data.len()];
        let mut scales = vec![0.0f32; rows];
        for r in 0..rows {
            let row = &mut self.data[r * row_len..][..row_len];
            let absmax = row.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            if absmax == 0.0 {
                continue;
            }
            let scale = absmax / 127.0;
            scales[r] = scale;
            for (c, x) in codes[r * row_len..][..row_len]
                .iter_mut()
                .zip(row.iter_mut())
            {
                let q = round_i8(*x / scale);
                *c = q as i8;
                *x = q * scale;
            }
        }
        self.quant = Some(Box::new(QuantPayload {
            dtype: DataType::I8,
            codes,
            scales,
        }));
    }

    /// Consumes the tensor and returns the raw data.
    #[must_use]
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Value at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range (see [`Shape::offset`]).
    #[must_use]
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.shape.offset(idx)]
    }

    /// Sets the value at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn set(&mut self, idx: &[usize], value: f32) {
        let off = self.shape.offset(idx);
        self.quant = None;
        self.data[off] = value;
    }

    /// Reshapes without moving data.
    ///
    /// # Errors
    ///
    /// Returns [`NnirError::ShapeMismatch`] if the new shape has a different
    /// element count.
    pub fn reshape(&self, shape: Shape) -> Result<Tensor, NnirError> {
        if shape.elem_count() != self.data.len() {
            return Err(NnirError::ShapeMismatch {
                op: "Tensor::reshape".into(),
                detail: format!("cannot reshape {} to {shape}", self.shape),
            });
        }
        Ok(Tensor {
            shape,
            data: self.data.clone(),
            quant: None,
        })
    }

    /// Largest absolute element (0.0 for an empty tensor).
    #[must_use]
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Mean of all elements (0.0 for an empty tensor).
    #[must_use]
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }

    /// Index of the largest element (ties broken towards lower index).
    ///
    /// Useful as the classification decision of a logits vector.
    #[must_use]
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        for (i, &x) in self.data.iter().enumerate() {
            if x > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// Maximum absolute difference to another tensor of the same shape.
    ///
    /// # Errors
    ///
    /// Returns [`NnirError::ShapeMismatch`] if shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f32, NnirError> {
        if self.shape != other.shape {
            return Err(NnirError::ShapeMismatch {
                op: "Tensor::max_abs_diff".into(),
                detail: format!("{} vs {}", self.shape, other.shape),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .fold(0.0f32, |m, (a, b)| m.max((a - b).abs())))
    }

    /// Splits along axis 0 into `dims()[0]` tensors of batch size 1.
    ///
    /// Rows come back in batch order, each with shape
    /// `self.shape().with_batch(1)`. Because every kernel in the
    /// execution engine reduces each batch row independently and in the
    /// same element order regardless of batch size, a batched run's
    /// output rows are **bit-identical** to per-sample runs — the
    /// contract the serving layer's dynamic batcher relies on, asserted
    /// by the `batched_execution_matches_single_sample_runs` proptest.
    ///
    /// # Errors
    ///
    /// Returns [`NnirError::ShapeMismatch`] for a rank-0 tensor.
    pub fn split_batch(&self) -> Result<Vec<Tensor>, NnirError> {
        let Some(n) = self.shape.dim(0) else {
            return Err(NnirError::ShapeMismatch {
                op: "Tensor::split_batch".into(),
                detail: "rank-0 tensor has no batch axis".into(),
            });
        };
        let row_shape = self.shape.with_batch(1);
        let per_row = row_shape.elem_count();
        (0..n)
            .map(|i| {
                Tensor::from_vec(
                    row_shape.clone(),
                    self.data[i * per_row..(i + 1) * per_row].to_vec(),
                )
            })
            .collect()
    }

    /// Concatenates tensors along axis 0 (the batch axis).
    ///
    /// The inverse of [`split_batch`](Self::split_batch): parts, owned
    /// or borrowed, must share every non-batch dimension; their batch
    /// sizes add up.
    ///
    /// # Errors
    ///
    /// Returns [`NnirError::ShapeMismatch`] if `parts` is empty, a part
    /// is rank-0, or the non-batch dimensions disagree.
    pub fn concat_batch<T: Borrow<Tensor>>(parts: &[T]) -> Result<Tensor, NnirError> {
        let first = parts
            .first()
            .map(Borrow::borrow)
            .ok_or_else(|| NnirError::ShapeMismatch {
                op: "Tensor::concat_batch".into(),
                detail: "cannot concatenate zero tensors".into(),
            })?;
        if first.shape.rank() == 0 {
            return Err(NnirError::ShapeMismatch {
                op: "Tensor::concat_batch".into(),
                detail: "rank-0 tensor has no batch axis".into(),
            });
        }
        let mut batch = 0usize;
        let mut data = Vec::new();
        for part in parts.iter().map(Borrow::borrow) {
            if !part.shape.same_features(&first.shape) {
                return Err(NnirError::ShapeMismatch {
                    op: "Tensor::concat_batch".into(),
                    detail: format!("non-batch dims differ: {} vs {}", part.shape, first.shape),
                });
            }
            batch += part.shape.dim(0).unwrap_or(0);
            data.extend_from_slice(&part.data);
        }
        Tensor::from_vec(first.shape.with_batch(batch), data)
    }

    /// Fills the tensor with pseudo-random values in `[-scale, scale]`
    /// using the given deterministic seed (xorshift; reproducible across
    /// platforms, no external RNG state).
    pub fn fill_random(&mut self, seed: u64, scale: f32) {
        self.quant = None;
        // The raw-state seeding reproduces the historical inline
        // xorshift64* stream exactly, so seeded fixtures are stable.
        let mut rng = crate::det::DetRng::from_raw_state(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for x in &mut self.data {
            let unit = (rng.next_u64() >> 11) as f32 / (1u64 << 53) as f32; // [0,1)
            *x = (unit * 2.0 - 1.0) * scale;
        }
    }

    /// Convenience constructor: random tensor in `[-scale, scale]`.
    #[must_use]
    pub fn random(shape: Shape, seed: u64, scale: f32) -> Self {
        let mut t = Tensor::zeros(shape);
        t.fill_random(seed, scale);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(Shape::nf(2, 2), vec![0.0; 3]).is_err());
        assert!(Tensor::from_vec(Shape::nf(2, 2), vec![0.0; 4]).is_ok());
    }

    #[test]
    fn indexing_round_trip() {
        let mut t = Tensor::zeros(Shape::nchw(1, 2, 3, 4));
        t.set(&[0, 1, 2, 3], 7.5);
        assert_eq!(t.at(&[0, 1, 2, 3]), 7.5);
        assert_eq!(t.at(&[0, 0, 0, 0]), 0.0);
    }

    #[test]
    fn argmax_first_of_ties() {
        let t = Tensor::from_vec(Shape::nf(1, 4), vec![1.0, 3.0, 3.0, 2.0]).unwrap();
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn random_is_deterministic_and_bounded() {
        let a = Tensor::random(Shape::nf(10, 10), 42, 0.5);
        let b = Tensor::random(Shape::nf(10, 10), 42, 0.5);
        assert_eq!(a, b);
        assert!(a.abs_max() <= 0.5);
        let c = Tensor::random(Shape::nf(10, 10), 43, 0.5);
        assert_ne!(a, c);
    }

    #[test]
    fn max_abs_diff_requires_same_shape() {
        let a = Tensor::zeros(Shape::nf(1, 2));
        let b = Tensor::zeros(Shape::nf(2, 1));
        assert!(a.max_abs_diff(&b).is_err());
        let c = Tensor::full(Shape::nf(1, 2), 0.25);
        assert_eq!(a.max_abs_diff(&c).unwrap(), 0.25);
    }

    #[test]
    fn split_and_concat_batch_round_trip() {
        let t =
            Tensor::from_vec(Shape::nchw(3, 1, 1, 2), (0..6).map(|x| x as f32).collect()).unwrap();
        let rows = t.split_batch().unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[1].shape(), &Shape::nchw(1, 1, 1, 2));
        assert_eq!(rows[1].data(), &[2.0, 3.0]);
        let merged = Tensor::concat_batch(&rows).unwrap();
        assert_eq!(merged, t);
        // Uneven batch sizes also concatenate.
        let pair = Tensor::concat_batch(&[t.clone(), rows[0].clone()]).unwrap();
        assert_eq!(pair.shape(), &Shape::nchw(4, 1, 1, 2));
        assert_eq!(&pair.data()[6..], rows[0].data());
    }

    #[test]
    fn concat_batch_rejects_feature_mismatch_and_empty() {
        let a = Tensor::zeros(Shape::nf(1, 3));
        let b = Tensor::zeros(Shape::nf(1, 4));
        assert!(Tensor::concat_batch(&[a.clone(), b]).is_err());
        assert!(Tensor::concat_batch::<Tensor>(&[]).is_err());
        assert!(Tensor::concat_batch(&[a, Tensor::zeros(Shape::scalar())]).is_err());
    }

    #[test]
    fn split_batch_rejects_scalars() {
        assert!(Tensor::zeros(Shape::scalar()).split_batch().is_err());
    }

    #[test]
    fn per_channel_quantization_sets_payload_and_dequantized_view() {
        let mut t =
            Tensor::from_vec(Shape::nf(2, 3), vec![1.0, -0.5, 0.25, 100.0, -50.0, 25.0]).unwrap();
        t.quantize_i8_per_channel();
        let q = t.quant().expect("payload");
        assert_eq!(q.dtype, DataType::I8);
        assert_eq!(q.scales.len(), 2);
        // Each row gets its own scale: 1/127 and 100/127.
        assert!((q.scales[0] - 1.0 / 127.0).abs() < 1e-9);
        assert!((q.scales[1] - 100.0 / 127.0).abs() < 1e-9);
        // The f32 view is exactly the dequantized codes.
        for r in 0..2 {
            for i in 0..3 {
                assert_eq!(
                    t.data()[r * 3 + i],
                    f32::from(q.codes[r * 3 + i]) * q.scales[r]
                );
            }
        }
    }

    #[test]
    fn round_i8_is_bit_identical_to_libm_round_and_clamp() {
        let mut inputs = vec![
            0.0,
            -0.0,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::from_bits(0x007f_ffff),
            -f32::MIN_POSITIVE,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::MAX,
            -f32::MAX,
        ];
        // Every rounding boundary in and just past the clamp range, with
        // its ±1-ulp neighbours.
        for k in -131..=130 {
            let half = k as f32 + 0.5;
            let bits = half.to_bits();
            inputs.extend([f32::from_bits(bits - 1), half, f32::from_bits(bits + 1)]);
        }
        // A prime stride over all bit patterns: every exponent, both
        // signs, NaN payloads.
        inputs.extend((0..=u32::MAX).step_by(4093).map(f32::from_bits));
        for x in inputs {
            assert_eq!(
                round_i8(x).to_bits(),
                x.round().clamp(-127.0, 127.0).to_bits(),
                "{x:e} ({:#010x})",
                x.to_bits()
            );
        }
    }

    #[test]
    fn zero_rows_quantize_to_zero_scale() {
        let mut t = Tensor::from_vec(Shape::nf(2, 2), vec![0.0, 0.0, 2.0, -1.0]).unwrap();
        t.quantize_i8_per_channel();
        let q = t.quant().unwrap();
        assert_eq!(q.scales[0], 0.0);
        assert_eq!(&q.codes[..2], &[0, 0]);
        assert!(q.scales[1] > 0.0);
    }

    #[test]
    fn mutation_drops_quant_payload() {
        let mut t = Tensor::random(Shape::nf(2, 4), 3, 1.0);
        t.quantize_i8_per_channel();
        assert!(t.quant().is_some());
        t.data_mut()[0] = 9.0;
        assert!(t.quant().is_none());
        t.quantize_i8_per_channel();
        t.set(&[0, 0], 1.0);
        assert!(t.quant().is_none());
        t.quantize_i8_per_channel();
        t.fill_random(1, 1.0);
        assert!(t.quant().is_none());
        // Reshape changes the row axis, so the payload does not follow.
        let mut t = Tensor::random(Shape::nf(2, 4), 5, 1.0);
        t.quantize_i8_per_channel();
        assert!(t.reshape(Shape::nf(4, 2)).unwrap().quant().is_none());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(Shape::nf(2, 3), vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        let r = t.reshape(Shape::new(vec![3, 2])).unwrap();
        assert_eq!(r.at(&[2, 1]), 5.0);
        assert!(t.reshape(Shape::nf(4, 2)).is_err());
    }
}
