//! The operator set.
//!
//! Operators cover everything needed by the paper's three evaluation
//! networks (ResNet-50, MobileNetV3-Large, YOLOv4) and the use-case
//! networks: convolutions (grouped/depthwise), dense layers, batch
//! normalization, the activation families of all three networks, pooling,
//! residual add, squeeze-excite multiply, concat, nearest upsampling,
//! flatten and softmax.
//!
//! Each operator knows how to infer its output shape, count its parameters
//! and count its MACs / element-wise operations — the quantities the
//! accelerator models in `vedliot-accel` consume.

use crate::shape::Shape;
use crate::NnirError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Activation function kinds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ActKind {
    /// Rectified linear unit.
    Relu,
    /// ReLU clamped at 6 (MobileNet family).
    Relu6,
    /// Leaky ReLU with the given negative slope (YOLO family).
    LeakyRelu(f32),
    /// Hard swish, `x * relu6(x + 3) / 6` (MobileNetV3).
    HardSwish,
    /// Hard sigmoid, `relu6(x + 3) / 6` (MobileNetV3 squeeze-excite gates).
    HardSigmoid,
    /// Logistic sigmoid.
    Sigmoid,
    /// Mish, `x * tanh(softplus(x))` (YOLOv4 backbone).
    Mish,
    /// SiLU / swish, `x * sigmoid(x)` (EfficientNet family).
    Silu,
    /// Hyperbolic tangent.
    Tanh,
}

impl ActKind {
    /// Applies the activation to a scalar.
    #[must_use]
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            // Not `x.max(0.0)`: that leaves the sign of ReLU(-0.0) to
            // the lowering (+0.0 from an optimized build's `maxss`,
            // -0.0 from the libm call of a debug build). This is the
            // optimized lowering spelled out: every zero, negative and
            // NaN goes to +0.0, which the INT8 conv's folded max-pool
            // relies on (DESIGN.md §10).
            ActKind::Relu => {
                if x > 0.0 {
                    x
                } else {
                    0.0
                }
            }
            ActKind::Relu6 => x.clamp(0.0, 6.0),
            ActKind::LeakyRelu(slope) => {
                if x >= 0.0 {
                    x
                } else {
                    slope * x
                }
            }
            ActKind::HardSwish => x * ((x + 3.0).clamp(0.0, 6.0)) / 6.0,
            ActKind::HardSigmoid => ((x + 3.0).clamp(0.0, 6.0)) / 6.0,
            ActKind::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            ActKind::Mish => x * ((1.0 + x.exp()).ln()).tanh(),
            ActKind::Silu => x / (1.0 + (-x).exp()),
            ActKind::Tanh => x.tanh(),
        }
    }

    /// Worst-case output magnitude given a worst-case input magnitude
    /// `a` (i.e. `max |f(x)| for |x| <= a`). Used by the
    /// quantization-readiness analysis to propagate value ranges.
    #[must_use]
    pub fn abs_bound(self, a: f32) -> f32 {
        match self {
            // |relu(x)| <= |x|; same for the self-gated families whose
            // gate is in [0, 1].
            ActKind::Relu | ActKind::HardSwish | ActKind::Silu => a,
            ActKind::Relu6 => a.min(6.0),
            // Negative side is scaled by |slope| (which may exceed 1).
            ActKind::LeakyRelu(slope) => a * slope.abs().max(1.0),
            ActKind::HardSigmoid | ActKind::Sigmoid => 1.0,
            ActKind::Tanh => 1.0,
            // mish(x) <= x for x > 0 and is bounded below by ~ -0.31.
            ActKind::Mish => a.max(0.31),
        }
    }
}

impl fmt::Display for ActKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActKind::Relu => write!(f, "ReLU"),
            ActKind::Relu6 => write!(f, "ReLU6"),
            ActKind::LeakyRelu(s) => write!(f, "LeakyReLU({s})"),
            ActKind::HardSwish => write!(f, "HardSwish"),
            ActKind::HardSigmoid => write!(f, "HardSigmoid"),
            ActKind::Sigmoid => write!(f, "Sigmoid"),
            ActKind::Mish => write!(f, "Mish"),
            ActKind::Silu => write!(f, "SiLU"),
            ActKind::Tanh => write!(f, "Tanh"),
        }
    }
}

/// 2-D convolution attributes shared by [`Op::Conv2d`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Conv2dAttrs {
    /// Number of output channels.
    pub out_channels: usize,
    /// Kernel extent (height, width).
    pub kernel: (usize, usize),
    /// Stride (height, width).
    pub stride: (usize, usize),
    /// Symmetric zero padding (height, width).
    pub padding: (usize, usize),
    /// Channel groups; `groups == in_channels == out_channels` is depthwise.
    pub groups: usize,
    /// Whether a bias vector is present.
    pub bias: bool,
}

impl Conv2dAttrs {
    /// Standard (non-grouped) convolution with square kernel and "same"
    /// padding for odd kernels.
    #[must_use]
    pub fn same(out_channels: usize, kernel: usize, stride: usize) -> Self {
        Conv2dAttrs {
            out_channels,
            kernel: (kernel, kernel),
            stride: (stride, stride),
            padding: (kernel / 2, kernel / 2),
            groups: 1,
            bias: false,
        }
    }

    /// 1x1 pointwise convolution.
    #[must_use]
    pub fn pointwise(out_channels: usize) -> Self {
        Conv2dAttrs::same(out_channels, 1, 1)
    }

    /// Depthwise convolution over `channels`.
    #[must_use]
    pub fn depthwise(channels: usize, kernel: usize, stride: usize) -> Self {
        Conv2dAttrs {
            out_channels: channels,
            kernel: (kernel, kernel),
            stride: (stride, stride),
            padding: (kernel / 2, kernel / 2),
            groups: channels,
            bias: false,
        }
    }

    /// Returns a copy with a bias vector.
    #[must_use]
    pub fn with_bias(mut self) -> Self {
        self.bias = true;
        self
    }
}

/// Pooling attributes for [`Op::MaxPool2d`] / [`Op::AvgPool2d`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pool2dAttrs {
    /// Window extent (height, width).
    pub kernel: (usize, usize),
    /// Stride (height, width).
    pub stride: (usize, usize),
    /// Symmetric zero padding (height, width).
    pub padding: (usize, usize),
}

impl Pool2dAttrs {
    /// Square window with equal stride and no padding.
    #[must_use]
    pub fn square(kernel: usize, stride: usize) -> Self {
        Pool2dAttrs {
            kernel: (kernel, kernel),
            stride: (stride, stride),
            padding: (0, 0),
        }
    }

    /// Returns a copy with symmetric padding.
    #[must_use]
    pub fn with_padding(mut self, pad: usize) -> Self {
        self.padding = (pad, pad);
        self
    }

    /// Whether every window holds at least one input tap: kernel past
    /// padding in both dimensions. Such a max-pool outputs one of its
    /// inputs, bit for bit, and never its padding.
    #[must_use]
    pub fn has_taps(&self) -> bool {
        self.kernel.0 > self.padding.0 && self.kernel.1 > self.padding.1
    }
}

/// An IR operator.
///
/// Operators are pure descriptions; weights live on the graph node
/// ([`crate::graph::Node`]) so the same operator value can be shared and
/// compared structurally.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Op {
    /// Graph input placeholder with a fixed shape.
    Input(Shape),
    /// 2-D convolution (supports grouped and depthwise via `groups`).
    Conv2d(Conv2dAttrs),
    /// Fully-connected layer producing `out_features`.
    Dense {
        /// Output feature count.
        out_features: usize,
        /// Whether a bias vector is present.
        bias: bool,
    },
    /// Batch normalization (inference form: per-channel scale and shift).
    BatchNorm,
    /// Element-wise activation.
    Activation(ActKind),
    /// Max pooling.
    MaxPool2d(Pool2dAttrs),
    /// Average pooling.
    AvgPool2d(Pool2dAttrs),
    /// Global average pooling to `[n, c, 1, 1]`.
    GlobalAvgPool,
    /// Element-wise addition of two tensors of identical shape.
    Add,
    /// Element-wise multiply; the second input may be `[n, c, 1, 1]`
    /// (squeeze-excite broadcast) or the same shape as the first.
    Mul,
    /// Channel-axis concatenation of two or more NCHW tensors.
    Concat,
    /// Nearest-neighbour spatial upsampling by an integer factor.
    Upsample {
        /// Integer scale factor applied to H and W.
        factor: usize,
    },
    /// Flattens `[n, ...]` to `[n, f]`.
    Flatten,
    /// Softmax over the last dimension.
    Softmax,
    /// Fake-quantization of activations to the symmetric INT8 grid with
    /// the given scale (inserted by post-training quantization after
    /// range calibration; identity shape).
    FakeQuant {
        /// Quantization step (absmax / 127 from calibration).
        scale: f32,
    },
}

/// Computes the output extent of a strided, padded window operation:
/// `None` when the window is empty, the stride zero, the padded extent
/// overflows `usize`, or the window does not fit the padded input.
fn window_out(input: usize, kernel: usize, stride: usize, pad: usize) -> Option<usize> {
    let padded = pad.checked_mul(2)?.checked_add(input)?;
    if kernel == 0 || stride == 0 || padded < kernel {
        return None;
    }
    Some((padded - kernel) / stride + 1)
}

/// The `[n, c, oh, ow]` of windows of `kernel`, `stride` and `padding`
/// over NCHW input `s`, or why they do not fit it.
fn windows(
    s: &Shape,
    (kh, kw): (usize, usize),
    (sh, sw): (usize, usize),
    (ph, pw): (usize, usize),
) -> Result<[usize; 4], String> {
    let [n, c, h, w] = nchw(s).ok_or_else(|| format!("expected NCHW input, got {s}"))?;
    match (window_out(h, kh, sh, ph), window_out(w, kw, sw, pw)) {
        (Some(oh), Some(ow)) => Ok([n, c, oh, ow]),
        _ => Err(format!(
            "a {kh}x{kw} window with stride {sh}x{sw} and padding {ph}x{pw} does not fit input {s}"
        )),
    }
}

impl Op {
    /// Short operator name for reports and error messages.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Op::Input(_) => "Input",
            Op::Conv2d(_) => "Conv2d",
            Op::Dense { .. } => "Dense",
            Op::BatchNorm => "BatchNorm",
            Op::Activation(_) => "Activation",
            Op::MaxPool2d(_) => "MaxPool2d",
            Op::AvgPool2d(_) => "AvgPool2d",
            Op::GlobalAvgPool => "GlobalAvgPool",
            Op::Add => "Add",
            Op::Mul => "Mul",
            Op::Concat => "Concat",
            Op::Upsample { .. } => "Upsample",
            Op::Flatten => "Flatten",
            Op::Softmax => "Softmax",
            Op::FakeQuant { .. } => "FakeQuant",
        }
    }

    /// Number of inputs the operator expects, or `None` for variadic ops.
    #[must_use]
    pub fn arity(&self) -> Option<usize> {
        match self {
            Op::Input(_) => Some(0),
            Op::Add | Op::Mul => Some(2),
            Op::Concat => None,
            _ => Some(1),
        }
    }

    /// Infers the output shape from input shapes.
    ///
    /// # Errors
    ///
    /// Returns [`NnirError::ArityMismatch`] for a wrong input count,
    /// [`NnirError::ShapeMismatch`] when a constraint is violated and
    /// [`NnirError::InvalidAttribute`] for degenerate attributes.
    pub fn infer_shape(&self, inputs: &[&Shape]) -> Result<Shape, NnirError> {
        if let Some(expected) = self.arity() {
            if inputs.len() != expected {
                return Err(NnirError::ArityMismatch {
                    op: self.name().into(),
                    expected,
                    got: inputs.len(),
                });
            }
        }
        let mismatch = |detail: String| NnirError::ShapeMismatch {
            op: self.name().into(),
            detail,
        };
        match self {
            Op::Input(shape) => Ok(shape.clone()),
            Op::Conv2d(attrs) => {
                let [n, c, oh, ow] = windows(inputs[0], attrs.kernel, attrs.stride, attrs.padding)
                    .map_err(mismatch)?;
                if attrs.groups == 0
                    || c % attrs.groups != 0
                    || attrs.out_channels % attrs.groups != 0
                {
                    return Err(NnirError::InvalidAttribute {
                        op: "Conv2d".into(),
                        detail: format!(
                            "groups {} must divide in_channels {} and out_channels {}",
                            attrs.groups, c, attrs.out_channels
                        ),
                    });
                }
                Ok(Shape::nchw(n, attrs.out_channels, oh, ow))
            }
            Op::Dense { out_features, .. } => {
                let s = inputs[0];
                if s.rank() != 2 {
                    return Err(mismatch(format!("expected [n, f] input, got {s}")));
                }
                if *out_features == 0 {
                    return Err(NnirError::InvalidAttribute {
                        op: "Dense".into(),
                        detail: "zero output features".into(),
                    });
                }
                Ok(Shape::nf(s.batch(), *out_features))
            }
            Op::BatchNorm if inputs[0].rank() < 2 => Err(mismatch(format!(
                "expected an input with a channel dim, got {}",
                inputs[0]
            ))),
            Op::BatchNorm | Op::Activation(_) => Ok(inputs[0].clone()),
            Op::FakeQuant { scale } => {
                if !scale.is_finite() || *scale < 0.0 {
                    return Err(NnirError::InvalidAttribute {
                        op: "FakeQuant".into(),
                        detail: format!("scale {scale} must be finite and non-negative"),
                    });
                }
                Ok(inputs[0].clone())
            }
            Op::MaxPool2d(attrs) | Op::AvgPool2d(attrs) => {
                let [n, c, oh, ow] = windows(inputs[0], attrs.kernel, attrs.stride, attrs.padding)
                    .map_err(mismatch)?;
                Ok(Shape::nchw(n, c, oh, ow))
            }
            Op::GlobalAvgPool => {
                let s = inputs[0];
                let [n, c, _, _] =
                    nchw(s).ok_or_else(|| mismatch(format!("expected NCHW input, got {s}")))?;
                Ok(Shape::nchw(n, c, 1, 1))
            }
            Op::Add => {
                if inputs[0] != inputs[1] {
                    return Err(mismatch(format!("{} vs {}", inputs[0], inputs[1])));
                }
                Ok(inputs[0].clone())
            }
            Op::Mul => {
                let a = inputs[0];
                let b = inputs[1];
                if a == b {
                    return Ok(a.clone());
                }
                // Squeeze-excite broadcast: [n,c,h,w] * [n,c,1,1].
                match (nchw(a), nchw(b)) {
                    (Some([n, c, _, _]), Some([bn, bc, 1, 1])) if n == bn && c == bc => {
                        Ok(a.clone())
                    }
                    _ => Err(mismatch(format!("{a} cannot be scaled by {b}"))),
                }
            }
            Op::Concat => {
                if inputs.len() < 2 {
                    return Err(NnirError::ArityMismatch {
                        op: "Concat".into(),
                        expected: 2,
                        got: inputs.len(),
                    });
                }
                let [n, mut c, h, w] = nchw(inputs[0])
                    .ok_or_else(|| mismatch(format!("expected NCHW input, got {}", inputs[0])))?;
                for s in &inputs[1..] {
                    let [sn, sc, sh, sw] =
                        nchw(s).ok_or_else(|| mismatch(format!("expected NCHW input, got {s}")))?;
                    if sn != n || sh != h || sw != w {
                        return Err(mismatch(format!("{} vs {s}", inputs[0])));
                    }
                    c = c
                        .checked_add(sc)
                        .ok_or_else(|| mismatch("channel count overflows".into()))?;
                }
                Ok(Shape::nchw(n, c, h, w))
            }
            Op::Upsample { factor } => {
                if *factor == 0 {
                    return Err(NnirError::InvalidAttribute {
                        op: "Upsample".into(),
                        detail: "factor must be positive".into(),
                    });
                }
                let s = inputs[0];
                let [n, c, h, w] =
                    nchw(s).ok_or_else(|| mismatch(format!("expected NCHW input, got {s}")))?;
                match (h.checked_mul(*factor), w.checked_mul(*factor)) {
                    (Some(uh), Some(uw)) => Ok(Shape::nchw(n, c, uh, uw)),
                    _ => Err(mismatch(format!("upsampling {s} by {factor} overflows"))),
                }
            }
            Op::Flatten => {
                let s = inputs[0];
                if s.rank() == 0 {
                    return Err(mismatch("cannot flatten a scalar".into()));
                }
                let features = s.dims()[1..]
                    .iter()
                    .try_fold(1usize, |f, &d| f.checked_mul(d))
                    .ok_or_else(|| mismatch(format!("flattening {s} overflows")))?;
                Ok(Shape::nf(s.batch(), features))
            }
            Op::Softmax => {
                let s = inputs[0];
                if s.rank() < 1 {
                    return Err(mismatch("softmax needs at least rank 1".into()));
                }
                Ok(s.clone())
            }
        }
    }

    /// Multiply-accumulate count for the given input/output shapes,
    /// saturating at `u64::MAX`.
    ///
    /// Only Conv2d and Dense accumulate; everything else contributes
    /// element-wise operations (see [`Op::elementwise_ops`]).
    #[must_use]
    pub fn macs(&self, inputs: &[&Shape], output: &Shape) -> u64 {
        match self {
            Op::Conv2d(attrs) => {
                let in_c = inputs.first().and_then(|s| s.dim(1)).unwrap_or(0);
                let icg = in_c.checked_div(attrs.groups).unwrap_or(0);
                [icg, attrs.kernel.0, attrs.kernel.1]
                    .iter()
                    .fold(output.elem_count() as u64, |n, &d| {
                        n.saturating_mul(d as u64)
                    })
            }
            Op::Dense { .. } => {
                let in_f = inputs.first().and_then(|s| s.dim(1)).unwrap_or(0);
                (output.elem_count() as u64).saturating_mul(in_f as u64)
            }
            _ => 0,
        }
    }

    /// Element-wise operation count (activations, norms, adds, pools...),
    /// a pool's saturating at `u64::MAX`.
    #[must_use]
    pub fn elementwise_ops(&self, inputs: &[&Shape], output: &Shape) -> u64 {
        match self {
            Op::Input(_) | Op::Conv2d(_) | Op::Dense { .. } | Op::Flatten => 0,
            Op::BatchNorm => 2 * output.elem_count() as u64,
            Op::Activation(_)
            | Op::Add
            | Op::Mul
            | Op::Upsample { .. }
            | Op::Concat
            | Op::FakeQuant { .. } => output.elem_count() as u64,
            Op::MaxPool2d(attrs) | Op::AvgPool2d(attrs) => (output.elem_count() as u64)
                .saturating_mul(attrs.kernel.0 as u64)
                .saturating_mul(attrs.kernel.1 as u64),
            Op::GlobalAvgPool => inputs[0].elem_count() as u64,
            Op::Softmax => 3 * output.elem_count() as u64,
        }
    }

    /// Number of learned parameters given the input shapes.
    #[must_use]
    pub fn param_count(&self, inputs: &[&Shape]) -> usize {
        match self {
            Op::Conv2d(attrs) => {
                let in_c = inputs[0].dim(1).unwrap_or(0);
                let weights =
                    attrs.out_channels * (in_c / attrs.groups) * attrs.kernel.0 * attrs.kernel.1;
                weights + if attrs.bias { attrs.out_channels } else { 0 }
            }
            Op::Dense { out_features, bias } => {
                let in_f = inputs[0].dim(1).unwrap_or(0);
                out_features * in_f + if *bias { *out_features } else { 0 }
            }
            Op::BatchNorm => {
                // Inference form keeps per-channel scale and shift.
                2 * inputs[0].dim(1).unwrap_or(0)
            }
            _ => 0,
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Activation(a) => write!(f, "{a}"),
            Op::Conv2d(a) => write!(
                f,
                "Conv2d({}o, {}x{}/{}, g{})",
                a.out_channels, a.kernel.0, a.kernel.1, a.stride.0, a.groups
            ),
            other => f.write_str(other.name()),
        }
    }
}

/// Destructures an NCHW shape.
fn nchw(s: &Shape) -> Option<[usize; 4]> {
    if s.rank() == 4 {
        Some([s.dim(0)?, s.dim(1)?, s.dim(2)?, s.dim(3)?])
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn infer(op: &Op, inputs: &[Shape]) -> Result<Shape, NnirError> {
        let refs: Vec<&Shape> = inputs.iter().collect();
        op.infer_shape(&refs)
    }

    #[test]
    fn conv_same_padding_preserves_spatial() {
        let op = Op::Conv2d(Conv2dAttrs::same(64, 3, 1));
        let out = infer(&op, &[Shape::nchw(1, 3, 32, 32)]).unwrap();
        assert_eq!(out, Shape::nchw(1, 64, 32, 32));
    }

    #[test]
    fn conv_stride_two_halves_spatial() {
        let op = Op::Conv2d(Conv2dAttrs::same(16, 3, 2));
        let out = infer(&op, &[Shape::nchw(2, 8, 64, 64)]).unwrap();
        assert_eq!(out, Shape::nchw(2, 16, 32, 32));
    }

    #[test]
    fn conv_seven_by_seven_stride_two_imagenet_stem() {
        // ResNet-50 stem: 224 -> 112.
        let op = Op::Conv2d(Conv2dAttrs {
            out_channels: 64,
            kernel: (7, 7),
            stride: (2, 2),
            padding: (3, 3),
            groups: 1,
            bias: false,
        });
        let out = infer(&op, &[Shape::nchw(1, 3, 224, 224)]).unwrap();
        assert_eq!(out, Shape::nchw(1, 64, 112, 112));
    }

    #[test]
    fn depthwise_groups_must_divide() {
        let mut attrs = Conv2dAttrs::depthwise(8, 3, 1);
        attrs.groups = 3;
        let op = Op::Conv2d(attrs);
        assert!(matches!(
            infer(&op, &[Shape::nchw(1, 8, 8, 8)]),
            Err(NnirError::InvalidAttribute { .. })
        ));
    }

    #[test]
    fn conv_macs_standard_and_depthwise() {
        // Standard: out_elems * in_c * k*k.
        let op = Op::Conv2d(Conv2dAttrs::same(64, 3, 1));
        let input = Shape::nchw(1, 32, 16, 16);
        let out = infer(&op, std::slice::from_ref(&input)).unwrap();
        assert_eq!(
            op.macs(&[&input], &out),
            (64 * 16 * 16) as u64 * (32 * 9) as u64
        );

        // Depthwise: out_elems * k*k only.
        let dw = Op::Conv2d(Conv2dAttrs::depthwise(32, 3, 1));
        let out = infer(&dw, std::slice::from_ref(&input)).unwrap();
        assert_eq!(dw.macs(&[&input], &out), (32 * 16 * 16) as u64 * 9);
    }

    #[test]
    fn dense_params_and_macs() {
        let op = Op::Dense {
            out_features: 10,
            bias: true,
        };
        let input = Shape::nf(4, 128);
        let out = infer(&op, std::slice::from_ref(&input)).unwrap();
        assert_eq!(out, Shape::nf(4, 10));
        assert_eq!(op.param_count(&[&input]), 128 * 10 + 10);
        assert_eq!(op.macs(&[&input], &out), 4 * 10 * 128);
    }

    #[test]
    fn maxpool_output_shape() {
        let op = Op::MaxPool2d(Pool2dAttrs::square(2, 2));
        let out = infer(&op, &[Shape::nchw(1, 16, 8, 8)]).unwrap();
        assert_eq!(out, Shape::nchw(1, 16, 4, 4));
    }

    #[test]
    fn pool_window_too_large_is_error() {
        let op = Op::MaxPool2d(Pool2dAttrs::square(9, 1));
        assert!(infer(&op, &[Shape::nchw(1, 1, 8, 8)]).is_err());
    }

    #[test]
    fn window_arithmetic_that_overflows_is_a_typed_error() {
        // `h + 2·pad` past `usize::MAX` used to panic in a debug build and
        // wrap to a `[1, 1, 2, 4]` output in a release build.
        let s = Shape::nchw(1, 1, 4, 4);
        let conv = Conv2dAttrs {
            padding: (1 << 63, 1),
            ..Conv2dAttrs::same(1, 3, 1)
        };
        let pool = Pool2dAttrs::square(3, 1).with_padding(1 << 63);
        for op in [Op::Conv2d(conv), Op::MaxPool2d(pool), Op::AvgPool2d(pool)] {
            let err = infer(&op, std::slice::from_ref(&s));
            assert!(
                matches!(err, Err(NnirError::ShapeMismatch { .. })),
                "{err:?}"
            );
            let mut b = crate::graph::GraphBuilder::new("g");
            let x = b.input(s.clone());
            assert!(b.apply("op", op, &[x]).is_err());
        }
    }

    #[test]
    fn upsample_flatten_and_concat_extents_that_overflow_are_typed_errors() {
        let huge = Shape::nchw(1, 1 << 62, 1, 4);
        let cases = [
            (
                Op::Upsample { factor: 1 << 62 },
                vec![Shape::nchw(1, 1, 4, 4)],
            ),
            (Op::Flatten, vec![huge.clone()]),
            (
                Op::Concat,
                vec![huge.clone(), huge.clone(), huge.clone(), huge],
            ),
        ];
        for (op, inputs) in cases {
            let err = infer(&op, &inputs);
            assert!(
                matches!(err, Err(NnirError::ShapeMismatch { .. })),
                "{op}: {err:?}"
            );
        }
    }

    #[test]
    fn empty_windows_dense_outputs_and_channelless_batchnorm_are_rejected() {
        let s = Shape::nchw(1, 2, 4, 4);
        let conv = Conv2dAttrs {
            kernel: (0, 3),
            ..Conv2dAttrs::same(1, 3, 1)
        };
        assert!(infer(&Op::Conv2d(conv), std::slice::from_ref(&s)).is_err());
        let pool = Pool2dAttrs::square(0, 1);
        assert!(infer(&Op::MaxPool2d(pool), std::slice::from_ref(&s)).is_err());
        let dense = Op::Dense {
            out_features: 0,
            bias: false,
        };
        assert!(matches!(
            infer(&dense, &[Shape::nf(1, 3)]),
            Err(NnirError::InvalidAttribute { .. })
        ));
        assert!(infer(&Op::BatchNorm, &[Shape::new(vec![4])]).is_err());
        assert_eq!(
            infer(&Op::BatchNorm, &[Shape::nf(1, 4)]).unwrap(),
            Shape::nf(1, 4)
        );
    }

    #[test]
    fn add_requires_identical_shapes() {
        let a = Shape::nchw(1, 8, 4, 4);
        let b = Shape::nchw(1, 8, 4, 4);
        assert_eq!(infer(&Op::Add, &[a.clone(), b]).unwrap(), a.clone());
        assert!(infer(&Op::Add, &[a, Shape::nchw(1, 9, 4, 4)]).is_err());
    }

    #[test]
    fn mul_broadcasts_squeeze_excite() {
        let feat = Shape::nchw(2, 16, 8, 8);
        let gate = Shape::nchw(2, 16, 1, 1);
        assert_eq!(
            infer(&Op::Mul, &[feat.clone(), gate]).unwrap(),
            feat.clone()
        );
        assert!(infer(&Op::Mul, &[feat, Shape::nchw(2, 8, 1, 1)]).is_err());
    }

    #[test]
    fn concat_sums_channels() {
        let a = Shape::nchw(1, 8, 4, 4);
        let b = Shape::nchw(1, 24, 4, 4);
        assert_eq!(
            infer(&Op::Concat, &[a, b]).unwrap(),
            Shape::nchw(1, 32, 4, 4)
        );
    }

    #[test]
    fn concat_needs_two_inputs() {
        assert!(matches!(
            infer(&Op::Concat, &[Shape::nchw(1, 8, 4, 4)]),
            Err(NnirError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn upsample_scales_spatial() {
        let out = infer(&Op::Upsample { factor: 2 }, &[Shape::nchw(1, 8, 13, 13)]).unwrap();
        assert_eq!(out, Shape::nchw(1, 8, 26, 26));
    }

    #[test]
    fn flatten_collapses_features() {
        let out = infer(&Op::Flatten, &[Shape::nchw(2, 16, 4, 4)]).unwrap();
        assert_eq!(out, Shape::nf(2, 256));
    }

    #[test]
    fn arity_is_enforced() {
        assert!(matches!(
            infer(&Op::Add, &[Shape::nf(1, 4)]),
            Err(NnirError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn activations_are_correct_at_probe_points() {
        assert_eq!(ActKind::Relu.apply(-1.0), 0.0);
        assert_eq!(ActKind::Relu.apply(2.0), 2.0);
        assert_eq!(ActKind::Relu6.apply(9.0), 6.0);
        assert_eq!(ActKind::LeakyRelu(0.1).apply(-10.0), -1.0);
        // hard_swish(3) = 3 * 6/6 = 3; hard_swish(-3) = 0.
        assert!((ActKind::HardSwish.apply(3.0) - 3.0).abs() < 1e-6);
        assert_eq!(ActKind::HardSwish.apply(-3.0), 0.0);
        assert!((ActKind::Sigmoid.apply(0.0) - 0.5).abs() < 1e-6);
        // mish(0) = 0.
        assert!(ActKind::Mish.apply(0.0).abs() < 1e-6);
    }

    #[test]
    fn batchnorm_param_count_is_two_per_channel() {
        let s = Shape::nchw(1, 32, 8, 8);
        assert_eq!(Op::BatchNorm.param_count(&[&s]), 64);
    }
}
