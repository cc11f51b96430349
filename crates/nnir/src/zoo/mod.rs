//! Model zoo: from-scratch builders for the networks the paper evaluates.
//!
//! The paper's performance evaluation (§II-C) chose **ResNet50,
//! MobileNetV3 and YoloV4** "to determine comparable performance values of
//! available DL accelerators". These builders reconstruct the published
//! architectures layer by layer so their MAC and parameter counts match
//! the originals (asserted in tests against the published numbers), which
//! is what the accelerator models consume.
//!
//! Small networks for the industrial use cases (§V) and the compression
//! experiment live in `small`.

mod efficientnet;
mod mobilenet;
mod resnet;
mod small;
mod yolo;

pub use efficientnet::efficientnet_v2_s;
pub use mobilenet::mobilenet_v3_large;
pub use resnet::resnet50;
pub use small::{conv1d_classifier, lenet5, tiny_cnn};
pub use yolo::yolov4;

use crate::graph::{GraphBuilder, TensorId};
use crate::ops::{ActKind, Conv2dAttrs, Op};
use crate::NnirError;

/// Builder helper shared by the zoo: conv → batch-norm → activation
/// stacks with auto-generated layer names.
pub(crate) struct Stack {
    pub builder: GraphBuilder,
    counter: usize,
}

impl Stack {
    pub(crate) fn new(name: &str) -> Self {
        Stack {
            builder: GraphBuilder::new(name),
            counter: 0,
        }
    }

    pub(crate) fn next_name(&mut self, kind: &str) -> String {
        self.counter += 1;
        format!("{kind}{}", self.counter)
    }

    /// conv + bn + activation (the ubiquitous CNN building block).
    pub(crate) fn conv_bn_act(
        &mut self,
        x: TensorId,
        attrs: Conv2dAttrs,
        act: Option<ActKind>,
    ) -> Result<TensorId, NnirError> {
        let cname = self.next_name("conv");
        let c = self.builder.apply(cname.clone(), Op::Conv2d(attrs), &[x])?;
        let b = self
            .builder
            .apply(format!("{cname}.bn"), Op::BatchNorm, &[c])?;
        match act {
            Some(kind) => self
                .builder
                .apply(format!("{cname}.act"), Op::Activation(kind), &[b]),
            None => Ok(b),
        }
    }

    /// conv + activation without batch norm (heads, small nets).
    pub(crate) fn conv_act(
        &mut self,
        x: TensorId,
        attrs: Conv2dAttrs,
        act: Option<ActKind>,
    ) -> Result<TensorId, NnirError> {
        let cname = self.next_name("conv");
        let c = self.builder.apply(cname.clone(), Op::Conv2d(attrs), &[x])?;
        match act {
            Some(kind) => self
                .builder
                .apply(format!("{cname}.act"), Op::Activation(kind), &[c]),
            None => Ok(c),
        }
    }

    /// Squeeze-excite block: GAP → 1x1 reduce → ReLU → 1x1 expand →
    /// hard-sigmoid → channel-wise scale.
    pub(crate) fn squeeze_excite(
        &mut self,
        x: TensorId,
        channels: usize,
        reduced: usize,
    ) -> Result<TensorId, NnirError> {
        let name = self.next_name("se");
        let pooled = self
            .builder
            .apply(format!("{name}.pool"), Op::GlobalAvgPool, &[x])?;
        let r = self.builder.apply(
            format!("{name}.reduce"),
            Op::Conv2d(Conv2dAttrs::pointwise(reduced).with_bias()),
            &[pooled],
        )?;
        let r = self
            .builder
            .apply(format!("{name}.relu"), Op::Activation(ActKind::Relu), &[r])?;
        let e = self.builder.apply(
            format!("{name}.expand"),
            Op::Conv2d(Conv2dAttrs::pointwise(channels).with_bias()),
            &[r],
        )?;
        let gate = self.builder.apply(
            format!("{name}.gate"),
            Op::Activation(ActKind::HardSigmoid),
            &[e],
        )?;
        self.builder
            .apply(format!("{name}.scale"), Op::Mul, &[x, gate])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostReport;

    /// Published reference points (He et al. count multiply-adds):
    /// ResNet-50 ≈ 3.8–4.1 GMACs, 25.6 M params.
    #[test]
    fn resnet50_matches_published_costs() {
        let g = resnet50(1000).unwrap();
        g.validate().unwrap();
        let c = CostReport::of(&g).unwrap();
        assert!(
            (3.5e9..4.6e9).contains(&(c.total_macs as f64)),
            "resnet50 MACs = {}",
            c.total_macs
        );
        assert!(
            (24.0e6..27.5e6).contains(&(c.total_params as f64)),
            "resnet50 params = {}",
            c.total_params
        );
    }

    /// MobileNetV3-Large ≈ 219 MMACs, 5.4 M params.
    #[test]
    fn mobilenet_v3_matches_published_costs() {
        let g = mobilenet_v3_large(1000).unwrap();
        g.validate().unwrap();
        let c = CostReport::of(&g).unwrap();
        assert!(
            (170.0e6..280.0e6).contains(&(c.total_macs as f64)),
            "mobilenetv3 MACs = {}",
            c.total_macs
        );
        assert!(
            (4.0e6..6.5e6).contains(&(c.total_params as f64)),
            "mobilenetv3 params = {}",
            c.total_params
        );
    }

    /// YOLOv4 @416 ≈ 30 GMACs (59.6 BFLOPs at 2 ops/MAC), ~64 M params.
    #[test]
    fn yolov4_matches_published_costs() {
        let g = yolov4(416, 80).unwrap();
        g.validate().unwrap();
        let c = CostReport::of(&g).unwrap();
        assert!(
            (24.0e9..38.0e9).contains(&(c.total_macs as f64)),
            "yolov4 MACs = {}",
            c.total_macs
        );
        assert!(
            (55.0e6..72.0e6).contains(&(c.total_params as f64)),
            "yolov4 params = {}",
            c.total_params
        );
    }

    #[test]
    fn zoo_models_rebatch_cleanly() {
        let g = mobilenet_v3_large(10).unwrap();
        let g4 = g.with_batch(4).unwrap();
        g4.validate().unwrap();
        let c1 = CostReport::of(&g).unwrap();
        let c4 = CostReport::of(&g4).unwrap();
        assert_eq!(c4.total_macs, 4 * c1.total_macs);
    }

    #[test]
    fn arithmetic_intensity_separates_resnet_from_mobilenet() {
        // ResNet-50 re-uses each weight far more than MobileNetV3 — the
        // property that makes MobileNet memory-bound on real accelerators
        // (paper §III: theoretical speed-ups do not translate).
        let r = CostReport::of(&resnet50(1000).unwrap()).unwrap();
        let m = CostReport::of(&mobilenet_v3_large(1000).unwrap()).unwrap();
        assert!(r.macs_per_param() > 2.0 * m.macs_per_param());
    }
}
