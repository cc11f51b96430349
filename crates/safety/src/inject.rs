//! Fault injection.
//!
//! Paper §IV-B considers "errors … deriv\[ing\] from systematic faults
//! affecting the execution of DL models on devices or edge nodes …
//! triggered or injected during run-time (e.g., hardware faults,
//! attacks)". This module injects exactly those faults — weight bit
//! flips (SEUs), activation corruption, sensor faults — so monitors and
//! the robustness service can be evaluated quantitatively.
//!
//! Every seeded campaign draws from the shared deterministic RNG
//! substrate ([`vedliot_nnir::det`]), so a fault schedule observed once
//! replays bit-for-bit. The explicit-target entry points
//! ([`flip_tensor_bit`], [`corrupt_tensor_bits`]) validate their
//! coordinates and return a typed [`InjectError`] instead of panicking —
//! they are driven by external plans (the fleet OTA simulation), where a
//! malformed coordinate must be a diagnosable error, not a crash.

use vedliot_nnir::det::DetRng;
use vedliot_nnir::{Graph, NnirError, Op, Tensor};

/// Why an injection request could not be applied.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum InjectError {
    /// The target tensor has no elements to corrupt.
    EmptyTensor,
    /// The element index is outside the tensor.
    ElementOutOfRange {
        /// Requested element index.
        elem: usize,
        /// Number of elements in the tensor.
        len: usize,
    },
    /// The bit index is outside an `f32` (valid bits are `0..32`).
    BitIndexOutOfRange {
        /// Requested bit index.
        bit: u32,
    },
    /// The underlying graph rejected the operation.
    Graph(NnirError),
}

impl std::fmt::Display for InjectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InjectError::EmptyTensor => write!(f, "cannot inject into an empty tensor"),
            InjectError::ElementOutOfRange { elem, len } => {
                write!(f, "element index {elem} out of range for tensor of {len}")
            }
            InjectError::BitIndexOutOfRange { bit } => {
                write!(f, "bit index {bit} out of range for f32 (valid: 0..32)")
            }
            InjectError::Graph(e) => write!(f, "graph error during injection: {e}"),
        }
    }
}

impl std::error::Error for InjectError {}

impl From<NnirError> for InjectError {
    fn from(e: NnirError) -> Self {
        InjectError::Graph(e)
    }
}

/// A sensor fault applied to a time series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SensorFault {
    /// Value frozen from `start` onwards.
    StuckAt {
        /// First affected index.
        start: usize,
    },
    /// An additive spike of the given magnitude at one index.
    Spike {
        /// Affected index.
        at: usize,
        /// Spike magnitude.
        magnitude: f64,
    },
    /// Linear drift added from `start` onwards.
    Drift {
        /// First affected index.
        start: usize,
        /// Drift slope per sample.
        slope: f64,
    },
    /// Gaussian noise added everywhere.
    Noise {
        /// Noise standard deviation.
        sigma: f64,
    },
}

/// Applies a sensor fault to a copy of `series`.
#[must_use]
pub fn inject_sensor_fault(series: &[f64], fault: SensorFault, seed: u64) -> Vec<f64> {
    let mut out = series.to_vec();
    match fault {
        SensorFault::StuckAt { start } => {
            if start < out.len() {
                let frozen = out[start];
                for x in &mut out[start..] {
                    *x = frozen;
                }
            }
        }
        SensorFault::Spike { at, magnitude } => {
            if at < out.len() {
                out[at] += magnitude;
            }
        }
        SensorFault::Drift { start, slope } => {
            for (i, x) in out.iter_mut().enumerate().skip(start) {
                *x += slope * (i - start) as f64;
            }
        }
        SensorFault::Noise { sigma } => {
            let mut rng = DetRng::new(seed);
            for x in &mut out {
                *x += sigma * rng.gauss();
            }
        }
    }
    out
}

/// Report of a weight-corruption campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitFlipReport {
    /// Number of bits flipped.
    pub flips: usize,
    /// Layers affected.
    pub layers_hit: Vec<String>,
}

/// Flips `flips` random bits across the model's weight tensors (a
/// radiation/rowhammer-style fault model), materializing weights first.
///
/// Bit position is drawn uniformly over the 32 bits of each chosen f32 —
/// high-exponent flips produce the catastrophic output divergences the
/// robustness service must catch.
///
/// # Errors
///
/// Propagates graph errors (cannot occur on a valid graph).
pub fn flip_weight_bits(
    graph: &mut Graph,
    flips: usize,
    seed: u64,
) -> Result<BitFlipReport, NnirError> {
    // Candidates: weighted layers with a non-empty main tensor.
    let mut candidates: Vec<(&str, &mut Vec<Tensor>)> = graph
        .explicit_weights(|n| matches!(n.op, Op::Conv2d(_) | Op::Dense { .. }))
        .into_iter()
        .filter(|(_, w)| !w[0].data().is_empty())
        .collect();
    if candidates.is_empty() {
        return Ok(BitFlipReport {
            flips: 0,
            layers_hit: Vec::new(),
        });
    }
    let mut rng = DetRng::new(seed);
    let mut layers_hit = Vec::new();
    for _ in 0..flips {
        let pick = rng.index(candidates.len());
        let (name, weights) = &mut candidates[pick];
        let elem = rng.index(weights[0].data().len());
        let bit = rng.index(32) as u32;
        // The coordinates are drawn within bounds, so the flip lands.
        if flip_tensor_bit(&mut weights[0], elem, bit).is_err() {
            continue;
        }
        if !layers_hit.iter().any(|hit| hit == name) {
            layers_hit.push(name.to_string());
        }
    }
    graph.validate()?;
    Ok(BitFlipReport { flips, layers_hit })
}

/// Flips exactly one bit of one element in place — the precise-target
/// primitive behind every campaign above (and the fleet simulation's
/// installed-weight faults).
///
/// # Errors
///
/// [`InjectError::ElementOutOfRange`] / [`InjectError::BitIndexOutOfRange`]
/// when the coordinates do not address a bit of the tensor.
pub fn flip_tensor_bit(tensor: &mut Tensor, elem: usize, bit: u32) -> Result<(), InjectError> {
    let len = tensor.data().len();
    if elem >= len {
        return Err(InjectError::ElementOutOfRange { elem, len });
    }
    if bit >= 32 {
        return Err(InjectError::BitIndexOutOfRange { bit });
    }
    let raw = tensor.data()[elem].to_bits() ^ (1u32 << bit);
    tensor.data_mut()[elem] = f32::from_bits(raw);
    Ok(())
}

/// Applies an explicit list of `(element, bit)` flips to a copy of the
/// tensor, validating every coordinate before touching anything.
///
/// # Errors
///
/// Typed [`InjectError`]s on an empty tensor or out-of-range coordinates;
/// on error the input is untouched and nothing partial is returned.
pub fn corrupt_tensor_bits(tensor: &Tensor, flips: &[(usize, u32)]) -> Result<Tensor, InjectError> {
    if tensor.data().is_empty() && !flips.is_empty() {
        return Err(InjectError::EmptyTensor);
    }
    for &(elem, bit) in flips {
        let len = tensor.data().len();
        if elem >= len {
            return Err(InjectError::ElementOutOfRange { elem, len });
        }
        if bit >= 32 {
            return Err(InjectError::BitIndexOutOfRange { bit });
        }
    }
    let mut out = tensor.clone();
    for &(elem, bit) in flips {
        flip_tensor_bit(&mut out, elem, bit)?;
    }
    Ok(out)
}

/// Flips `flips` random bits in a copy of the tensor's values —
/// activation corruption, the runtime counterpart of
/// [`flip_weight_bits`] (a bit error striking a feature map buffer
/// between layers).
///
/// # Errors
///
/// [`InjectError::EmptyTensor`] when asked for at least one flip on a
/// tensor with no elements (there is no bit to corrupt).
pub fn corrupt_tensor(tensor: &Tensor, flips: usize, seed: u64) -> Result<Tensor, InjectError> {
    if flips == 0 {
        return Ok(tensor.clone());
    }
    if tensor.data().is_empty() {
        return Err(InjectError::EmptyTensor);
    }
    let mut rng = DetRng::new(seed);
    let len = tensor.data().len();
    let draws: Vec<(usize, u32)> = (0..flips)
        .map(|_| (rng.index(len), rng.index(32) as u32))
        .collect();
    corrupt_tensor_bits(tensor, &draws)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vedliot_nnir::exec::{RunOptions, Runner};
    use vedliot_nnir::graph::WeightInit;
    use vedliot_nnir::{zoo, Shape};

    /// One forward pass through a fresh default runner.
    fn run_once(g: &Graph, inputs: &[Tensor]) -> Vec<Tensor> {
        Runner::builder()
            .build(g)
            .unwrap()
            .execute(inputs, RunOptions::default())
            .unwrap()
            .into_outputs()
    }

    #[test]
    fn stuck_at_freezes_tail() {
        let series: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let faulty = inject_sensor_fault(&series, SensorFault::StuckAt { start: 5 }, 0);
        assert_eq!(&faulty[..5], &series[..5]);
        assert!(faulty[5..].iter().all(|&x| x == 5.0));
    }

    #[test]
    fn spike_affects_one_sample() {
        let series = vec![1.0; 8];
        let faulty = inject_sensor_fault(
            &series,
            SensorFault::Spike {
                at: 3,
                magnitude: 10.0,
            },
            0,
        );
        assert_eq!(faulty[3], 11.0);
        assert_eq!(faulty.iter().filter(|&&x| x != 1.0).count(), 1);
    }

    #[test]
    fn drift_grows_linearly() {
        let series = vec![0.0; 10];
        let faulty = inject_sensor_fault(
            &series,
            SensorFault::Drift {
                start: 4,
                slope: 0.5,
            },
            0,
        );
        assert_eq!(faulty[4], 0.0);
        assert_eq!(faulty[6], 1.0);
        assert_eq!(faulty[9], 2.5);
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let series = vec![0.0; 32];
        let a = inject_sensor_fault(&series, SensorFault::Noise { sigma: 1.0 }, 5);
        let b = inject_sensor_fault(&series, SensorFault::Noise { sigma: 1.0 }, 5);
        let c = inject_sensor_fault(&series, SensorFault::Noise { sigma: 1.0 }, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn catastrophic_bit_flip_is_verifier_catchable_as_suspect_weight() {
        use vedliot_nnir::analysis::{Analyzer, Code, Severity};

        // Search seeds until a flip lands in a high exponent bit and
        // produces a physically-implausible weight magnitude. The
        // uniform bit draw hits the exponent ~25% of the time, so this
        // terminates almost immediately.
        let mut found = None;
        for seed in 0..64 {
            let mut model = zoo::lenet5(10).unwrap();
            flip_weight_bits(&mut model, 8, seed).unwrap();
            let huge = model.nodes().iter().any(|n| match &n.weights {
                WeightInit::Explicit(ts) => ts
                    .iter()
                    .any(|t| t.data().iter().any(|w| !w.is_finite() || w.abs() > 1.0e6)),
                _ => false,
            });
            if huge {
                found = Some(model);
                break;
            }
        }
        let model = found.expect("some seed in 0..64 produces a catastrophic flip");

        // The legacy structural validator cannot see value corruption …
        model.validate().unwrap();
        // … and the Error gate still admits the graph (golden-copy
        // repair relies on corrupted graphs remaining executable) …
        assert!(Runner::builder().build(&model).is_ok());
        // … but the full analyzer flags the bit-flip signature as W105.
        let report = Analyzer::full().analyze(&model);
        assert!(report.is_clean(Severity::Error));
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == Code::SuspectWeight),
            "expected a W105 finding:\n{}",
            report.render("lenet5-flipped")
        );
    }

    #[test]
    fn bit_flips_change_model_outputs() {
        let mut model = zoo::lenet5(10).unwrap();
        let input = Tensor::random(Shape::nchw(1, 1, 28, 28), 3, 1.0);
        let clean = run_once(&model, std::slice::from_ref(&input));
        let report = flip_weight_bits(&mut model, 20, 11).unwrap();
        assert_eq!(report.flips, 20);
        assert!(!report.layers_hit.is_empty());
        let corrupted = run_once(&model, &[input]);
        let diff = clean[0].max_abs_diff(&corrupted[0]).unwrap();
        assert!(diff > 0.0, "20 bit flips must perturb the output");
    }

    #[test]
    fn activation_corruption_perturbs_downstream_output() {
        // Corrupt the *input* activations and watch the output diverge —
        // the §IV-B runtime-fault scenario the robustness service must
        // catch end to end.
        let model = zoo::lenet5(10).unwrap();
        let input = Tensor::random(Shape::nchw(1, 1, 28, 28), 5, 1.0);
        let clean = run_once(&model, std::slice::from_ref(&input));
        let corrupted_input = corrupt_tensor(&input, 16, 3).unwrap();
        assert_ne!(corrupted_input, input);
        let dirty = run_once(&model, std::slice::from_ref(&corrupted_input));
        assert!(clean[0].max_abs_diff(&dirty[0]).unwrap() > 0.0);
        // Deterministic per seed.
        assert_eq!(corrupt_tensor(&input, 16, 3).unwrap(), corrupted_input);
    }

    #[test]
    fn zero_flips_is_a_no_op_report() {
        let mut model = zoo::lenet5(10).unwrap();
        let report = flip_weight_bits(&mut model, 0, 1).unwrap();
        assert_eq!(report.flips, 0);
        model.validate().unwrap();
    }

    #[test]
    fn empty_tensor_is_a_typed_error_not_a_panic() {
        let empty = Tensor::zeros(Shape::nf(0, 4));
        assert_eq!(
            corrupt_tensor(&empty, 1, 0).unwrap_err(),
            InjectError::EmptyTensor
        );
        assert_eq!(
            corrupt_tensor_bits(&empty, &[(0, 0)]).unwrap_err(),
            InjectError::EmptyTensor
        );
        // Zero requested flips on an empty tensor is a valid no-op.
        assert_eq!(corrupt_tensor(&empty, 0, 0).unwrap(), empty);
        assert_eq!(corrupt_tensor_bits(&empty, &[]).unwrap(), empty);
    }

    #[test]
    fn out_of_range_coordinates_are_typed_errors() {
        let t = Tensor::zeros(Shape::nf(1, 4));
        let mut m = t.clone();
        assert_eq!(
            flip_tensor_bit(&mut m, 9, 0).unwrap_err(),
            InjectError::ElementOutOfRange { elem: 9, len: 4 }
        );
        assert_eq!(
            flip_tensor_bit(&mut m, 0, 32).unwrap_err(),
            InjectError::BitIndexOutOfRange { bit: 32 }
        );
        assert_eq!(m, t, "failed flips must not modify the tensor");
        assert_eq!(
            corrupt_tensor_bits(&t, &[(0, 0), (4, 1)]).unwrap_err(),
            InjectError::ElementOutOfRange { elem: 4, len: 4 }
        );
        assert_eq!(
            corrupt_tensor_bits(&t, &[(1, 0), (0, 33)]).unwrap_err(),
            InjectError::BitIndexOutOfRange { bit: 33 }
        );
    }

    #[test]
    fn explicit_flips_are_applied_exactly_and_are_involutive() {
        let t = Tensor::random(Shape::nf(1, 8), 1, 1.0);
        let once = corrupt_tensor_bits(&t, &[(2, 31), (5, 0)]).unwrap();
        assert_ne!(once, t);
        assert_eq!(once.data()[2], -t.data()[2], "bit 31 is the sign bit");
        // Flipping the same bits again restores the original.
        let twice = corrupt_tensor_bits(&once, &[(2, 31), (5, 0)]).unwrap();
        assert_eq!(twice, t);
        // Untouched elements stay bit-identical.
        for i in [0, 1, 3, 4, 6, 7] {
            assert_eq!(once.data()[i].to_bits(), t.data()[i].to_bits());
        }
    }

    #[test]
    fn error_display_is_stable() {
        assert_eq!(
            InjectError::EmptyTensor.to_string(),
            "cannot inject into an empty tensor"
        );
        assert_eq!(
            InjectError::ElementOutOfRange { elem: 7, len: 3 }.to_string(),
            "element index 7 out of range for tensor of 3"
        );
        assert_eq!(
            InjectError::BitIndexOutOfRange { bit: 40 }.to_string(),
            "bit index 40 out of range for f32 (valid: 0..32)"
        );
    }
}
