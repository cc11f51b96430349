//! Textual model interchange format.
//!
//! Paper §III: "the industry-standard ONNX, which is an open format to
//! represent machine learning models, is used as input to ensure
//! compatibility with the current open ecosystem. All intermediate
//! conversions and optimizations are performed on ONNX models."
//!
//! This module is the reproduction's open interchange format: a
//! line-based, human-diffable description of a computational graph
//! (operators, attributes, connectivity, weight seeds). Like an ONNX
//! file without initializers, it carries the architecture; explicitly
//! materialized weights are not serialized (see [`write()`]'s Errors).
//!
//! ```text
//! model "lenet5"
//! input t0 [1x1x28x28]
//! node n0 "conv1" conv2d out=6 kernel=5x5 stride=1x1 pad=2x2 groups=1 bias=true in=t0 seed=1
//! node n1 "pool1" maxpool kernel=2x2 stride=2x2 pad=0x0 in=t1
//! ...
//! output t12
//! ```

use crate::graph::{Graph, GraphBuilder, TensorId, WeightInit};
use crate::ops::{ActKind, Conv2dAttrs, Op, Pool2dAttrs};
use crate::shape::Shape;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Error produced by the textual reader/writer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextFormatError {
    /// 1-based line number (0 for writer-side errors).
    pub line: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for TextFormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TextFormatError {}

fn err(line: usize, message: impl Into<String>) -> TextFormatError {
    TextFormatError {
        line,
        message: message.into(),
    }
}

fn dims_to_text(values: &[usize]) -> String {
    values
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("x")
}

fn pair(p: (usize, usize)) -> String {
    format!("{}x{}", p.0, p.1)
}

/// Serializes a graph's architecture to the textual format.
///
/// # Errors
///
/// Returns an error if any node carries [`WeightInit::Explicit`] weights
/// — the format exchanges architectures (ONNX-without-initializers);
/// export trained models through their training pipeline instead.
pub fn write(graph: &Graph) -> Result<String, TextFormatError> {
    let mut out = String::new();
    let _ = writeln!(out, "model \"{}\"", graph.name());
    for &t in graph.inputs() {
        let shape = graph
            .tensor_shape(t)
            .ok_or_else(|| err(0, format!("graph input t{} has no shape", t.0)))?;
        let _ = writeln!(out, "input t{} [{}]", t.0, dims_to_text(shape.dims()));
    }
    for node in graph.nodes() {
        let seed = match &node.weights {
            WeightInit::Seeded(s) => Some(*s),
            WeightInit::None => None,
            WeightInit::Explicit(_) => {
                return Err(err(
                    0,
                    format!(
                    "node {} has explicit weights; the textual format carries architectures only",
                    node.name
                ),
                ))
            }
        };
        let ins = node
            .inputs
            .iter()
            .map(|t| format!("t{}", t.0))
            .collect::<Vec<_>>()
            .join(",");
        let body = match &node.op {
            Op::Input(_) => continue,
            Op::Conv2d(a) => format!(
                "conv2d out={} kernel={} stride={} pad={} groups={} bias={}",
                a.out_channels,
                pair(a.kernel),
                pair(a.stride),
                pair(a.padding),
                a.groups,
                a.bias
            ),
            Op::Dense { out_features, bias } => {
                format!("dense out={out_features} bias={bias}")
            }
            Op::BatchNorm => "batchnorm".to_string(),
            Op::Activation(kind) => match kind {
                ActKind::LeakyRelu(slope) => format!("act leakyrelu slope={slope}"),
                other => format!("act {}", format!("{other:?}").to_lowercase()),
            },
            Op::MaxPool2d(a) => format!(
                "maxpool kernel={} stride={} pad={}",
                pair(a.kernel),
                pair(a.stride),
                pair(a.padding)
            ),
            Op::AvgPool2d(a) => format!(
                "avgpool kernel={} stride={} pad={}",
                pair(a.kernel),
                pair(a.stride),
                pair(a.padding)
            ),
            Op::GlobalAvgPool => "gap".to_string(),
            Op::Add => "add".to_string(),
            Op::Mul => "mul".to_string(),
            Op::Concat => "concat".to_string(),
            Op::Upsample { factor } => format!("upsample factor={factor}"),
            Op::Flatten => "flatten".to_string(),
            Op::Softmax => "softmax".to_string(),
            Op::FakeQuant { scale } => format!("fakequant scale={scale}"),
        };
        let seed_part = seed.map(|s| format!(" seed={s}")).unwrap_or_default();
        let _ = writeln!(
            out,
            "node n{} \"{}\" {} in={}{}",
            node.id.0, node.name, body, ins, seed_part
        );
    }
    for &t in graph.outputs() {
        let _ = writeln!(out, "output t{}", t.0);
    }
    Ok(out)
}

fn parse_dims(text: &str, line: usize) -> Result<Vec<usize>, TextFormatError> {
    text.split('x')
        .map(|d| {
            d.parse::<usize>()
                .map_err(|_| err(line, format!("invalid dimension '{d}'")))
        })
        .collect()
}

fn parse_pair(text: &str, line: usize) -> Result<(usize, usize), TextFormatError> {
    let dims = parse_dims(text, line)?;
    if dims.len() != 2 {
        return Err(err(line, format!("expected HxW pair, got '{text}'")));
    }
    Ok((dims[0], dims[1]))
}

fn parse_tensor(token: &str, line: usize) -> Result<usize, TextFormatError> {
    token
        .strip_prefix('t')
        .and_then(|s| s.parse::<usize>().ok())
        .ok_or_else(|| err(line, format!("invalid tensor reference '{token}'")))
}

/// Parses the textual format back into a graph (shape inference and all
/// builder validation re-run during parsing).
///
/// # Errors
///
/// Returns a [`TextFormatError`] carrying the offending line for syntax
/// errors, unknown operators, dangling tensor references, or any graph
/// constraint violation.
pub fn read(text: &str) -> Result<Graph, TextFormatError> {
    let mut builder: Option<GraphBuilder> = None;
    // Map of file tensor ids -> builder tensor ids.
    let mut tensors: HashMap<usize, TensorId> = HashMap::new();
    let mut outputs: Vec<TensorId> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens[0] {
            "model" => {
                let name = line
                    .split('"')
                    .nth(1)
                    .ok_or_else(|| err(line_no, "model line needs a quoted name"))?;
                builder = Some(GraphBuilder::new(name));
            }
            "input" => {
                let b = builder
                    .as_mut()
                    .ok_or_else(|| err(line_no, "input before model line"))?;
                let id = parse_tensor(tokens.get(1).copied().unwrap_or(""), line_no)?;
                let shape_text = tokens
                    .get(2)
                    .and_then(|s| s.strip_prefix('['))
                    .and_then(|s| s.strip_suffix(']'))
                    .ok_or_else(|| err(line_no, "input needs a [NxCxHxW] shape"))?;
                let dims = parse_dims(shape_text, line_no)?;
                tensors.insert(id, b.input(Shape::new(dims)));
            }
            "node" => {
                let b = builder
                    .as_mut()
                    .ok_or_else(|| err(line_no, "node before model line"))?;
                let name = line
                    .split('"')
                    .nth(1)
                    .ok_or_else(|| err(line_no, "node line needs a quoted name"))?;
                // Key=value attribute map over the remaining tokens.
                let mut attrs: HashMap<&str, &str> = HashMap::new();
                let mut words: Vec<&str> = Vec::new();
                for token in &tokens[2..] {
                    if token.starts_with('"') || token.ends_with('"') {
                        continue;
                    }
                    match token.split_once('=') {
                        Some((k, v)) => {
                            attrs.insert(k, v);
                        }
                        None => words.push(token),
                    }
                }
                let kind = *words
                    .first()
                    .ok_or_else(|| err(line_no, "node needs an operator kind"))?;
                let get = |key: &str| -> Result<&str, TextFormatError> {
                    attrs
                        .get(key)
                        .copied()
                        .ok_or_else(|| err(line_no, format!("{kind} needs attribute '{key}'")))
                };
                let op = match kind {
                    "conv2d" => Op::Conv2d(Conv2dAttrs {
                        out_channels: get("out")?
                            .parse()
                            .map_err(|_| err(line_no, "invalid out"))?,
                        kernel: parse_pair(get("kernel")?, line_no)?,
                        stride: parse_pair(get("stride")?, line_no)?,
                        padding: parse_pair(get("pad")?, line_no)?,
                        groups: get("groups")?
                            .parse()
                            .map_err(|_| err(line_no, "invalid groups"))?,
                        bias: get("bias")? == "true",
                    }),
                    "dense" => Op::Dense {
                        out_features: get("out")?
                            .parse()
                            .map_err(|_| err(line_no, "invalid out"))?,
                        bias: get("bias")? == "true",
                    },
                    "batchnorm" => Op::BatchNorm,
                    "act" => {
                        let act = *words
                            .get(1)
                            .ok_or_else(|| err(line_no, "act needs a kind"))?;
                        let kind = match act {
                            "relu" => ActKind::Relu,
                            "relu6" => ActKind::Relu6,
                            "hardswish" => ActKind::HardSwish,
                            "hardsigmoid" => ActKind::HardSigmoid,
                            "sigmoid" => ActKind::Sigmoid,
                            "mish" => ActKind::Mish,
                            "silu" => ActKind::Silu,
                            "tanh" => ActKind::Tanh,
                            "leakyrelu" => ActKind::LeakyRelu(
                                get("slope")?
                                    .parse()
                                    .map_err(|_| err(line_no, "invalid slope"))?,
                            ),
                            other => {
                                return Err(err(line_no, format!("unknown activation '{other}'")))
                            }
                        };
                        Op::Activation(kind)
                    }
                    "maxpool" | "avgpool" => {
                        let a = Pool2dAttrs {
                            kernel: parse_pair(get("kernel")?, line_no)?,
                            stride: parse_pair(get("stride")?, line_no)?,
                            padding: parse_pair(get("pad")?, line_no)?,
                        };
                        if kind == "maxpool" {
                            Op::MaxPool2d(a)
                        } else {
                            Op::AvgPool2d(a)
                        }
                    }
                    "gap" => Op::GlobalAvgPool,
                    "add" => Op::Add,
                    "mul" => Op::Mul,
                    "concat" => Op::Concat,
                    "upsample" => Op::Upsample {
                        factor: get("factor")?
                            .parse()
                            .map_err(|_| err(line_no, "invalid factor"))?,
                    },
                    "flatten" => Op::Flatten,
                    "softmax" => Op::Softmax,
                    "fakequant" => Op::FakeQuant {
                        scale: get("scale")?
                            .parse()
                            .map_err(|_| err(line_no, "invalid scale"))?,
                    },
                    other => return Err(err(line_no, format!("unknown operator '{other}'"))),
                };
                let input_ids: Vec<TensorId> = get("in")?
                    .split(',')
                    .map(|t| {
                        let file_id = parse_tensor(t, line_no)?;
                        tensors
                            .get(&file_id)
                            .copied()
                            .ok_or_else(|| err(line_no, format!("unknown tensor 't{file_id}'")))
                    })
                    .collect::<Result<_, _>>()?;
                let weights = match attrs.get("seed") {
                    Some(s) => {
                        WeightInit::Seeded(s.parse().map_err(|_| err(line_no, "invalid seed"))?)
                    }
                    None => WeightInit::None,
                };
                let out = b
                    .apply_with_weights(name, op, &input_ids, weights)
                    .map_err(|e| err(line_no, e.to_string()))?;
                // The output tensor's file id is the builder's id by
                // construction order; record under the builder id so
                // `output tN` lines resolve.
                tensors.insert(out.0, out);
            }
            "output" => {
                let id = parse_tensor(tokens.get(1).copied().unwrap_or(""), line_no)?;
                let t = tensors
                    .get(&id)
                    .copied()
                    .ok_or_else(|| err(line_no, format!("unknown tensor 't{id}'")))?;
                outputs.push(t);
            }
            other => return Err(err(line_no, format!("unknown directive '{other}'"))),
        }
    }
    let builder = builder.ok_or_else(|| err(0, "missing model line"))?;
    if outputs.is_empty() {
        return Err(err(0, "missing output line"));
    }
    Ok(builder.finish(outputs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostReport;
    use crate::exec::{RunOptions, Runner};
    use crate::zoo;

    #[test]
    fn zoo_models_round_trip() {
        for model in [
            zoo::lenet5(10).unwrap(),
            zoo::tiny_cnn("t", Shape::nchw(1, 3, 32, 32), &[8, 16], 4).unwrap(),
            zoo::mobilenet_v3_large(100).unwrap(),
            zoo::resnet50(10).unwrap(),
        ] {
            let text = write(&model).unwrap();
            let parsed = read(&text).unwrap();
            parsed.validate().unwrap();
            assert_eq!(parsed.name(), model.name());
            assert_eq!(parsed.nodes().len(), model.nodes().len());
            // Identical cost profile = identical architecture.
            let a = CostReport::of(&model).unwrap();
            let b = CostReport::of(&parsed).unwrap();
            assert_eq!(a.total_macs, b.total_macs, "{}", model.name());
            assert_eq!(a.total_params, b.total_params);
        }
    }

    #[test]
    fn round_trip_preserves_execution() {
        // Seeds survive the round trip, so outputs are bit-identical.
        let model = zoo::lenet5(10).unwrap();
        let parsed = read(&write(&model).unwrap()).unwrap();
        let input = crate::Tensor::random(Shape::nchw(1, 1, 28, 28), 3, 1.0);
        let a = Runner::builder()
            .build(&model)
            .unwrap()
            .execute(std::slice::from_ref(&input), RunOptions::default())
            .unwrap()
            .into_outputs();
        let b = Runner::builder()
            .build(&parsed)
            .unwrap()
            .execute(std::slice::from_ref(&input), RunOptions::default())
            .unwrap()
            .into_outputs();
        assert_eq!(a, b);
    }

    #[test]
    fn explicit_weights_are_rejected_by_writer() {
        use crate::dataset::gaussian_prototypes;
        use crate::train::{mlp, train_mlp, TrainConfig};
        let data = gaussian_prototypes(&Shape::nf(1, 4), 2, 5, 2.0, 1);
        let mut model = mlp("t", 4, &[], 2).unwrap();
        train_mlp(&mut model, &data, &TrainConfig::default()).unwrap();
        let result = write(&model);
        assert!(result.is_err());
        assert!(result.unwrap_err().message.contains("explicit weights"));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let bad_op = "model \"m\"\ninput t0 [1x4]\nnode n0 \"x\" warp in=t0\noutput t1\n";
        let e = read(bad_op).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("warp"));

        let bad_tensor = "model \"m\"\ninput t0 [1x4]\nnode n0 \"x\" flatten in=t9\noutput t1\n";
        let e = read(bad_tensor).unwrap_err();
        assert_eq!(e.line, 3);

        let no_model = "input t0 [1x4]\n";
        assert!(read(no_model).is_err());
    }

    #[test]
    fn shape_violations_surface_from_the_builder() {
        // 3-channel conv fed a 1-channel input with groups=2.
        let text = "model \"m\"\ninput t0 [1x3x8x8]\nnode n0 \"c\" conv2d out=4 kernel=3x3 stride=1x1 pad=1x1 groups=2 bias=false in=t0 seed=1\noutput t1\n";
        let e = read(text).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("groups"));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# a comment\nmodel \"m\"\n\ninput t0 [1x4]  # trailing\nnode n0 \"f\" flatten in=t0\noutput t1\n";
        let g = read(text).unwrap();
        assert_eq!(g.nodes().len(), 1);
    }
}
