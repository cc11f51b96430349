//! Neural-network intermediate representation for the VEDLIoT reproduction.
//!
//! This crate plays the role that ONNX plays in the VEDLIoT toolchain
//! (paper §III): an open, framework-neutral representation of a trained
//! model's computational graph. Everything downstream — the Kenning-style
//! optimizer (`vedliot-toolchain`), the accelerator performance models
//! (`vedliot-accel`), the safety monitors and the use cases — consumes
//! this IR.
//!
//! The crate provides:
//!
//! * [`DataType`], [`Shape`] and [`Tensor`] — the value layer,
//! * [`Op`] and [`Graph`] — the operator set and the computational graph
//!   with shape inference and topological scheduling,
//! * [`cost`] — per-operator and whole-graph MAC / parameter / memory
//!   accounting (the quantities that drive the paper's Figs. 3 and 4),
//! * [`exec`] — a reference f32 executor (real inference, used by the
//!   compression and safety experiments),
//! * [`profile`] — opt-in per-op execution profiles (measured duration
//!   plus static operation counts → achieved GFLOP/s per layer),
//! * [`zoo`] — from-scratch builders for the evaluation networks the paper
//!   names: ResNet-50, MobileNetV3-Large and YOLOv4, plus small networks
//!   for the industrial use cases,
//! * [`dataset`] — synthetic dataset generators standing in for the
//!   proprietary datasets (see DESIGN.md §1),
//! * [`metrics`] — confusion matrix, accuracy, precision/recall — the
//!   quality measurements Kenning reports,
//! * [`textual`] — a line-based open interchange format for graph
//!   architectures (the ONNX-compatibility role),
//! * [`det`] — the shared deterministic RNG substrate (splitmix64 +
//!   xorshift64*) used by every seeded fault/chaos/fleet simulation,
//! * [`analysis`] — the multi-pass static verifier and lint framework
//!   (structured diagnostics with stable codes; the hard gate in front
//!   of execution and behind every toolchain transform).
//!
//! # Example
//!
//! ```
//! use vedliot_nnir::{zoo, cost::CostReport};
//!
//! # fn main() -> Result<(), vedliot_nnir::NnirError> {
//! let model = zoo::mobilenet_v3_large(1000)?;
//! let report = CostReport::of(&model)?;
//! // MobileNetV3-Large is a ~220 MFLOP network.
//! assert!(report.total_macs > 100_000_000 && report.total_macs < 250_000_000);
//! # Ok(())
//! # }
//! ```

pub mod analysis;
pub mod cost;
pub mod dataset;
pub mod det;
pub mod dtype;
pub mod error;
pub mod exec;
pub mod graph;
pub mod metrics;
pub mod ops;
pub mod profile;
pub mod shape;
pub mod tensor;
pub mod textual;
pub mod train;
pub mod zoo;

pub use dtype::DataType;
pub use error::{ErrorClass, NnirError};
pub use graph::{Graph, GraphBuilder, Node, NodeId, TensorId};
pub use ops::Op;
pub use shape::Shape;
pub use tensor::Tensor;
