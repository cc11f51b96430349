//! Per-op execution profiles — the measured half of Fig. 4.
//!
//! [`RunProfile`] is what [`Runner::execute`](crate::exec::Runner::execute)
//! returns when [`RunOptions::profile`](crate::exec::RunOptions::profile)
//! is set: one [`NodeProfile`] per scheduled node with its measured
//! duration and the static operation counts from [`crate::cost`], from
//! which each node's *achieved* GFLOP/s falls out (1 op/ns = 1 GOPS).
//! Cross-referencing these against the `vedliot-accel` roofline
//! prediction for the same layer turns the paper's
//! measured-vs-theoretical comparison into a live per-layer report
//! (`PerfModel::compare_profile`).

use crate::dtype::DataType;
use serde::{Deserialize, Serialize};
use std::fmt;
use vedliot_obs::hist::Histogram;
use vedliot_obs::{Export, Exportable, Metric};

/// Measured execution record for one graph node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeProfile {
    /// Layer name.
    pub name: String,
    /// Operator description (e.g. `Conv2d(64o, 3x3/1, g1)`).
    pub op: String,
    /// Static multiply-accumulate count (from [`crate::cost`]).
    pub macs: u64,
    /// Static element-wise operation count.
    pub elementwise: u64,
    /// Measured kernel duration in nanoseconds. A node fused into
    /// another's kernel reads 0: its time is in the head's record.
    pub duration_ns: u64,
    /// Numeric path the kernel executed: [`DataType::I8`] when the
    /// runner selected the INT8 kernel for this node, [`DataType::F32`]
    /// otherwise.
    #[serde(default)]
    pub precision: DataType,
    /// The head node whose kernel this node ran inside, when the runner
    /// fused it into that conv, dense, pool or flatten node's output
    /// write; `None` for a node that ran as its own kernel (every node
    /// of a run that captures intermediates).
    #[serde(default)]
    pub fused_into: Option<String>,
}

impl NodeProfile {
    /// Total operations (2 × MACs + element-wise — the paper's GOPS
    /// convention).
    #[must_use]
    pub fn ops(&self) -> u64 {
        2 * self.macs + self.elementwise
    }

    /// Achieved GFLOP/s (0 when the duration was below timer
    /// resolution or the node ran fused inside another's kernel).
    #[must_use]
    pub fn achieved_gops(&self) -> f64 {
        if self.duration_ns == 0 {
            0.0
        } else {
            self.ops() as f64 / self.duration_ns as f64
        }
    }
}

/// Measured per-op profile of one forward pass.
///
/// Every scheduled node has a record, in schedule order. A conv, dense,
/// pool or flatten node's record covers the elementwise nodes the
/// runner fused into its output write; each of those keeps its own record with 0 ns
/// and [`NodeProfile::fused_into`] naming the head, and `Display` shows
/// it as `ran inside <head>`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunProfile {
    /// Model name.
    pub model: String,
    /// Batch size executed.
    pub batch: usize,
    /// Per-node records in schedule order.
    pub per_node: Vec<NodeProfile>,
    /// Wall time of the whole `execute` call in nanoseconds (input
    /// staging + kernels + output collection).
    pub wall_ns: u64,
    /// Peak value-arena bytes under the runner's memory plan (both
    /// arenas at the graph's batch). Zero in profiles recorded before
    /// arena planning existed.
    #[serde(default)]
    pub arena_peak_bytes: u64,
    /// Value-arena bytes of the one-range-per-value layout the planner
    /// is measured against.
    #[serde(default)]
    pub arena_unplanned_bytes: u64,
}

impl RunProfile {
    /// Sum of the per-node kernel durations.
    #[must_use]
    pub fn nodes_ns(&self) -> u64 {
        self.per_node.iter().map(|n| n.duration_ns).sum()
    }

    /// Total operations across all nodes.
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.per_node.iter().map(NodeProfile::ops).sum()
    }

    /// Fraction of the wall time the per-node records account for —
    /// the acceptance bar for the profiler is ≥ 0.95 on a warm runner.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.nodes_ns() as f64 / self.wall_ns as f64
        }
    }

    /// Whole-pass achieved GFLOP/s against the wall time.
    #[must_use]
    pub fn achieved_gops(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.total_ops() as f64 / self.wall_ns as f64
        }
    }

    /// Nodes that executed on the INT8 kernel path.
    #[must_use]
    pub fn int8_nodes(&self) -> usize {
        self.per_node
            .iter()
            .filter(|n| n.precision == DataType::I8)
            .count()
    }

    /// Fractional peak-memory reduction the arena plan achieved vs the
    /// one-range-per-value layout (`0.25` = 25% smaller; 0 when the
    /// profile predates planning).
    #[must_use]
    pub fn arena_reduction(&self) -> f64 {
        if self.arena_unplanned_bytes == 0 {
            0.0
        } else {
            1.0 - self.arena_peak_bytes as f64 / self.arena_unplanned_bytes as f64
        }
    }

    /// The `n` most expensive nodes by measured duration.
    #[must_use]
    pub fn top_by_time(&self, n: usize) -> Vec<&NodeProfile> {
        let mut nodes: Vec<&NodeProfile> = self.per_node.iter().collect();
        nodes.sort_by(|a, b| b.duration_ns.cmp(&a.duration_ns).then(a.name.cmp(&b.name)));
        nodes.truncate(n);
        nodes
    }
}

impl fmt::Display for RunProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "profile of {} (batch {}): {} nodes, wall {} ns, coverage {:.1}%, {:.3} GFLOP/s",
            self.model,
            self.batch,
            self.per_node.len(),
            self.wall_ns,
            self.coverage() * 100.0,
            self.achieved_gops()
        )?;
        for node in &self.per_node {
            write!(
                f,
                "  {:<12} {:<24} {:>10} ns {:>12} ops {:>8.3} GFLOP/s  {}",
                node.name,
                node.op,
                node.duration_ns,
                node.ops(),
                node.achieved_gops(),
                node.precision
            )?;
            match &node.fused_into {
                Some(head) => writeln!(f, "  ran inside {head}")?,
                None => writeln!(f)?,
            }
        }
        Ok(())
    }
}

impl Exportable for RunProfile {
    fn export(&self) -> Export {
        let durations = Histogram::new();
        for node in &self.per_node {
            durations.record(node.duration_ns);
        }
        Export {
            subsystem: "runner".into(),
            metrics: vec![
                Metric::counter("nodes", "graph nodes profiled", self.per_node.len() as u64),
                Metric::counter(
                    "wall_ns",
                    "wall time of the profiled forward pass",
                    self.wall_ns,
                ),
                Metric::counter(
                    "total_ops",
                    "static operations executed (2*MACs + elementwise)",
                    self.total_ops(),
                ),
                Metric::gauge(
                    "coverage",
                    "fraction of wall time attributed to per-node kernels",
                    self.coverage(),
                ),
                Metric::gauge(
                    "achieved_gops",
                    "achieved GFLOP/s over the wall time",
                    self.achieved_gops(),
                ),
                Metric::counter(
                    "int8_nodes",
                    "nodes executed on the INT8 kernel path",
                    self.int8_nodes() as u64,
                ),
                Metric::counter(
                    "arena_peak_bytes",
                    "peak value-arena bytes under the memory plan",
                    self.arena_peak_bytes,
                ),
                Metric::counter(
                    "arena_unplanned_bytes",
                    "value-arena bytes of the one-range-per-value layout",
                    self.arena_unplanned_bytes,
                ),
                Metric::histogram(
                    "node_duration_ns",
                    "per-node kernel duration distribution",
                    durations.snapshot(),
                ),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_profile() -> RunProfile {
        RunProfile {
            model: "demo".into(),
            batch: 1,
            per_node: vec![
                NodeProfile {
                    name: "conv1".into(),
                    op: "Conv2d(4o, 3x3/1, g1)".into(),
                    macs: 6912,
                    elementwise: 0,
                    duration_ns: 9000,
                    precision: DataType::F32,
                    fused_into: None,
                },
                NodeProfile {
                    name: "fc".into(),
                    op: "Dense(10)".into(),
                    macs: 2560,
                    elementwise: 10,
                    duration_ns: 500,
                    precision: DataType::I8,
                    fused_into: None,
                },
            ],
            wall_ns: 10_000,
            arena_peak_bytes: 3_000,
            arena_unplanned_bytes: 4_000,
        }
    }

    #[test]
    fn aggregates_are_consistent() {
        let p = demo_profile();
        assert_eq!(p.nodes_ns(), 9500);
        assert_eq!(p.total_ops(), 2 * 6912 + 2 * 2560 + 10);
        assert!((p.coverage() - 0.95).abs() < 1e-12);
        assert!((p.achieved_gops() - p.total_ops() as f64 / 1e4).abs() < 1e-12);
        assert_eq!(p.top_by_time(1)[0].name, "conv1");
        assert_eq!(p.int8_nodes(), 1);
        assert!((p.arena_reduction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn gops_guards_zero_duration() {
        let node = NodeProfile {
            name: "n".into(),
            op: "Flatten".into(),
            macs: 0,
            elementwise: 0,
            duration_ns: 0,
            precision: DataType::default(),
            fused_into: None,
        };
        assert_eq!(node.achieved_gops(), 0.0);
        assert_eq!(node.precision, DataType::F32);
    }

    #[test]
    fn display_is_stable() {
        let text = demo_profile().to_string();
        assert!(text.starts_with(
            "profile of demo (batch 1): 2 nodes, wall 10000 ns, coverage 95.0%, 1.895 GFLOP/s"
        ));
        assert!(text.contains("conv1"));
        assert!(text.contains("13824 ops"));
    }

    #[test]
    fn display_names_the_head_of_a_fused_node() {
        let mut p = demo_profile();
        p.per_node.insert(
            1,
            NodeProfile {
                name: "conv1.act".into(),
                op: "Activation(ReLU)".into(),
                macs: 0,
                elementwise: 4,
                duration_ns: 0,
                precision: DataType::F32,
                fused_into: Some("conv1".into()),
            },
        );
        let text = p.to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert!(
            lines[2].starts_with("  conv1.act") && lines[2].ends_with("FP32  ran inside conv1")
        );
        assert!(lines[1].ends_with("FP32") && lines[3].ends_with("INT8"));
    }

    #[test]
    fn export_format_is_stable() {
        let json = demo_profile().export().to_json();
        assert!(json.starts_with("{\"subsystem\":\"runner\",\"metrics\":["));
        assert!(json.contains("\"name\":\"wall_ns\",\"help\":\"wall time of the profiled forward pass\",\"type\":\"counter\",\"value\":10000"));
        assert!(json.contains("\"name\":\"coverage\""));
        assert!(json.contains("\"type\":\"gauge\",\"value\":0.95}"));
        assert!(json.contains("\"name\":\"arena_peak_bytes\",\"help\":\"peak value-arena bytes under the memory plan\",\"type\":\"counter\",\"value\":3000"));
        assert!(json.contains("\"name\":\"arena_unplanned_bytes\""));
        let round = vedliot_obs::Export::from_json(&json).expect("round-trips");
        assert_eq!(round.to_json(), json);
        let prom = demo_profile().export().to_prometheus();
        assert!(prom.contains("vedliot_runner_wall_ns 10000\n"));
        assert!(prom.contains("# TYPE vedliot_runner_node_duration_ns histogram"));
    }
}
