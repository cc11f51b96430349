//! Whole-zoo lint driver: the `vedliot lint` / `harness lint` backend.
//!
//! Runs the full static analyzer ([`vedliot_nnir::analysis`]) over every
//! evaluation network in the zoo *and* over optimized variants of the
//! small networks (fused, pruned, quantized, FP16-converted,
//! deep-compressed). The toolchain's verify-after-transform gate already
//! guarantees the variants are Error-clean; the lint sweep additionally
//! surfaces Warning/Info findings (dead nodes, aliased seeds, batch-dim
//! drift, INT8 saturation risk) that the hard gates deliberately allow.

use crate::compress::{deep_compress, CompressionConfig};
use crate::error::ToolchainError;
use crate::passes::{
    ConvertFp16, FuseConvBn, Pass, PassManager, PruneChannels, PruneConnections, QuantizeInt8,
};
use vedliot_nnir::analysis::{Analyzer, Report, Severity, Totals};
use vedliot_nnir::{zoo, Graph, Shape, Tensor};

/// One linted model (a zoo network or an optimized variant of one).
#[derive(Debug)]
pub struct LintEntry {
    /// Display name, e.g. `lenet5` or `tiny-cnn + quantize-int8`.
    pub model: String,
    /// The full analyzer's findings for this model.
    pub report: Report,
}

/// Result of linting the whole suite.
#[derive(Debug)]
pub struct LintSummary {
    /// One entry per linted model, in suite order.
    pub entries: Vec<LintEntry>,
}

impl LintSummary {
    /// Suite-wide severity totals, accumulated with the shared
    /// [`Totals`] counter every diagnostic renderer uses.
    #[must_use]
    pub fn totals(&self) -> Totals {
        let mut totals = Totals::default();
        for entry in &self.entries {
            totals.accumulate(entry.report.totals());
        }
        totals
    }

    /// Total findings at exactly the given severity across all models.
    #[must_use]
    pub fn count_at(&self, severity: Severity) -> usize {
        self.totals().at(severity)
    }

    /// Whether every model is clean at the given severity or above.
    #[must_use]
    pub fn is_clean(&self, severity: Severity) -> bool {
        self.entries.iter().all(|e| e.report.is_clean(severity))
    }

    /// Renders the per-model reports plus a one-line totals footer.
    /// Per-model lines and the footer both go through the shared
    /// [`vedliot_nnir::analysis`] diagnostic formatter.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for entry in &self.entries {
            out.push_str(&entry.report.render(&entry.model));
            out.push('\n');
        }
        out.push_str(&format!(
            "lint: {} models, {}\n",
            self.entries.len(),
            self.totals()
        ));
        out
    }
}

/// The small network the optimized variants are derived from.
fn variant_base() -> Result<Graph, ToolchainError> {
    Ok(zoo::tiny_cnn(
        "tiny-cnn",
        Shape::nchw(1, 3, 16, 16),
        &[8, 16],
        4,
    )?)
}

fn lint(analyzer: &Analyzer, entries: &mut Vec<LintEntry>, model: &str, graph: &Graph) {
    entries.push(LintEntry {
        model: model.to_string(),
        report: analyzer.analyze(graph),
    });
}

/// Runs one pass over the variant base and lints the result.
fn lint_variant(
    analyzer: &Analyzer,
    entries: &mut Vec<LintEntry>,
    pass: impl Pass + 'static,
) -> Result<(), ToolchainError> {
    let name = format!("tiny-cnn + {}", pass.name());
    let mut pm = PassManager::new();
    pm.push(pass);
    let (optimized, _) = pm.run(variant_base()?)?;
    lint(analyzer, entries, &name, &optimized);
    Ok(())
}

/// Lints every zoo model plus optimized/compressed variants.
///
/// This is the backend of `vedliot lint` and the harness `lint`
/// experiment. The suite covers:
///
/// * all seven zoo networks (LeNet-5 through YOLOv4), and
/// * the small CNN after each toolchain pass (fusion, connection and
///   channel pruning, calibrated INT8 quantization, FP16 conversion)
///   and after the Deep Compression pipeline.
///
/// # Errors
///
/// Propagates graph-construction or pass failures — including
/// [`vedliot_nnir::NnirError::VerifierRejected`] from the toolchain's
/// verify-after-transform gate; the lint sweep itself never fails on
/// findings (findings go in the [`LintSummary`]).
pub fn lint_suite() -> Result<LintSummary, ToolchainError> {
    let analyzer = Analyzer::full();
    let mut entries = Vec::new();

    // The whole zoo.
    lint(&analyzer, &mut entries, "lenet5", &zoo::lenet5(10)?);
    lint(&analyzer, &mut entries, "tiny-cnn", &variant_base()?);
    lint(
        &analyzer,
        &mut entries,
        "conv1d-classifier",
        &zoo::conv1d_classifier("conv1d", 1, 64, &[8, 16], 3)?,
    );
    lint(
        &analyzer,
        &mut entries,
        "mobilenet-v3-large",
        &zoo::mobilenet_v3_large(100)?,
    );
    lint(&analyzer, &mut entries, "resnet50", &zoo::resnet50(10)?);
    lint(
        &analyzer,
        &mut entries,
        "efficientnet-v2-s",
        &zoo::efficientnet_v2_s(100)?,
    );
    lint(&analyzer, &mut entries, "yolov4", &zoo::yolov4(416, 80)?);

    // Optimized variants of the small CNN, one per toolchain pass.
    lint_variant(&analyzer, &mut entries, FuseConvBn::new())?;
    lint_variant(&analyzer, &mut entries, PruneConnections::new(0.5))?;
    lint_variant(&analyzer, &mut entries, PruneChannels::new(0.5))?;
    let calib = vec![Tensor::random(Shape::nchw(1, 3, 16, 16), 7, 1.0)];
    lint_variant(
        &analyzer,
        &mut entries,
        QuantizeInt8::with_calibration(calib),
    )?;
    lint_variant(&analyzer, &mut entries, ConvertFp16::new())?;

    // The Deep Compression pipeline's decoded model.
    let (compressed, _) = deep_compress(
        &variant_base()?,
        &CompressionConfig {
            sparsity: 0.5,
            ..CompressionConfig::default()
        },
    )?;
    lint(
        &analyzer,
        &mut entries,
        "tiny-cnn + deep-compress",
        &compressed,
    );

    Ok(LintSummary { entries })
}

// --------------------------------------------------------------------
// Dataflow-analysis report (`vedliot lint --analyze`)
// --------------------------------------------------------------------

/// One model's dataflow-analysis summary — a `vedliot lint --analyze`
/// report row: tensor liveness, the arena memory plan and the
/// quant-safety verdict counts.
#[derive(Debug)]
pub struct AnalyzeEntry {
    /// Model name.
    pub model: String,
    /// Value tensors in the graph.
    pub tensors: usize,
    /// Values no consumer or graph output ever reads (W107).
    pub dead_values: usize,
    /// Peak value-arena bytes under the plan.
    pub peak_bytes: u64,
    /// Value-arena bytes of the one-range-per-value layout.
    pub unplanned_bytes: u64,
    /// Nodes the quant-safety dataflow analysis proves INT8-eligible.
    pub int8_proven: usize,
    /// Worst-case |activation| the value-range analysis propagates to
    /// any graph output (inputs seeded at `|x| <= 1`).
    pub output_absmax: f32,
}

impl AnalyzeEntry {
    /// Fractional peak-memory reduction of the plan (`0.25` = 25%).
    #[must_use]
    pub fn reduction(&self) -> f64 {
        if self.unplanned_bytes == 0 {
            0.0
        } else {
            1.0 - self.peak_bytes as f64 / self.unplanned_bytes as f64
        }
    }
}

/// Runs the dataflow analyses (liveness, value ranges, quant safety)
/// and the arena memory planner over one graph.
#[must_use]
pub fn analyze_model(graph: &Graph) -> AnalyzeEntry {
    use vedliot_nnir::analysis::{value_ranges, Liveness, QuantSafety};
    use vedliot_nnir::exec::MemoryPlan;

    let live = Liveness::of(graph);
    let plan = MemoryPlan::plan(graph);
    let ranges = value_ranges(graph, 1.0);
    let output_absmax = graph
        .outputs()
        .iter()
        .filter_map(|t| ranges.get(t.0))
        .map(|iv| iv.abs_max())
        .fold(0.0f32, f32::max);
    AnalyzeEntry {
        model: graph.name().to_string(),
        tensors: graph.tensor_count(),
        dead_values: live.dead_values(graph).len(),
        peak_bytes: plan.peak_bytes(),
        unplanned_bytes: plan.unplanned_bytes(),
        int8_proven: QuantSafety::of(graph).eligible_count(),
        output_absmax,
    }
}

/// Analyzes every zoo network — the backend of `vedliot lint
/// --analyze`.
///
/// # Errors
///
/// Propagates zoo graph-construction failures.
pub fn analyze_suite() -> Result<Vec<AnalyzeEntry>, ToolchainError> {
    Ok(vec![
        analyze_model(&zoo::lenet5(10)?),
        analyze_model(&variant_base()?),
        analyze_model(&zoo::conv1d_classifier("conv1d", 1, 64, &[8, 16], 3)?),
        analyze_model(&zoo::mobilenet_v3_large(100)?),
        analyze_model(&zoo::resnet50(10)?),
        analyze_model(&zoo::efficientnet_v2_s(100)?),
        analyze_model(&zoo::yolov4(416, 80)?),
    ])
}

/// Renders the per-model analysis rows plus a totals footer.
#[must_use]
pub fn render_analysis(entries: &[AnalyzeEntry]) -> String {
    let mut out = String::from(
        "model                 tensors  dead  peak_bytes  unplanned_bytes  saved  int8  |out|max\n",
    );
    for e in entries {
        out.push_str(&format!(
            "{:<21} {:>7} {:>5} {:>11} {:>16} {:>5.1}% {:>5} {:>9.3e}\n",
            e.model,
            e.tensors,
            e.dead_values,
            e.peak_bytes,
            e.unplanned_bytes,
            e.reduction() * 100.0,
            e.int8_proven,
            e.output_absmax,
        ));
    }
    let peak: u64 = entries.iter().map(|e| e.peak_bytes).sum();
    let unplanned: u64 = entries.iter().map(|e| e.unplanned_bytes).sum();
    let saved = if unplanned == 0 {
        0.0
    } else {
        1.0 - peak as f64 / unplanned as f64
    };
    out.push_str(&format!(
        "analyze: {} models, {peak} peak bytes planned vs {unplanned} unplanned ({:.1}% saved)\n",
        entries.len(),
        saved * 100.0,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_covers_zoo_and_variants() {
        let summary = lint_suite().unwrap();
        assert!(
            summary.entries.len() >= 13,
            "expected zoo + variants, got {}",
            summary.entries.len()
        );
        let names: Vec<&str> = summary.entries.iter().map(|e| e.model.as_str()).collect();
        assert!(names.contains(&"resnet50"));
        assert!(names.contains(&"tiny-cnn + quantize-int8"));
        assert!(names.contains(&"tiny-cnn + deep-compress"));
    }

    #[test]
    fn suite_is_error_clean() {
        // Acceptance gate: every zoo model and every optimized variant
        // lints clean at Error severity.
        let summary = lint_suite().unwrap();
        for entry in &summary.entries {
            assert!(
                entry.report.is_clean(Severity::Error),
                "{} has errors:\n{}",
                entry.model,
                entry.report.render(&entry.model)
            );
        }
    }

    #[test]
    fn suite_is_warning_clean() {
        // Regression for the lint-driven sweep: the zoo builders once
        // reused block-local node names ("residual", "add", "res.add")
        // across blocks, producing 99 W102 duplicate-name findings —
        // every node now carries a unique name, and no other
        // warning-severity finding exists in the suite. Info findings
        // (I201 quantization-readiness) are expected and allowed.
        let summary = lint_suite().unwrap();
        for entry in &summary.entries {
            assert!(
                entry.report.is_clean(Severity::Warning),
                "{} has warnings:\n{}",
                entry.model,
                entry.report.render(&entry.model)
            );
        }
    }

    #[test]
    fn render_has_totals_footer() {
        let summary = lint_suite().unwrap();
        let text = summary.render();
        assert!(text.contains("lint:"), "{text}");
        assert!(text.contains("errors"), "{text}");
        // The footer goes through the shared Totals formatter.
        assert!(text.contains(&summary.totals().to_string()), "{text}");
    }

    #[test]
    fn analyze_covers_zoo_with_planned_savings() {
        let entries = analyze_suite().unwrap();
        assert_eq!(entries.len(), 7);
        for e in &entries {
            assert_eq!(e.dead_values, 0, "{} has dead values", e.model);
            assert!(
                e.reduction() > 0.0,
                "{} plan saved nothing ({} vs {})",
                e.model,
                e.peak_bytes,
                e.unplanned_bytes
            );
            // Interval propagation is conservative: shallow nets get a
            // finite bound, deep stacks may widen to infinity — but
            // never to NaN.
            assert!(!e.output_absmax.is_nan(), "{} range is NaN", e.model);
        }
        // The conv zoo models clear the 25% acceptance bar.
        for model in ["lenet5", "tiny-cnn", "mobilenetv3-large", "resnet50"] {
            let e = entries.iter().find(|e| e.model == model).unwrap();
            assert!(
                e.reduction() >= 0.25,
                "{model}: reduction {:.3} below the bar",
                e.reduction()
            );
        }
    }

    #[test]
    fn analysis_render_has_header_and_footer() {
        let entries = analyze_suite().unwrap();
        let text = render_analysis(&entries);
        assert!(text.starts_with("model"), "{text}");
        assert!(text.contains("resnet50"), "{text}");
        assert!(text.contains("analyze: 7 models"), "{text}");
    }
}
