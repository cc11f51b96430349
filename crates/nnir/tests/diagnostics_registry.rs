// Test/bench/example target: panics are the failure report.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Registry-exhaustiveness gate for the stable diagnostic codes.
//!
//! Every code in [`Code::ALL`] must be (a) documented in the DESIGN.md
//! §8 code table and (b) exercised by at least one test in the analysis
//! module's test corpus. A code added without documentation, or
//! documented without a test emitting it, fails here — which is what
//! keeps "stable code" an enforced contract rather than a convention.

use vedliot_nnir::analysis::{Code, Severity};

const DESIGN: &str = include_str!("../../../DESIGN.md");

/// The analysis module's test corpus: the pass/framework tests plus the
/// dataflow-analysis tests, whose assertions name codes they expect.
const TEST_CORPUS: &[&str] = &[
    include_str!("../src/analysis/mod.rs"),
    include_str!("../src/analysis/dataflow.rs"),
    include_str!("../src/analysis/passes.rs"),
];

/// The §8 section of DESIGN.md (up to the next `## ` heading).
fn design_section_8() -> &'static str {
    let start = DESIGN
        .find("## 8. Static analysis")
        .expect("DESIGN.md has a §8 static-analysis section");
    let rest = &DESIGN[start..];
    match rest[3..].find("\n## ") {
        Some(end) => &rest[..end + 3],
        None => rest,
    }
}

#[test]
fn every_stable_code_is_documented_in_design_section_8() {
    let section = design_section_8();
    for code in Code::ALL {
        let row = format!("| {} |", code.as_str());
        assert!(
            section.contains(&row),
            "code {} is missing from the DESIGN.md §8 table",
            code.as_str()
        );
    }
}

#[test]
fn every_stable_code_is_exercised_by_a_test() {
    for code in Code::ALL {
        let quoted = format!("\"{}\"", code.as_str());
        assert!(
            TEST_CORPUS.iter().any(|src| src.contains(&quoted)),
            "code {} is never named by an analysis test — add one that asserts it is emitted",
            code.as_str()
        );
    }
}

#[test]
fn registry_is_complete_and_severities_are_stable() {
    // 21 codes, no duplicates, stable severity mapping.
    let mut seen = std::collections::BTreeSet::new();
    for code in Code::ALL {
        assert!(seen.insert(code.as_str()), "duplicate code {code:?}");
        let expected = match &code.as_str()[..1] {
            "V" | "T" => Severity::Error,
            "W" => Severity::Warning,
            "I" => Severity::Info,
            other => panic!("unknown code prefix {other}"),
        };
        assert_eq!(
            code.severity(),
            expected,
            "{} severity drifted from its prefix convention",
            code.as_str()
        );
    }
    assert_eq!(seen.len(), Code::ALL.len());
}
