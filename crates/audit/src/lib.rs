//! Structural invariant auditing.
//!
//! The k-path index `I_{G,k}` is stored under four representations, and the
//! paper's correctness argument leans on structural invariants each of them
//! maintains across mutations: sorted per-path relations, decodable chunks
//! with tight fences, superset-preserving source blooms, and a copy-on-write
//! page graph whose retired pages stay unreachable from live snapshots.
//! The differential harnesses only compare *answers*, so a latent corruption
//! that happens to cancel out on the probed shapes would ship silently.
//!
//! This crate defines the vocabulary those checks share: a backend
//! implements [`StructuralAudit`] and walks its own structures, recording
//! every invariant it evaluates — and every violation it finds — into an
//! [`AuditReport`]. The report is structured (backend, location, invariant
//! name, detail) so harnesses can assert on it and the CLI can print it.
//!
//! The crate is a leaf on purpose: it depends on nothing, so every storage
//! crate can implement the trait without dependency cycles.

use std::fmt;
use std::time::{Duration, Instant};

/// A single violated invariant, attributed to the structure that broke it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditViolation {
    /// The audited backend (e.g. `"memory"`, `"paged-btree"`).
    pub backend: String,
    /// Where inside the backend the violation sits (a path, a page id, a
    /// segment index) — human-readable, not machine-parsed.
    pub location: String,
    /// The short stable name of the broken invariant (e.g.
    /// `"chunk-sorted"`, `"free-reachable-disjoint"`).
    pub invariant: &'static str,
    /// What exactly was observed.
    pub detail: String,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} at {}: {}",
            self.backend, self.invariant, self.location, self.detail
        )
    }
}

/// Per-backend accounting: how many invariant evaluations ran, how many
/// failed, and how long the walk took.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditSection {
    /// The audited backend's name.
    pub backend: String,
    /// Number of individual invariant evaluations performed.
    pub checks: u64,
    /// Number of violations recorded in this section.
    pub violations: u64,
    /// Wall-clock time spent walking this backend.
    pub elapsed: Duration,
}

/// The result of auditing one or more structures.
///
/// A report accumulates across backends: callers open a section per backend
/// with [`AuditReport::run`] (which times the walk), and implementations
/// record evaluations through [`AuditReport::check`] /
/// [`AuditReport::violation`].
#[derive(Debug, Default)]
pub struct AuditReport {
    violations: Vec<AuditViolation>,
    sections: Vec<AuditSection>,
    current: Option<OpenSection>,
}

#[derive(Debug)]
struct OpenSection {
    backend: String,
    checks: u64,
    violations: u64,
    started: Instant,
}

impl AuditReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Audit `subject` under the given backend name, timing the walk and
    /// recording it as a section.
    pub fn run(&mut self, backend: &str, subject: &dyn StructuralAudit) {
        self.begin(backend);
        subject.audit(self);
        self.end();
    }

    /// Open a section by hand (prefer [`AuditReport::run`]). A section left
    /// open is closed implicitly by the next `begin` or by accessors.
    pub fn begin(&mut self, backend: &str) {
        self.end();
        self.current = Some(OpenSection {
            backend: backend.to_string(),
            checks: 0,
            violations: 0,
            started: Instant::now(),
        });
    }

    /// Close the open section, if any.
    pub fn end(&mut self) {
        if let Some(open) = self.current.take() {
            self.sections.push(AuditSection {
                backend: open.backend,
                checks: open.checks,
                violations: open.violations,
                elapsed: open.started.elapsed(),
            });
        }
    }

    /// Evaluate one invariant: counts the check, and records a violation
    /// with `detail()` when `ok` is false. The detail closure only runs on
    /// failure so the pass path stays allocation-free.
    pub fn check(
        &mut self,
        invariant: &'static str,
        location: &str,
        ok: bool,
        detail: impl FnOnce() -> String,
    ) {
        self.count_check();
        if !ok {
            self.record(invariant, location, detail());
        }
    }

    /// Record a violation directly (for checks whose evaluation already
    /// happened elsewhere). Also counts as one evaluation.
    pub fn violation(&mut self, invariant: &'static str, location: &str, detail: String) {
        self.count_check();
        self.record(invariant, location, detail);
    }

    fn count_check(&mut self) {
        if self.current.is_none() {
            self.begin("unattributed");
        }
        if let Some(open) = &mut self.current {
            open.checks += 1;
        }
    }

    fn record(&mut self, invariant: &'static str, location: &str, detail: String) {
        let backend = self
            .current
            .as_ref()
            .map(|open| open.backend.clone())
            .unwrap_or_else(|| "unattributed".to_string());
        if let Some(open) = &mut self.current {
            open.violations += 1;
        }
        self.violations.push(AuditViolation {
            backend,
            location: location.to_string(),
            invariant,
            detail,
        });
    }

    /// True when no violation was recorded.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Every recorded violation, in discovery order.
    pub fn violations(&self) -> &[AuditViolation] {
        &self.violations
    }

    /// Total number of invariant evaluations across all sections.
    pub fn checks(&self) -> u64 {
        let open = self.current.as_ref().map(|o| o.checks).unwrap_or(0);
        self.sections.iter().map(|s| s.checks).sum::<u64>() + open
    }

    /// Closed per-backend sections (call [`AuditReport::end`] first if a
    /// section is still open).
    pub fn sections(&self) -> &[AuditSection] {
        &self.sections
    }

    /// Panic with a readable listing unless the report is clean. Test
    /// harnesses use this as their post-batch gate.
    pub fn assert_clean(&self, context: &str) {
        assert!(
            self.is_clean(),
            "structural audit failed ({context}): {} violation(s) across {} check(s)\n{}",
            self.violations.len(),
            self.checks(),
            self
        );
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for section in &self.sections {
            writeln!(
                f,
                "  {:<14} {:>6} checks  {:>3} violations  {:>9.3?}",
                section.backend, section.checks, section.violations, section.elapsed
            )?;
        }
        for violation in &self.violations {
            writeln!(f, "  VIOLATION {violation}")?;
        }
        Ok(())
    }
}

/// A structure that can verify its own invariants.
///
/// Implementations walk the complete structure (every chunk, page, segment)
/// and record each invariant evaluation in the report; they must not panic
/// on corrupt input — the whole point is to *report* corruption.
pub trait StructuralAudit {
    /// Verify every structural invariant, recording results in `report`.
    fn audit(&self, report: &mut AuditReport);
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TwoChecks;

    impl StructuralAudit for TwoChecks {
        fn audit(&self, report: &mut AuditReport) {
            report.check("always-holds", "here", true, || unreachable!());
            report.check("always-broken", "there", false, || "saw 7, want 6".into());
        }
    }

    #[test]
    fn report_accumulates_sections_checks_and_violations() {
        let mut report = AuditReport::new();
        report.run("test-backend", &TwoChecks);
        assert!(!report.is_clean());
        assert_eq!(report.checks(), 2);
        assert_eq!(report.sections().len(), 1);
        let section = &report.sections()[0];
        assert_eq!(section.backend, "test-backend");
        assert_eq!(section.checks, 2);
        assert_eq!(section.violations, 1);
        let violation = &report.violations()[0];
        assert_eq!(violation.invariant, "always-broken");
        assert_eq!(violation.backend, "test-backend");
        assert_eq!(violation.location, "there");
        assert!(violation.detail.contains("saw 7"));
    }

    #[test]
    fn clean_report_asserts_quietly_and_display_lists_violations() {
        let mut clean = AuditReport::new();
        clean.begin("b");
        clean.check("ok", "x", true, String::new);
        clean.end();
        clean.assert_clean("unit");

        let mut dirty = AuditReport::new();
        dirty.begin("b");
        dirty.violation("broken", "page 3", "fence misses key".into());
        dirty.end();
        let text = format!("{dirty}");
        assert!(text.contains("broken"), "{text}");
        assert!(text.contains("page 3"), "{text}");
        let caught = std::panic::catch_unwind(|| dirty.assert_clean("unit"));
        assert!(caught.is_err());
    }
}
