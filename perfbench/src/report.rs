//! What one run reports: metrics with units, operations attempted and
//! failed, and correctness checks. The last line of standard output is the
//! machine-readable result.

use std::fmt::Write as _;

/// Accumulates one run's results.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, String)>,
    /// Operations attempted (solves, fixed-rate requests).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Correctness checks and validity guards that failed.
    pub violations: Vec<String>,
    /// Set-up time accumulated by the workload's parts, seconds.
    pub setup_s: f64,
}

impl Report {
    /// Records a metric. A name reported twice keeps its last value.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Counts one operation; a failed one is also a correctness violation.
    pub fn op(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.violations.push(format!("failed: {what}"));
        }
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.violations
                .push(format!("{failed} of {attempted} failed: {what}"));
        }
    }

    /// A correctness check or validity guard that is not an operation.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.violations.push(format!("check failed: {what}"));
        }
    }

    /// Whether every operation succeeded and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// Failed operations over attempted ones.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// One `name value unit` line per metric, for people.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "{name:<34} {value:>16.6} {unit}");
        }
        out
    }

    /// The result object: `correct`, `attempted`, `failed` and the metrics
    /// named in `keep`, in that order, each as `{"value", "unit"}`. Values
    /// carry every digit measured. A kept metric that was not recorded is
    /// an error naming it.
    pub fn json(&self, keep: &[&str]) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, name) in keep.iter().enumerate() {
            let (_, value, unit) = self
                .metrics
                .iter()
                .find(|(n, _, _)| n == name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut r = Report::default();
        r.metric("latency_ms", 1.203_456_789, "ms");
        r.metric("setup_s", 0.5, "s");
        r.metric("extra", 3.0, "count");
        r.op(true, "solve");
        r.ops(10, 0, "requests");
        assert!(r.correct());
        assert_eq!(
            r.json(&["latency_ms", "setup_s"]).unwrap(),
            "{\"correct\": true, \"attempted\": 11, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.203456789, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(r.json(&["missing"]).is_err());
    }

    #[test]
    fn failures_and_violations_make_the_run_incorrect() {
        let mut r = Report::default();
        r.ops(100, 2, "requests");
        assert!(!r.correct());
        assert!((r.failed_frac() - 0.02).abs() < 1e-12);

        let mut r = Report::default();
        r.op(true, "solve");
        r.check(false, "population drift");
        assert!(!r.correct());
        assert_eq!(r.failed, 0);
    }
}
