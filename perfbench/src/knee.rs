//! Knee search: the highest offered rate whose p99 stays within a latency
//! limit with zero failures, no growing backlog and an on-schedule
//! generator.

/// What one probe at a fixed offered rate measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// Nominal offered rate, requests/second.
    pub rate: f64,
    /// Rate actually offered (requests sent over the send window).
    pub offered: f64,
    /// Client-observed p99, milliseconds (coordinated-omission corrected;
    /// the median over windows of the probe).
    pub p99_ms: f64,
    /// Requests rejected, lost or unanswered at drain.
    pub failures: u64,
    /// Whether the backlog grew over the probe.
    pub backlog_growing: bool,
    /// Whether the generator fell behind its own schedule.
    pub client_late: bool,
}

impl Probe {
    /// Whether the probe meets every condition at `limit_ms`.
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.p99_ms <= limit_ms && self.failures == 0 && !self.backlog_growing && !self.client_late
    }
}

/// Search shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KneeSearch {
    /// First rate probed.
    pub start: f64,
    /// Multiplier between bracketing probes.
    pub factor: f64,
    /// Probes spent bracketing before giving up.
    pub max_bracket: usize,
    /// Geometric bisection probes once bracketed.
    pub refine: usize,
    /// The p99 limit, milliseconds.
    pub limit_ms: f64,
}

/// Result of a knee search.
#[derive(Debug, Clone, PartialEq)]
pub struct Knee {
    /// The knee, requests/second. Between the highest passing probe and the
    /// lowest failing one above it, the rate where p99 reaches the limit,
    /// interpolated in log-latency; the highest passing offered rate when
    /// the failing probe failed for another reason than latency. `None`
    /// when no probe passed.
    pub rps: Option<f64>,
    /// Every probe, in the order run.
    pub probes: Vec<Probe>,
}

impl KneeSearch {
    /// Runs the search, calling `probe(rate)` for each rate tried: upward
    /// (or downward, when the start fails) by `factor` until the limit is
    /// bracketed, then `refine` bisections of the bracket.
    pub fn run(&self, mut probe: impl FnMut(f64) -> Probe) -> Knee {
        let mut probes = Vec::new();
        let mut pass: Option<Probe> = None;
        let mut fail: Option<Probe> = None;
        let mut rate = self.start;
        for _ in 0..self.max_bracket {
            let p = probe(rate);
            probes.push(p);
            if p.passes(self.limit_ms) {
                pass = Some(p);
                if fail.is_some() {
                    break;
                }
                rate *= self.factor;
            } else {
                fail = Some(p);
                if pass.is_some() {
                    break;
                }
                rate /= self.factor;
            }
        }
        if let (Some(_), Some(_)) = (pass, fail) {
            for _ in 0..self.refine {
                let mid = (pass.unwrap().rate * fail.unwrap().rate).sqrt();
                let p = probe(mid);
                probes.push(p);
                if p.passes(self.limit_ms) {
                    pass = Some(p);
                } else {
                    fail = Some(p);
                }
            }
        }
        let rps = pass.map(|lo| match fail {
            Some(hi) if hi.rate > lo.rate && self.only_latency_failed(&hi) => {
                let (l0, l1) = (lo.p99_ms.max(1e-9).ln(), hi.p99_ms.ln());
                let t = if l1 > l0 {
                    ((self.limit_ms.ln() - l0) / (l1 - l0)).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                lo.offered + t * (hi.offered - lo.offered)
            }
            _ => lo.offered,
        });
        Knee { rps, probes }
    }

    fn only_latency_failed(&self, p: &Probe) -> bool {
        p.p99_ms > self.limit_ms && p.failures == 0 && !p.client_late
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An M/M/1-like latency curve: base latency growing as 1/(1 - ρ) with
    /// service capacity `cap` requests/second.
    fn synthetic(cap: f64, base_ms: f64) -> impl FnMut(f64) -> Probe {
        move |rate| {
            let rho = rate / cap;
            let p99_ms = if rho < 1.0 {
                base_ms / (1.0 - rho)
            } else {
                1e5
            };
            Probe {
                rate,
                offered: rate,
                p99_ms,
                failures: 0,
                backlog_growing: rho >= 1.0,
                client_late: false,
            }
        }
    }

    fn search(start: f64) -> KneeSearch {
        KneeSearch {
            start,
            factor: 2.0,
            max_bracket: 8,
            refine: 2,
            limit_ms: 100.0,
        }
    }

    #[test]
    fn finds_the_knee_of_a_synthetic_curve() {
        // p99 = 10 / (1 - r/3000) reaches 100 ms at r = 2700.
        let knee = search(1000.0).run(synthetic(3000.0, 10.0));
        let rps = knee.rps.unwrap();
        assert!((rps - 2700.0).abs() < 100.0, "knee {rps}");
        // Bracket 1000 → 2000 → 4000, then two bisections.
        assert_eq!(knee.probes.len(), 5);
        assert!(knee.probes.iter().any(|p| !p.passes(100.0)));
    }

    #[test]
    fn searches_downward_when_the_start_fails() {
        let knee = search(8000.0).run(synthetic(3000.0, 10.0));
        let rps = knee.rps.unwrap();
        assert!(rps <= 2700.0 + 1e-9 && rps > 1000.0, "knee {rps}");
        assert_eq!(knee.probes[0].rate, 8000.0);
        assert_eq!(knee.probes[1].rate, 4000.0);
    }

    #[test]
    fn failures_or_a_late_generator_fail_a_probe_without_interpolation() {
        let mut curve = synthetic(3000.0, 10.0);
        let knee = search(1000.0).run(|rate| {
            let mut p = curve(rate);
            // The client cannot keep up beyond 1500 req/s.
            p.client_late = rate > 1500.0;
            p
        });
        // Bracketed at [1000, 2000], refined to [1414, 2000] then
        // [1414, 1682]: the knee is the highest passing offered rate.
        let rps = knee.rps.unwrap();
        assert!((rps - 1414.2).abs() < 1.0, "knee {rps}");
    }

    #[test]
    fn no_passing_probe_means_no_knee() {
        let knee = search(1000.0).run(|rate| Probe {
            rate,
            offered: rate,
            p99_ms: 500.0,
            failures: 1,
            backlog_growing: false,
            client_late: false,
        });
        assert_eq!(knee.rps, None);
        assert_eq!(knee.probes.len(), 8);
    }

    #[test]
    fn an_unbounded_curve_reports_the_highest_probe() {
        let knee = search(1000.0).run(synthetic(1e12, 1.0));
        assert_eq!(knee.rps, Some(128_000.0));
        assert_eq!(knee.probes.len(), 8);
    }
}
