//! A reader for the Prometheus text exposition that `platform_serve`
//! serves on `/metrics`.

use std::collections::BTreeMap;

/// A sample's label set, sorted by key; empty when unlabeled.
type Labels = Vec<(String, String)>;

/// One scrape: every sample keyed by metric name, then by its label set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape {
    samples: BTreeMap<String, BTreeMap<Labels, f64>>,
}

impl Scrape {
    /// Parses exposition text. Comment and blank lines are skipped; a
    /// sample line that does not parse is an error naming the line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut samples: BTreeMap<String, BTreeMap<Labels, f64>> = BTreeMap::new();
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (name, labels, rest) = match line.find('{') {
                Some(open) => {
                    let close = line[open..]
                        .find('}')
                        .map(|c| open + c)
                        .ok_or_else(|| format!("unclosed label set: {line}"))?;
                    (
                        &line[..open],
                        parse_labels(&line[open + 1..close])
                            .ok_or_else(|| format!("bad label set: {line}"))?,
                        &line[close + 1..],
                    )
                }
                None => {
                    let sp = line
                        .find(char::is_whitespace)
                        .ok_or_else(|| format!("sample without value: {line}"))?;
                    (&line[..sp], Labels::new(), &line[sp..])
                }
            };
            let value = rest
                .split_whitespace()
                .next()
                .ok_or_else(|| format!("sample without value: {line}"))?;
            let value = match value {
                "+Inf" => f64::INFINITY,
                "-Inf" => f64::NEG_INFINITY,
                v => v.parse().map_err(|_| format!("bad value: {line}"))?,
            };
            samples
                .entry(name.to_string())
                .or_default()
                .insert(labels, value);
        }
        Ok(Scrape { samples })
    }

    /// The unlabeled sample `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.samples.get(name)?.get(&Labels::new()).copied()
    }

    /// Sum of every sample of `name` whose labels include all of `want`.
    /// `None` when no sample matches.
    pub fn sum_where(&self, name: &str, want: &[(&str, &str)]) -> Option<f64> {
        let series = self.samples.get(name)?;
        let mut found = false;
        let mut total = 0.0;
        for (labels, v) in series {
            if want
                .iter()
                .all(|(k, val)| labels.iter().any(|(lk, lv)| lk == k && lv == val))
            {
                found = true;
                total += v;
            }
        }
        found.then_some(total)
    }
}

/// Parses the inside of `{...}`; `None` on malformed input.
fn parse_labels(body: &str) -> Option<Labels> {
    let mut pairs: Vec<(String, String)> = Vec::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        let eq = rest.find('=')?;
        let key = rest[..eq].trim().to_string();
        let after = rest[eq + 1..].trim_start().strip_prefix('"')?;
        let mut value = String::new();
        let mut chars = after.char_indices();
        let end = loop {
            let (i, c) = chars.next()?;
            match c {
                '\\' => value.push(chars.next()?.1),
                '"' => break i,
                c => value.push(c),
            }
        };
        pairs.push((key, value));
        rest = after[end + 1..].trim_start();
        rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
    }
    pairs.sort();
    Some(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "\
# TYPE vcs_serve_latency_p99_seconds gauge
vcs_serve_latency_p99_seconds 0.052428799
vcs_serve_latency_samples_total 2047
# TYPE vcs_fleet_span_seconds_total counter
vcs_fleet_span_seconds_total{shard=\"0\",kind=\"reply\"} 0.25
vcs_fleet_span_seconds_total{shard=\"1\",kind=\"reply\"} 0.5
vcs_fleet_span_seconds_total{shard=\"coord\",kind=\"reply\"} 1.5
vcs_fleet_span_seconds_total{kind=\"ingress_queue\",shard=\"0\"} 2e-3
vcs_fleet_span_slot_seconds_bucket{le=\"+Inf\"} 4

vcs_odd{msg=\"a \\\"quoted\\\", comma\"} 1
";

    #[test]
    fn reads_unlabeled_gauges_and_counters() {
        let s = Scrape::parse(TEXT).unwrap();
        assert_eq!(s.get("vcs_serve_latency_p99_seconds"), Some(0.052428799));
        assert_eq!(s.get("vcs_serve_latency_samples_total"), Some(2047.0));
        assert_eq!(s.get("vcs_missing"), None);
    }

    #[test]
    fn sums_labeled_series_by_label_filter() {
        let s = Scrape::parse(TEXT).unwrap();
        let name = "vcs_fleet_span_seconds_total";
        assert_eq!(s.sum_where(name, &[("kind", "reply")]), Some(2.25));
        assert_eq!(
            s.sum_where(name, &[("kind", "reply"), ("shard", "coord")]),
            Some(1.5)
        );
        // Label order in the exposition does not matter.
        assert_eq!(
            s.sum_where(name, &[("shard", "0"), ("kind", "ingress_queue")]),
            Some(0.002)
        );
        assert_eq!(s.sum_where(name, &[("kind", "slot")]), None);
        assert_eq!(
            s.sum_where("vcs_fleet_span_slot_seconds_bucket", &[("le", "+Inf")]),
            Some(4.0)
        );
        assert_eq!(
            s.sum_where("vcs_odd", &[("msg", "a \"quoted\", comma")]),
            Some(1.0)
        );
    }

    #[test]
    fn malformed_samples_are_errors() {
        assert!(Scrape::parse("vcs_x{shard=\"0\" 1").is_err());
        assert!(Scrape::parse("vcs_x notanumber").is_err());
        assert!(Scrape::parse("vcs_x").is_err());
        assert!(Scrape::parse("vcs_x{shard=0} 1").is_err());
        assert_eq!(Scrape::parse("").unwrap(), Scrape::default());
    }
}
