//! The performance-trajectory gate: merge the workspace's benchmark
//! artifacts (`BENCH_engine.json`, `BENCH_online.json`, `BENCH_obs.json`)
//! into one versioned `BENCH_trajectory.json` and compare it against the
//! committed baseline with a noise tolerance.
//!
//! ## What is gated
//!
//! Only **dimensionless** metrics are gated: engine-vs-naive speedups,
//! warm-vs-cold slot speedups, ϕ-agreement epoch counts, and the relative
//! throughput of instrumented runs (instrumented rate / plain rate). Raw
//! rates (slots/sec) depend on the machine running the benchmark and are
//! carried as *informational* values only — committing a baseline from a
//! fast machine must not fail CI on a slow one. Ratios measured within one
//! process largely cancel the machine out.
//!
//! All gated metrics are higher-is-better; a metric **regresses** when
//! `current < baseline · (1 − tolerance)` or when it disappears from the
//! current trajectory. Improvements never fail the gate (the `bench_trend`
//! bin prints them so the baseline can be ratcheted).
//!
//! The workspace has no JSON parser dependency (the vendored `serde` is a
//! derive-only subset and the benchmark artifacts are hand-rendered), so
//! this module carries a minimal recursive-descent parser for the
//! benchmark files' subset of JSON — objects, arrays, strings, f64
//! numbers, booleans, null.

use std::fmt::Write as _;

/// Version stamp of the `BENCH_trajectory.json` schema; bump on layout
/// changes so a stale committed baseline fails loudly instead of silently
/// comparing mismatched keys.
pub const SCHEMA_VERSION: u64 = 1;

/// Default relative noise tolerance of the gate. Benchmark-to-benchmark
/// jitter on the gated ratios sits in the single-digit percents; 15% keeps
/// the gate quiet on noise while still catching the 25% synthetic
/// regression of the CI self-test.
pub const DEFAULT_TOLERANCE: f64 = 0.15;

// ---------------------------------------------------------------------------
// Minimal JSON value + parser
// ---------------------------------------------------------------------------

/// A parsed JSON value (numbers are f64 — the artifacts carry nothing that
/// needs more).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as f64, if a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                byte as char,
                self.pos,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("malformed literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match escaped {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            self.pos += 4;
                            // Surrogate pairs don't occur in the artifacts;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("unknown escape \\{}", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the artifacts contain ϕ).
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let ch = rest.chars().next().expect("peeked non-empty");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("malformed number {text:?} at byte {start}"))
    }
}

// ---------------------------------------------------------------------------
// Trajectory
// ---------------------------------------------------------------------------

/// One merged benchmark trajectory: named metrics split into the gated
/// (dimensionless, machine-portable) and informational (raw-rate) sets.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// `metric path → value`, gated by [`compare`]. Paths are
    /// `engine/<algo>/<users>/<metric>`, `online/<users>/<churn>/<metric>`,
    /// `obs/<algo>/<users>/<metric>`, `shard/<users>/<shards>/<metric>`,
    /// `net/<loss>/<rtt_ms>/<metric>`.
    pub gated: Vec<(String, f64)>,
    /// Machine-dependent context values, never gated.
    pub informational: Vec<(String, f64)>,
}

fn field_f64(row: &Json, key: &str) -> Result<f64, String> {
    row.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("row missing numeric field {key:?}"))
}

fn rows<'a>(doc: &'a Json, what: &str) -> Result<&'a [Json], String> {
    doc.get("rows")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{what}: no \"rows\" array"))
}

/// Formats a churn rate / numeric path segment without trailing zeros
/// (`0.05` → `0.05`, `500` → `500`).
fn seg(value: f64) -> String {
    if value == value.trunc() {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

/// Merges the benchmark documents into one [`Trajectory`]. `fleet`
/// (`BENCH_fleet.json`, the telemetry-plane overhead matrix) and `load`
/// (`BENCH_load.json`, the sustained open-loop serving matrix) are
/// optional: artifacts predating those planes merge without them, and
/// their `obs_fleet/...` / `load/...` metrics enter the gate once the
/// files exist.
pub fn build_trajectory(
    engine: &Json,
    online: &Json,
    obs: &Json,
    shard: &Json,
    net: &Json,
    fleet: Option<&Json>,
    load: Option<&Json>,
) -> Result<Trajectory, String> {
    let mut gated = Vec::new();
    let mut info = Vec::new();
    for row in rows(engine, "BENCH_engine")? {
        let algo = row
            .get("algorithm")
            .and_then(Json::as_str)
            .ok_or("engine row missing algorithm")?;
        let users = seg(field_f64(row, "users")?);
        let base = format!("engine/{algo}/{users}");
        gated.push((format!("{base}/speedup"), field_f64(row, "speedup")?));
        info.push((
            format!("{base}/engine_slots_per_sec"),
            field_f64(row, "engine_slots_per_sec")?,
        ));
        info.push((
            format!("{base}/naive_slots_per_sec"),
            field_f64(row, "naive_slots_per_sec")?,
        ));
    }
    for row in rows(online, "BENCH_online")? {
        let users = seg(field_f64(row, "users")?);
        let churn = seg(field_f64(row, "churn_rate")?);
        let base = format!("online/{users}/{churn}");
        gated.push((
            format!("{base}/slot_speedup"),
            field_f64(row, "slot_speedup")?,
        ));
        gated.push((
            format!("{base}/phi_agree_epochs"),
            field_f64(row, "phi_agree_epochs")?,
        ));
        // Wall-clock speedup is dimensionless but both numerator and
        // denominator are wall time of *different* code paths — allocator
        // and cache state make it the noisiest ratio we record. Carry it,
        // don't gate it.
        info.push((
            format!("{base}/wall_speedup"),
            field_f64(row, "wall_speedup")?,
        ));
        info.push((format!("{base}/warm_slots"), field_f64(row, "warm_slots")?));
        info.push((format!("{base}/cold_slots"), field_f64(row, "cold_slots")?));
    }
    for row in rows(obs, "BENCH_obs")? {
        let algo = row
            .get("algorithm")
            .and_then(Json::as_str)
            .ok_or("obs row missing algorithm")?;
        let users = seg(field_f64(row, "users")?);
        let base = format!("obs/{algo}/{users}");
        let plain = field_f64(row, "plain_slots_per_sec")?;
        if plain <= 0.0 {
            return Err(format!("{base}: non-positive plain rate {plain}"));
        }
        // Relative throughput under instrumentation: 1.0 = free, lower =
        // overhead. Both rates come from the same process on the same
        // machine, so the ratio is portable where the raw rates are not.
        gated.push((
            format!("{base}/noop_rel"),
            field_f64(row, "noop_slots_per_sec")? / plain,
        ));
        gated.push((
            format!("{base}/stats_rel"),
            field_f64(row, "stats_slots_per_sec")? / plain,
        ));
        // Optional: artifacts predating the flight recorder (PR ≤ 4) carry
        // no recorder rate; the metric enters the gate once present.
        if let Some(recorder) = row.get("recorder_slots_per_sec").and_then(Json::as_f64) {
            gated.push((format!("{base}/recorder_rel"), recorder / plain));
        }
        info.push((format!("{base}/plain_slots_per_sec"), plain));
    }
    for row in rows(shard, "BENCH_shard")? {
        let users = seg(field_f64(row, "users")?);
        let shards = field_f64(row, "shards")?;
        let base = format!("shard/{users}/{}", seg(shards));
        // Aggregate slots/sec of the sharded driver relative to the same
        // tier's single-shard cell — both measured sequentially in the same
        // process, so the ratio isolates the locality-decomposition win.
        // The 1-shard row is the ratio's own denominator (speedup ≡ 1);
        // only the decomposed cells are gated.
        if shards > 1.0 {
            gated.push((
                format!("{base}/agg_speedup"),
                field_f64(row, "speedup_vs_1")?,
            ));
        }
        info.push((
            format!("{base}/agg_slots_per_sec"),
            field_f64(row, "agg_slots_per_sec")?,
        ));
        info.push((
            format!("{base}/boundary_fraction"),
            field_f64(row, "boundary_fraction")?,
        ));
    }
    for row in rows(net, "BENCH_net")? {
        let loss = seg(field_f64(row, "loss")?);
        let rtt = seg(field_f64(row, "rtt_ms")?);
        let base = format!("net/{loss}/{rtt}");
        // 1.0 = the lossy-UDP deployment converged AND its merged profile
        // passed the full-game oracle (exact reconstruction, ϕ to 1e-9,
        // NE certificate). Binary by construction, floored at 1.0: any
        // loss/latency cell losing its certificate fails the gate outright.
        gated.push((format!("{base}/certified"), field_f64(row, "certified")?));
        info.push((format!("{base}/rounds"), field_f64(row, "rounds")?));
        info.push((
            format!("{base}/retransmissions"),
            field_f64(row, "retransmissions")?,
        ));
        info.push((format!("{base}/drops"), field_f64(row, "drops")?));
        info.push((format!("{base}/wall_sec"), field_f64(row, "wall_sec")?));
    }
    if let Some(fleet) = fleet {
        for row in rows(fleet, "BENCH_fleet")? {
            let users = seg(field_f64(row, "users")?);
            let shards = seg(field_f64(row, "shards")?);
            let base = format!("obs_fleet/{users}/{shards}");
            // Relative deployment throughput with the telemetry plane on:
            // telemetry-off wall / telemetry-on wall of the same config in
            // the same process. 1.0 = free, lower = overhead; floored at
            // 0.95 (the < 5% telemetry budget) independent of baseline.
            gated.push((
                format!("{base}/telemetry_rel"),
                field_f64(row, "telemetry_rel")?,
            ));
            info.push((
                format!("{base}/plain_wall_sec"),
                field_f64(row, "plain_wall_sec")?,
            ));
            info.push((
                format!("{base}/telemetry_wall_sec"),
                field_f64(row, "telemetry_wall_sec")?,
            ));
        }
    }
    if let Some(load) = load {
        for row in rows(load, "BENCH_load")? {
            let rate = seg(field_f64(row, "rate")?);
            let shards = seg(field_f64(row, "shards")?);
            let base = format!("load/{rate}/{shards}");
            // Fraction of offered requests the serving process answered
            // with a non-rejected reply during the open-loop run. 1.0 =
            // every request served; floored at 0.90 independent of
            // baseline — a serving mode that drops or rejects more than
            // 10% of offered load is broken, not slow.
            gated.push((
                format!("{base}/served_ratio"),
                field_f64(row, "served_ratio")?,
            ));
            // Latency and throughput ride along informationally: they are
            // machine- and load-dependent, so the trend is advisory.
            info.push((
                format!("{base}/slots_per_sec"),
                field_f64(row, "slots_per_sec")?,
            ));
            info.push((format!("{base}/p50_ms"), field_f64(row, "p50_ms")?));
            info.push((format!("{base}/p99_ms"), field_f64(row, "p99_ms")?));
        }
    }
    if gated.is_empty() {
        return Err("no gated metrics extracted — empty benchmark artifacts?".into());
    }
    Ok(Trajectory {
        gated,
        informational: info,
    })
}

/// Renders a [`Trajectory`] as the versioned `BENCH_trajectory.json`
/// document (deterministic output: metrics in extraction order, values at
/// fixed precision so regenerating from identical artifacts is a no-op
/// diff).
pub fn render_trajectory(trajectory: &Trajectory, tolerance: f64) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema_version\": {SCHEMA_VERSION},");
    let _ = writeln!(out, "  \"tolerance\": {tolerance},");
    let section = |out: &mut String, name: &str, metrics: &[(String, f64)], last: bool| {
        let _ = writeln!(out, "  \"{name}\": {{");
        for (i, (key, value)) in metrics.iter().enumerate() {
            let comma = if i + 1 == metrics.len() { "" } else { "," };
            let _ = writeln!(out, "    \"{key}\": {value}{comma}");
        }
        let _ = writeln!(out, "  }}{}", if last { "" } else { "," });
    };
    section(&mut out, "gated", &trajectory.gated, false);
    section(&mut out, "informational", &trajectory.informational, true);
    out.push_str("}\n");
    out
}

/// Parses a `BENCH_trajectory.json` document back into a [`Trajectory`]
/// plus its recorded tolerance. Rejects unknown schema versions.
pub fn parse_trajectory(text: &str) -> Result<(Trajectory, f64), String> {
    let doc = Json::parse(text)?;
    let version = doc
        .get("schema_version")
        .and_then(Json::as_f64)
        .ok_or("trajectory missing schema_version")?;
    if version != SCHEMA_VERSION as f64 {
        return Err(format!(
            "trajectory schema version {version} (this binary speaks {SCHEMA_VERSION})"
        ));
    }
    let tolerance = doc
        .get("tolerance")
        .and_then(Json::as_f64)
        .ok_or("trajectory missing tolerance")?;
    let metrics = |name: &str| -> Result<Vec<(String, f64)>, String> {
        match doc.get(name) {
            Some(Json::Obj(fields)) => fields
                .iter()
                .map(|(k, v)| {
                    v.as_f64()
                        .map(|v| (k.clone(), v))
                        .ok_or_else(|| format!("non-numeric metric {k:?}"))
                })
                .collect(),
            _ => Err(format!("trajectory missing {name:?} object")),
        }
    };
    Ok((
        Trajectory {
            gated: metrics("gated")?,
            informational: metrics("informational")?,
        },
        tolerance,
    ))
}

/// One gated metric that fell below the baseline beyond tolerance (or
/// vanished — `current` is NaN then).
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// The metric path.
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value (NaN when the metric disappeared).
    pub current: f64,
}

/// Gates `current` against `baseline`: every baseline gated metric must be
/// present and ≥ `baseline · (1 − tolerance)`. Returns the regressions
/// (empty = pass). Metrics new in `current` are not checked — they enter
/// the gate once the baseline is regenerated.
pub fn compare(current: &Trajectory, baseline: &Trajectory, tolerance: f64) -> Vec<Regression> {
    let mut regressions = Vec::new();
    for (metric, base) in &baseline.gated {
        let now = current
            .gated
            .iter()
            .find(|(k, _)| k == metric)
            .map(|&(_, v)| v);
        match now {
            None => regressions.push(Regression {
                metric: metric.clone(),
                baseline: *base,
                current: f64::NAN,
            }),
            Some(now) if now < base * (1.0 - tolerance) => regressions.push(Regression {
                metric: metric.clone(),
                baseline: *base,
                current: now,
            }),
            Some(_) => {}
        }
    }
    regressions
}

/// Absolute floors, enforced on the **current** trajectory independently
/// of any baseline:
///
/// * every `engine/MUUN/<users>/speedup` ≥ 1.0 — the engine must never be
///   slower than the naive driver it replaces (MUUN is the only algorithm
///   that has ever dipped below parity, at small user counts where slab
///   construction used to dominate);
/// * `shard/100000/4/agg_speedup` ≥ 1.5 — the locality decomposition must
///   keep paying for its boundary-sync overhead at the deployment tier the
///   sharded driver exists for;
/// * every `net/<loss>/<rtt>/certified` ≥ 1.0 — every cell of the
///   loss×latency matrix (up to 20% loss, 200ms RTT) must converge to a
///   certified full-game Nash equilibrium; the ARQ makes the trajectory
///   fault-independent, so a decertified cell is a protocol bug, not noise;
/// * every `obs_fleet/<users>/<shards>/telemetry_rel` ≥ 0.95 — the fleet
///   telemetry plane (frame capture, encode, control-socket interleaving,
///   registry ingest) must cost a deployment less than 5% of its
///   telemetry-off wall clock;
/// * every `load/<rate>/<shards>/served_ratio` ≥ 0.90 — under sustained
///   open-loop load the serving process must answer at least 90% of
///   offered requests with non-rejected replies; latency may drift with
///   the machine, but dropped or rejected requests are a serving bug;
/// * `engine/MUUN/100000/engine_slots_per_sec` ≥ 2.0 — MUUN's capped
///   cold-start run at city scale must sustain an absolute slot rate. The
///   metric stays informational (the relative gate never applies to a raw
///   rate that swings with the host), but the floor sits an order of
///   magnitude below the measured 10–21 slots/s and an order above the
///   0.2 slots/s of the pairwise PUU admission it replaced, so host drift
///   does not trip it and a return of the quadratic greedy does.
///
/// Violations reuse [`Regression`] with the floor as the `baseline`.
pub fn floor_violations(current: &Trajectory) -> Vec<Regression> {
    const MUUN_FLOOR: f64 = 1.0;
    const SHARD_FLOOR: f64 = 1.5;
    const NET_FLOOR: f64 = 1.0;
    const FLEET_FLOOR: f64 = 0.95;
    const LOAD_FLOOR: f64 = 0.90;
    const MUUN_RATE_FLOOR: f64 = 2.0;
    const SHARD_METRIC: &str = "shard/100000/4/agg_speedup";
    const MUUN_RATE_METRIC: &str = "engine/MUUN/100000/engine_slots_per_sec";
    let floor_of = |metric: &str| -> Option<f64> {
        if metric == MUUN_RATE_METRIC {
            Some(MUUN_RATE_FLOOR)
        } else if metric.starts_with("engine/MUUN/") && metric.ends_with("/speedup") {
            Some(MUUN_FLOOR)
        } else if metric == SHARD_METRIC {
            Some(SHARD_FLOOR)
        } else if metric.starts_with("net/") && metric.ends_with("/certified") {
            Some(NET_FLOOR)
        } else if metric.starts_with("obs_fleet/") && metric.ends_with("/telemetry_rel") {
            Some(FLEET_FLOOR)
        } else if metric.starts_with("load/") && metric.ends_with("/served_ratio") {
            Some(LOAD_FLOOR)
        } else {
            None
        }
    };
    current
        .gated
        .iter()
        .chain(&current.informational)
        .filter_map(|(metric, value)| {
            let floor = floor_of(metric)?;
            (*value < floor).then(|| Regression {
                metric: metric.clone(),
                baseline: floor,
                current: *value,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const ENGINE: &str = r#"{"rows": [
        {"algorithm": "DGRN", "users": 100, "speedup": 4.0,
         "engine_slots_per_sec": 1000.0, "naive_slots_per_sec": 250.0}
    ]}"#;
    const ONLINE: &str = r#"{"rows": [
        {"users": 500, "churn_rate": 0.05, "slot_speedup": 8.0,
         "phi_agree_epochs": 5, "wall_speedup": 3.0,
         "warm_slots": 250, "cold_slots": 2000}
    ]}"#;
    const OBS: &str = r#"{"rows": [
        {"algorithm": "DGRN", "users": 100, "plain_slots_per_sec": 1000.0,
         "noop_slots_per_sec": 990.0, "stats_slots_per_sec": 960.0,
         "recorder_slots_per_sec": 950.0}
    ]}"#;
    const SHARD: &str = r#"{"rows": [
        {"users": 100000, "shards": 1, "agg_slots_per_sec": 200000.0,
         "speedup_vs_1": 1.0, "boundary_fraction": 0.0},
        {"users": 100000, "shards": 4, "agg_slots_per_sec": 340000.0,
         "speedup_vs_1": 1.7, "boundary_fraction": 0.0006}
    ]}"#;
    const NET: &str = r#"{"rows": [
        {"loss": 0, "rtt_ms": 0, "certified": 1.0, "rounds": 3,
         "retransmissions": 0, "drops": 0, "wall_sec": 1.2},
        {"loss": 0.2, "rtt_ms": 200, "certified": 1.0, "rounds": 3,
         "retransmissions": 41, "drops": 55, "wall_sec": 30.5}
    ]}"#;
    const FLEET: &str = r#"{"rows": [
        {"users": 400, "shards": 3, "telemetry_rel": 0.99,
         "plain_wall_sec": 2.0, "telemetry_wall_sec": 2.02}
    ]}"#;
    const LOAD: &str = r#"{"rows": [
        {"rate": 200, "shards": 2, "served_ratio": 1.0,
         "slots_per_sec": 850.0, "p50_ms": 0.4, "p99_ms": 2.1}
    ]}"#;

    fn trajectory() -> Trajectory {
        build_trajectory(
            &Json::parse(ENGINE).unwrap(),
            &Json::parse(ONLINE).unwrap(),
            &Json::parse(OBS).unwrap(),
            &Json::parse(SHARD).unwrap(),
            &Json::parse(NET).unwrap(),
            Some(&Json::parse(FLEET).unwrap()),
            Some(&Json::parse(LOAD).unwrap()),
        )
        .unwrap()
    }

    #[test]
    fn parser_handles_the_artifact_subset() {
        let doc = Json::parse(r#"{"s": "a\"bϕ", "n": -1.5e3, "b": true, "x": null, "a": [1, 2]}"#)
            .unwrap();
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("a\"bϕ"));
        assert_eq!(doc.get("n").and_then(Json::as_f64), Some(-1500.0));
        assert_eq!(doc.get("b"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("x"), Some(&Json::Null));
        assert_eq!(
            doc.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
    }

    #[test]
    fn trajectory_extracts_gated_ratios_and_informational_rates() {
        let t = trajectory();
        let get = |k: &str| {
            t.gated
                .iter()
                .find(|(key, _)| key == k)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("missing gated metric {k}"))
        };
        assert_eq!(get("engine/DGRN/100/speedup"), 4.0);
        assert_eq!(get("online/500/0.05/slot_speedup"), 8.0);
        assert_eq!(get("online/500/0.05/phi_agree_epochs"), 5.0);
        assert!((get("obs/DGRN/100/stats_rel") - 0.96).abs() < 1e-12);
        assert!((get("obs/DGRN/100/recorder_rel") - 0.95).abs() < 1e-12);
        assert_eq!(get("shard/100000/4/agg_speedup"), 1.7);
        // The 1-shard cell is the denominator, not a gated ratio.
        assert!(!t
            .gated
            .iter()
            .any(|(k, _)| k == "shard/100000/1/agg_speedup"));
        assert!(t
            .informational
            .iter()
            .any(|(k, _)| k == "shard/100000/4/boundary_fraction"));
        assert!(t
            .informational
            .iter()
            .any(|(k, _)| k == "engine/DGRN/100/engine_slots_per_sec"));
        // Raw rates never gate.
        assert!(!t
            .gated
            .iter()
            .any(|(k, _)| k.contains("slots_per_sec") || k.contains("wall_speedup")));
    }

    #[test]
    fn pre_recorder_obs_artifact_still_builds() {
        // PR ≤ 4 BENCH_obs.json rows carry no recorder rate — they must
        // merge cleanly, just without the recorder_rel gate.
        let obs = r#"{"rows": [
            {"algorithm": "DGRN", "users": 100, "plain_slots_per_sec": 1000.0,
             "noop_slots_per_sec": 990.0, "stats_slots_per_sec": 960.0}
        ]}"#;
        let t = build_trajectory(
            &Json::parse(ENGINE).unwrap(),
            &Json::parse(ONLINE).unwrap(),
            &Json::parse(obs).unwrap(),
            &Json::parse(SHARD).unwrap(),
            &Json::parse(NET).unwrap(),
            None,
            None,
        )
        .unwrap();
        assert!(t.gated.iter().any(|(k, _)| k == "obs/DGRN/100/stats_rel"));
        assert!(!t.gated.iter().any(|(k, _)| k.contains("recorder_rel")));
        // No fleet/load artifacts → no obs_fleet or load metrics, and no
        // floors demanded for them.
        assert!(!t.gated.iter().any(|(k, _)| k.starts_with("obs_fleet/")));
        assert!(!t.gated.iter().any(|(k, _)| k.starts_with("load/")));
        assert!(floor_violations(&t).is_empty());
    }

    #[test]
    fn load_served_ratio_floor_catches_dropped_requests() {
        let t = trajectory();
        assert!(t.gated.iter().any(|(k, _)| k == "load/200/2/served_ratio"));
        assert!(t
            .informational
            .iter()
            .any(|(k, _)| k == "load/200/2/slots_per_sec"));
        assert!(t
            .informational
            .iter()
            .any(|(k, _)| k == "load/200/2/p99_ms"));
        assert!(floor_violations(&t).is_empty());
        let mut dropping = t.clone();
        for (k, v) in &mut dropping.gated {
            if k == "load/200/2/served_ratio" {
                *v = 0.85; // 15% of offered load lost or rejected
            }
        }
        let found = floor_violations(&dropping);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].metric, "load/200/2/served_ratio");
        assert_eq!(found[0].baseline, 0.90);
        assert_eq!(found[0].current, 0.85);
    }

    #[test]
    fn fleet_telemetry_floor_catches_overhead_over_budget() {
        let t = trajectory();
        assert!(t
            .gated
            .iter()
            .any(|(k, _)| k == "obs_fleet/400/3/telemetry_rel"));
        assert!(t
            .informational
            .iter()
            .any(|(k, _)| k == "obs_fleet/400/3/plain_wall_sec"));
        assert!(floor_violations(&t).is_empty());
        let mut over_budget = t.clone();
        for (k, v) in &mut over_budget.gated {
            if k == "obs_fleet/400/3/telemetry_rel" {
                *v = 0.91; // 9% overhead: past the 5% telemetry budget
            }
        }
        let found = floor_violations(&over_budget);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].metric, "obs_fleet/400/3/telemetry_rel");
        assert_eq!(found[0].baseline, 0.95);
        assert_eq!(found[0].current, 0.91);
    }

    #[test]
    fn render_parse_roundtrip() {
        let t = trajectory();
        let text = render_trajectory(&t, DEFAULT_TOLERANCE);
        let (parsed, tolerance) = parse_trajectory(&text).unwrap();
        assert_eq!(parsed, t);
        assert_eq!(tolerance, DEFAULT_TOLERANCE);
    }

    #[test]
    fn identical_trajectories_pass() {
        let t = trajectory();
        assert!(compare(&t, &t, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn small_noise_passes_large_regression_fails() {
        let baseline = trajectory();
        let mut noisy = baseline.clone();
        for (_, v) in &mut noisy.gated {
            *v *= 0.90; // 10% dip: inside the 15% tolerance
        }
        assert!(compare(&noisy, &baseline, DEFAULT_TOLERANCE).is_empty());
        let mut regressed = baseline.clone();
        for (_, v) in &mut regressed.gated {
            *v *= 0.75; // 25% dip: must trip the gate on every metric
        }
        let found = compare(&regressed, &baseline, DEFAULT_TOLERANCE);
        assert_eq!(found.len(), baseline.gated.len());
    }

    #[test]
    fn muun_floor_catches_sub_parity_speedups() {
        let mut t = trajectory();
        // No MUUN metrics yet → no violations.
        assert!(floor_violations(&t).is_empty());
        t.gated.push(("engine/MUUN/100/speedup".into(), 0.92));
        t.gated.push(("engine/MUUN/2000/speedup".into(), 2.2));
        let found = floor_violations(&t);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].metric, "engine/MUUN/100/speedup");
        assert_eq!(found[0].baseline, 1.0);
        assert_eq!(found[0].current, 0.92);
        // DGRN has no floor: a sub-parity DGRN entry adds no violation.
        t.gated.push(("engine/DGRN/100/speedup".into(), 0.5));
        assert_eq!(floor_violations(&t).len(), 1);
    }

    #[test]
    fn muun_rate_floor_catches_a_quadratic_admission() {
        let mut t = trajectory();
        assert!(floor_violations(&t).is_empty());
        // The floor reads the informational rate; the relative gate never
        // sees it.
        t.informational
            .push(("engine/MUUN/100000/engine_slots_per_sec".into(), 10.6));
        assert!(floor_violations(&t).is_empty());
        t.informational.last_mut().expect("just pushed").1 = 0.2;
        let found = floor_violations(&t);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].metric, "engine/MUUN/100000/engine_slots_per_sec");
        assert_eq!(found[0].baseline, 2.0);
        assert_eq!(found[0].current, 0.2);
        // Only the 100k-user tier carries the rate floor.
        t.informational
            .push(("engine/MUUN/2000/engine_slots_per_sec".into(), 0.5));
        t.informational
            .push(("engine/DGRN/100000/engine_slots_per_sec".into(), 0.5));
        assert_eq!(floor_violations(&t).len(), 1);
        assert!(compare(&t, &trajectory(), DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn shard_floor_guards_the_deployment_tier() {
        let mut t = trajectory();
        // The fixture's 1.7 clears the 1.5 floor.
        assert!(floor_violations(&t).is_empty());
        for (k, v) in &mut t.gated {
            if k == "shard/100000/4/agg_speedup" {
                *v = 1.3;
            }
        }
        let found = floor_violations(&t);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].metric, "shard/100000/4/agg_speedup");
        assert_eq!(found[0].baseline, 1.5);
        assert_eq!(found[0].current, 1.3);
        // Other tiers carry no absolute floor — the relative gate owns them.
        t.gated.push(("shard/10000/4/agg_speedup".into(), 0.9));
        assert_eq!(floor_violations(&t).len(), 1);
    }

    #[test]
    fn net_certification_floor_catches_decertified_cells() {
        let mut t = trajectory();
        // The fixture certifies both cells.
        assert!(t.gated.iter().any(|(k, _)| k == "net/0/0/certified"));
        assert!(t.gated.iter().any(|(k, _)| k == "net/0.2/200/certified"));
        assert!(floor_violations(&t).is_empty());
        for (k, v) in &mut t.gated {
            if k == "net/0.2/200/certified" {
                *v = 0.0;
            }
        }
        let found = floor_violations(&t);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].metric, "net/0.2/200/certified");
        assert_eq!(found[0].baseline, 1.0);
        assert_eq!(found[0].current, 0.0);
        // Transport counters are informational, never gated.
        assert!(t
            .informational
            .iter()
            .any(|(k, _)| k == "net/0.2/200/retransmissions"));
        assert!(!t.gated.iter().any(|(k, _)| k.contains("retransmissions")));
    }

    #[test]
    fn missing_metric_is_a_regression() {
        let baseline = trajectory();
        let mut current = baseline.clone();
        current
            .gated
            .retain(|(k, _)| k != "engine/DGRN/100/speedup");
        let found = compare(&current, &baseline, DEFAULT_TOLERANCE);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].metric, "engine/DGRN/100/speedup");
        assert!(found[0].current.is_nan());
    }

    #[test]
    fn improvements_never_fail() {
        let baseline = trajectory();
        let mut current = baseline.clone();
        for (_, v) in &mut current.gated {
            *v *= 10.0;
        }
        assert!(compare(&current, &baseline, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn unknown_schema_version_is_rejected() {
        let text = render_trajectory(&trajectory(), 0.15)
            .replace("\"schema_version\": 1", "\"schema_version\": 999");
        assert!(parse_trajectory(&text).is_err());
    }
}
