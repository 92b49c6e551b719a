//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload light|heavy --seed N --seconds S --trace 0|1 --server PATH
//! ```
//!
//! Each workload solves seeded cities to a certified Nash equilibrium three
//! ways (DGRN, MUUN, 4-shard) and then drives the shipped
//! `platform_serve` binary (at `--server`) open loop at two fixed rates and
//! up to its latency knee. With `--trace 0` the run times the solves and
//! the serving phases; with `--trace 1` it instead records the per-layer
//! split. Every correctness check and validity guard that fails is printed
//! to stderr and makes the exit code nonzero. The last line of stdout is
//! the result object.

mod city;
mod knee;
mod layers;
mod prom;
mod report;
mod serving;
mod stats;

use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use city::CityConfig;
use knee::KneeSearch;
use report::Report;
use serving::{server_dir, Client, Phase, ServeConfig, Server, LIMIT_MS, MAX_DRIFT};
use stats::median;

/// The end-to-end metrics every timed run reports.
const END_TO_END: [&str; 9] = [
    "setup_s",
    "dgrn_solve_s",
    "muun_solve_s",
    "shard_solve_s",
    "serve.lo.p50_ms",
    "serve.lo.p99_ms",
    "serve.hi.p50_ms",
    "serve.hi.p99_ms",
    "serve.knee_rps",
];

/// The per-layer metrics every traced run reports.
const PER_LAYER: [&str; 50] = [
    "core.engine_build_s",
    "core.refresh_s",
    "core.refresh_scans",
    "core.improving_ratio",
    "core.commit_s",
    "core.certify_s",
    "algorithms.dgrn.slots",
    "algorithms.dgrn.slot_us",
    "algorithms.muun.slots",
    "algorithms.muun.batch_mean",
    "algorithms.muun.refresh_s",
    "algorithms.muun.admit_s",
    "algorithms.puu_cold_ms",
    "algorithms.puu_requests",
    "algorithms.puu_admitted",
    "shard.partition_s",
    "shard.boundary_fraction",
    "shard.rounds",
    "shard.frames_sent",
    "shard.frame_bytes",
    "online.join_p50_us",
    "online.join_p99_us",
    "online.leave_p50_us",
    "online.leave_p99_us",
    "online.respond_p50_us",
    "online.respond_p99_us",
    "online.slots_per_op",
    "online.ops_per_s",
    "runtime.frame_rtt_p50_us",
    "runtime.frame_rtt_p99_us",
    "runtime.codec_ns",
    "server.residence_p50_ms",
    "server.residence_p99_ms",
    "server.ingress_queue_s",
    "server.ingress_queue_count",
    "server.converge_wait_s",
    "server.converge_wait_count",
    "server.reply_s",
    "server.reply_count",
    "server.slots_per_s",
    "server.lane_users_start",
    "server.lane_users_end",
    "client.rtt_p50_ms",
    "client.rtt_p99_ms",
    "client.unattributed_p50_ms",
    "client.unattributed_p99_ms",
    "client.gen_late_p99_ms",
    "client.sent",
    "trace.dgrn_solve_s",
    "trace.muun_solve_s",
];

/// One workload: a city and a serving deployment.
struct Workload {
    city: CityConfig,
    serve: ServeConfig,
}

fn workload(name: &str) -> Option<Workload> {
    match name {
        "light" => Some(Workload {
            city: CityConfig {
                users: 10_000,
                cities: 24,
                shard_repeats: 2,
                full_every: 1,
            },
            serve: ServeConfig {
                lanes: 2,
                initial_users: 64,
                lo: 400.0,
                hi: 2000.0,
                knee_start: 16000.0,
                setups: 11,
            },
        }),
        "heavy" => Some(Workload {
            city: CityConfig {
                users: 50_000,
                cities: 15,
                shard_repeats: 2,
                full_every: 5,
            },
            serve: ServeConfig {
                lanes: 1,
                initial_users: 5000,
                lo: 500.0,
                hi: 1500.0,
                knee_start: 1500.0,
                setups: 3,
            },
        }),
        _ => None,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut server) = (None, 1, 20.0, false, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--server" => server = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        server: server.ok_or("--server is required")?,
    })
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s.max(0.0))
}

/// Starts `setups` servers one after another, timing each from spawn until
/// every lane reports its initial population; all but the last are shut
/// down. Returns the live server and client and the median set-up time.
fn start_serving(
    bin: &Path,
    cfg: &ServeConfig,
    seed: u64,
    dir: &Path,
    setups: usize,
    report: &mut Report,
) -> io::Result<(Server, Client, f64)> {
    let initial = (cfg.lanes * cfg.initial_users) as u64;
    let mut times = Vec::new();
    for i in 0..setups.max(1) {
        let t = Instant::now();
        let server = Server::spawn(bin, cfg, seed, &server_dir(dir, i))?;
        let mut client = Client::connect(server.addr)?;
        client.wait_ready(initial, Duration::from_secs(120))?;
        times.push(t.elapsed().as_secs_f64());
        if i + 1 == setups.max(1) {
            // Slowly enough that no lane queues behind it.
            client.prefill(200.0)?;
            return Ok((server, client, median(&times).unwrap_or(0.0)));
        }
        client.shutdown();
        report.check(
            server.stop(Duration::from_secs(10)),
            "server exits on Shutdown",
        );
    }
    unreachable!("the last set-up returns")
}

/// The guards every fixed-rate phase must pass to be scored.
fn guard_phase(name: &str, ph: &Phase, report: &mut Report) {
    report.ops(
        ph.sent,
        ph.failures(),
        &format!(
            "serve.{name} requests (rejected {}, unanswered {})",
            ph.rejected, ph.lost
        ),
    );
    report.check(
        ph.drift() <= MAX_DRIFT,
        &format!(
            "serve.{name} population drift {} -> {} within {MAX_DRIFT}",
            ph.users_start, ph.users_end
        ),
    );
    let late = ph.gen_late.map_or(0.0, |l| l.p50);
    report.check(
        !ph.client_late(),
        &format!("serve.{name} generator on schedule (median lateness {late:.3} ms)"),
    );
    report.check(
        ph.latency.is_some(),
        &format!("serve.{name} has latency samples"),
    );
}

/// Checks at the end of serving: every request answered exactly once and
/// the population accounted for; then shuts the server down.
fn close_serving(
    server: Server,
    mut client: Client,
    cfg: &ServeConfig,
    report: &mut Report,
) -> io::Result<()> {
    report.check(
        client.drain(Duration::from_secs(30)),
        "every request answered before close",
    );
    let (users, _) = client.query()?;
    let (joined, left) = client.churn();
    let expected = (cfg.lanes * cfg.initial_users) as u64 + joined - left;
    report.check(
        users == expected,
        &format!("closing population {users} equals initial + joins - leaves = {expected}"),
    );
    report.check(
        client.unexpected() == 0,
        "no reply for an unknown or answered id",
    );
    client.shutdown();
    report.check(
        server.stop(Duration::from_secs(10)),
        "server exits on Shutdown",
    );
    Ok(())
}

/// Chunks a timed run's cities come in: one before serving starts, one
/// after each fixed-rate phase and one after the knee search. The server is
/// idle and drained between phases, so the solves and the serving phases
/// do not overlap.
const CITY_CHUNKS: usize = 4;

fn serve_timed(
    a: &Args,
    w: &Workload,
    dir: &Path,
    cities: &mut city::Timed,
    report: &mut Report,
) -> io::Result<()> {
    let cfg = &w.serve;
    let chunk = cities.chunk(CITY_CHUNKS);
    let (server, mut client, setup_s) =
        start_serving(&a.server, cfg, a.seed, dir, cfg.setups, report)?;
    report.metric("setup.serve_s", setup_s, "s");
    report.setup_s += setup_s;
    let mut hi_probe = None;
    for (name, rate, share, salt) in [("lo", cfg.lo, 0.5, 1u64), ("hi", cfg.hi, 0.25, 2)] {
        let ph = client.run_phase(rate, secs(share * a.seconds), a.seed ^ (salt << 32))?;
        guard_phase(name, &ph, report);
        let (p99, windows) = ph.p99_windowed.unwrap_or((0.0, 0));
        report.check(
            windows > 0,
            &format!("serve.{name} holds a full p99 window"),
        );
        let all = ph.latency.unwrap_or_default();
        report.metric(&format!("serve.{name}.p50_ms"), all.p50, "ms");
        report.metric(&format!("serve.{name}.p99_ms"), p99, "ms");
        report.metric(
            &format!("serve.{name}.p99_windows"),
            windows as f64,
            "count",
        );
        report.metric(&format!("serve.{name}.p99_all_ms"), all.p99, "ms");
        report.metric(&format!("serve.{name}.samples"), all.count as f64, "count");
        report.metric(&format!("serve.{name}.offered_rps"), ph.offered, "1/s");
        if name == "hi" {
            hi_probe = Some(ph.probe());
        }
        cities.run(chunk, report);
    }
    let search = KneeSearch {
        start: cfg.knee_start,
        factor: 2.0,
        max_bracket: 5,
        // Three bisections leave a bracket 9% wide: with two, whether the
        // last probe lands just above or below the knee moved it by 20%.
        refine: 3,
        limit_ms: LIMIT_MS,
    };
    let mut probe_err = None;
    let mut salt = 3u64;
    let knee = search.run(|rate| {
        // The hi phase already probed the hi rate.
        if let Some(p) = hi_probe.take().filter(|p| p.rate == rate) {
            return p;
        }
        salt += 1;
        // Long enough for nine p99 windows, so one stalled window does
        // not decide the probe.
        let probe_s = (0.1 * a.seconds).max(9.0 * stats::WINDOW as f64 / rate);
        match client.run_phase(rate, secs(probe_s), a.seed ^ (salt << 32)) {
            Ok(ph) => ph.probe(),
            Err(e) => {
                probe_err.get_or_insert(e);
                knee::Probe {
                    rate,
                    offered: 0.0,
                    p99_ms: f64::INFINITY,
                    failures: 1,
                    backlog_growing: true,
                    client_late: false,
                }
            }
        }
    });
    if let Some(e) = probe_err {
        return Err(e);
    }
    for p in &knee.probes {
        eprintln!(
            "knee probe {:>8.1} req/s (offered {:>8.1}): p99 {:>9.3} ms, failures {}, backlog growing {}, client late {}",
            p.rate, p.offered, p.p99_ms, p.failures, p.backlog_growing, p.client_late
        );
    }
    report.check(knee.rps.is_some(), "a knee probe passed");
    report.metric("serve.knee_rps", knee.rps.unwrap_or(0.0), "1/s");
    close_serving(server, client, cfg, report)
}

fn serve_traced(a: &Args, w: &Workload, dir: &Path, report: &mut Report) -> Result<(), String> {
    let cfg = &w.serve;
    let (server, mut client, _) =
        start_serving(&a.server, cfg, a.seed, dir, 1, report).map_err(|e| e.to_string())?;
    // Span telemetry reaches /metrics once per 250 ms ticker window.
    let settle = Duration::from_millis(600);
    std::thread::sleep(settle);
    let before = server.scrape()?;
    let ph = client
        .run_phase(cfg.hi, secs(0.25 * a.seconds), a.seed ^ (2 << 32))
        .map_err(|e| e.to_string())?;
    guard_phase("hi", &ph, report);
    std::thread::sleep(settle);
    let after = server.scrape()?;

    let gauge_ms = |name: &str| after.get(name).map_or(0.0, |v| v * 1e3);
    let residence_p50 = gauge_ms("vcs_serve_latency_p50_seconds");
    let residence_p99 = gauge_ms("vcs_serve_latency_p99_seconds");
    report.metric("server.residence_p50_ms", residence_p50, "ms");
    report.metric("server.residence_p99_ms", residence_p99, "ms");
    for kind in ["ingress_queue", "converge_wait", "reply"] {
        for (family, suffix, unit) in [
            ("vcs_fleet_span_seconds_total", "s", "s"),
            ("vcs_fleet_span_count_total", "count", "count"),
        ] {
            let total = |s: &prom::Scrape| s.sum_where(family, &[("kind", kind)]).unwrap_or(0.0);
            report.metric(
                &format!("server.{kind}_{suffix}"),
                total(&after) - total(&before),
                unit,
            );
        }
    }
    report.metric("server.slots_per_s", ph.slots_per_s, "1/s");
    let lanes = cfg.lanes as f64;
    report.metric(
        "server.lane_users_start",
        ph.users_start as f64 / lanes,
        "count",
    );
    report.metric(
        "server.lane_users_end",
        ph.users_end as f64 / lanes,
        "count",
    );
    let lat = ph.latency.ok_or("no replies in the traced phase")?;
    report.check(
        lat.p99_supported(),
        "traced phase p99 has ten samples beyond it",
    );
    report.metric("client.rtt_p50_ms", lat.p50, "ms");
    report.metric("client.rtt_p99_ms", lat.p99, "ms");
    report.metric("client.unattributed_p50_ms", lat.p50 - residence_p50, "ms");
    report.metric("client.unattributed_p99_ms", lat.p99 - residence_p99, "ms");
    report.metric(
        "client.gen_late_p99_ms",
        ph.gen_late.map_or(0.0, |l| l.p99),
        "ms",
    );
    report.metric("client.sent", ph.sent as f64, "count");
    close_serving(server, client, cfg, report).map_err(|e| e.to_string())
}

fn run(a: &Args, w: &Workload, dir: &Path, report: &mut Report) -> Result<(), String> {
    if a.trace {
        city::traced(&w.city, a.seed, report);
        layers::online(&w.serve, a.seed, secs(0.1 * a.seconds), report);
        layers::frame_rtt(secs((0.05 * a.seconds).max(1.0)), report);
        layers::codec(report);
        serve_traced(a, w, dir, report)?;
    } else {
        let mut cities = city::Timed::new(w.city, a.seed);
        cities.run(cities.chunk(CITY_CHUNKS), report);
        serve_timed(a, w, dir, &mut cities, report).map_err(|e| e.to_string())?;
        cities.finish(report);
        report.metric("setup_s", report.setup_s, "s");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    if !args.server.is_file() {
        eprintln!("perfbench: no server binary at {}", args.server.display());
        return ExitCode::from(2);
    }
    let dir = PathBuf::from(".bench_run").join(std::process::id().to_string());
    let mut report = Report::default();
    let outcome = run(&args, &w, &dir, &mut report);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".bench_run");
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    print!("{}", report.table());
    println!("{:<34} {:>16.6} ratio", "failed_frac", report.failed_frac());
    for v in &report.violations {
        eprintln!("perfbench: {v}");
    }
    let keep: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    match report.json(keep) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names in `BENCHMARK.json`, in file order.
    fn declared(section: &str) -> Vec<String> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("quoted name")].to_string())
            .collect()
    }

    #[test]
    fn metric_lists_match_the_benchmark_file() {
        assert_eq!(declared("end_to_end"), END_TO_END);
        assert_eq!(declared("per_layer"), PER_LAYER);
        assert_eq!(declared("workloads"), ["light", "heavy"]);
    }

    #[test]
    fn every_declared_workload_is_defined() {
        for name in declared("workloads") {
            assert!(workload(&name).is_some(), "{name}");
        }
        assert!(workload("nope").is_none());
    }
}
