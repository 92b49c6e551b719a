//! The offline city-scale problem: seeded `localized_game` cities solved
//! three ways to a certified Nash equilibrium — DGRN and MUUN through
//! `run_distributed`, and the 4-shard `ShardedSim` with the sequential
//! driver.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use vcs_algorithms::dynamics::{run_distributed, run_distributed_observed};
use vcs_algorithms::{puu, DistributedAlgorithm, RunConfig, RunOutcome, UpdateRequest};
use vcs_core::ids::{RouteId, UserId};
use vcs_core::{is_nash, Engine, Game, Profile};
use vcs_obs::{Obs, SpanKind, StatsSubscriber, Subscriber};
use vcs_shard::{localized_game, partition, ShardConfig, ShardedSim};

use crate::report::Report;
use crate::stats::{mean, median};

/// Shape of the city.
#[derive(Debug, Clone, Copy)]
pub struct CityConfig {
    /// Users, and tasks (equal).
    pub users: usize,
    /// Cities a timed run generates.
    pub cities: usize,
    /// Sharded solves of each city in a timed run.
    pub shard_repeats: usize,
    /// Every how many cities one is also solved by DGRN and MUUN: a single
    /// 50k-user solve takes seconds, a 10k-user one a fraction of a second.
    pub full_every: usize,
}

/// Half-width of each user's route window, in tasks: `shard_report`'s
/// corridor.
const WINDOW: usize = 6;
/// Shards of the sharded solve.
const SHARDS: usize = 4;

/// The Alg. 1 line 3 random initial profile, drawn as `run_distributed`
/// and `ShardedSim::new` draw it.
fn initial_profile(game: &Game, seed: u64) -> Profile {
    let mut rng = StdRng::seed_from_u64(seed);
    let choices = game
        .users()
        .iter()
        .map(|u| RouteId::from_index(rng.random_range(0..u.routes.len())))
        .collect();
    Profile::new(game, choices)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// One `run_distributed` solve, timed from cold start to a certified NE.
fn solve(
    game: &Game,
    algo: DistributedAlgorithm,
    seed: u64,
    obs: Option<&Obs>,
) -> (RunOutcome, f64, bool) {
    let config = RunConfig::with_seed(seed);
    let t = Instant::now();
    let outcome = match obs {
        Some(obs) => run_distributed_observed(game, algo, &config, obs),
        None => run_distributed(game, algo, &config),
    };
    let certified = outcome.converged && is_nash(game, &outcome.profile);
    (outcome, secs(t.elapsed()), certified)
}

/// One sharded solve, timed from cold start (partition and per-shard
/// engines included) to a global fixpoint certified on the full game.
fn shard_solve(game: &Game, seed: u64) -> (vcs_shard::ShardedOutcome, f64, bool) {
    let game = game.clone();
    let t = Instant::now();
    let mut sim = ShardedSim::new(game, ShardConfig::new(SHARDS, seed));
    let outcome = sim.run();
    let merged = Profile::new(sim.game(), outcome.choices.clone());
    let certified = outcome.converged && sim.replicas_consistent() && is_nash(sim.game(), &merged);
    (outcome, secs(t.elapsed()), certified)
}

/// The seed of city `c` of a run seeded with `seed`; city 0 is `seed`'s.
fn city_seed(seed: u64, c: usize) -> u64 {
    seed.wrapping_add((c as u64).wrapping_mul(0x9E37_79B9))
}

/// Timed run over cities drawn from `seed`, taken in chunks so that the
/// solves spread over the whole run: the host's speed drifts over tens of
/// seconds, and samples taken at one moment all share that moment's speed.
/// Each city is generated and given a fresh engine (its set-up) and solved
/// sharded `shard_repeats` times, and every `full_every`-th city is also
/// solved by DGRN and MUUN, placed between its sharded solves. Every solve
/// is one attempted operation. Each solve time is the mean over its
/// solves: the machine alternates between fast and slow spells, and a
/// median of a few dozen solves lands in one or the other where the mean
/// weighs both. Set-up is the median over cities.
pub struct Timed {
    cfg: CityConfig,
    seed: u64,
    next: usize,
    setup: Vec<f64>,
    dgrn: Vec<f64>,
    muun: Vec<f64>,
    shard: Vec<f64>,
}

impl Timed {
    pub fn new(cfg: CityConfig, seed: u64) -> Self {
        Timed {
            cfg,
            seed,
            next: 0,
            setup: Vec::new(),
            dgrn: Vec::new(),
            muun: Vec::new(),
            shard: Vec::new(),
        }
    }

    /// Cities per chunk when the run is taken in `chunks` chunks.
    pub fn chunk(&self, chunks: usize) -> usize {
        self.cfg.cities.max(1).div_ceil(chunks.max(1))
    }

    /// Generates and solves the next `n` cities, as far as there are any.
    pub fn run(&mut self, n: usize, report: &mut Report) {
        let end = self.next.saturating_add(n).min(self.cfg.cities.max(1));
        while self.next < end {
            self.city(self.next, report);
            self.next += 1;
        }
    }

    fn city(&mut self, c: usize, report: &mut Report) {
        let seed = city_seed(self.seed, c);
        let t = Instant::now();
        let game = localized_game(self.cfg.users, self.cfg.users, WINDOW, seed);
        let engine = Engine::new(&game, initial_profile(&game, seed));
        self.setup.push(secs(t.elapsed()));
        drop(engine);
        let full = c.is_multiple_of(self.cfg.full_every.max(1));
        let mut big = [DistributedAlgorithm::Dgrn, DistributedAlgorithm::Muun]
            .into_iter()
            .filter(|_| full);
        for _ in 0..self.cfg.shard_repeats.max(1) {
            let (outcome, s, ok) = shard_solve(&game, seed);
            report.op(
                ok,
                &format!(
                    "sharded solve converged={} with consistent replicas and certified NE",
                    outcome.converged
                ),
            );
            self.shard.push(s);
            if let Some(algo) = big.next() {
                self.solve(&game, algo, seed, report);
            }
        }
        for algo in big {
            self.solve(&game, algo, seed, report);
        }
    }

    fn solve(&mut self, game: &Game, algo: DistributedAlgorithm, seed: u64, report: &mut Report) {
        let (outcome, s, ok) = solve(game, algo, seed, None);
        report.op(
            ok,
            &format!(
                "{} solve converged={} and certified NE",
                algo.name(),
                outcome.converged
            ),
        );
        if algo == DistributedAlgorithm::Muun {
            self.muun.push(s);
        } else {
            self.dgrn.push(s);
        }
    }

    /// Solves the cities not yet run and records the solve means and the
    /// set-up median.
    pub fn finish(mut self, report: &mut Report) {
        self.run(usize::MAX, report);
        let setup_s = median(&self.setup).unwrap_or(0.0);
        report.metric("setup.city_s", setup_s, "s");
        report.setup_s += setup_s;
        report.metric("dgrn_solve_s", mean(&self.dgrn).unwrap_or(0.0), "s");
        report.metric("muun_solve_s", mean(&self.muun).unwrap_or(0.0), "s");
        report.metric("shard_solve_s", mean(&self.shard).unwrap_or(0.0), "s");
    }
}

fn span_s(stats: &StatsSubscriber, kind: SpanKind) -> f64 {
    stats.span_histogram(kind).sum_seconds()
}

fn span_n(stats: &StatsSubscriber, kind: SpanKind) -> u64 {
    stats.span_histogram(kind).count()
}

/// Traced run: the per-layer split of the three solves.
pub fn traced(cfg: &CityConfig, seed: u64, report: &mut Report) {
    let game = localized_game(cfg.users, cfg.users, WINDOW, seed);
    let mut build = Vec::new();
    for _ in 0..3 {
        let profile = initial_profile(&game, seed);
        let t = Instant::now();
        let engine = Engine::new(&game, profile);
        build.push(secs(t.elapsed()));
        drop(engine);
    }
    report.metric("core.engine_build_s", median(&build).unwrap_or(0.0), "s");

    // The traced solve times, against the timed run's on the same seed,
    // are the tracing overhead.
    let dgrn = Arc::new(StatsSubscriber::new());
    let (d_out, traced_s, ok) = solve(
        &game,
        DistributedAlgorithm::Dgrn,
        seed,
        Some(&Obs::new(Arc::clone(&dgrn) as Arc<dyn Subscriber>)),
    );
    report.op(ok, "traced DGRN solve certified NE");
    report.metric("trace.dgrn_solve_s", traced_s, "s");

    let muun = Arc::new(StatsSubscriber::new());
    let (m_out, traced_s, ok) = solve(
        &game,
        DistributedAlgorithm::Muun,
        seed,
        Some(&Obs::new(Arc::clone(&muun) as Arc<dyn Subscriber>)),
    );
    report.op(ok, "traced MUUN solve certified NE");
    report.metric("trace.muun_solve_s", traced_s, "s");

    let refresh = |s: &StatsSubscriber| span_s(s, SpanKind::BestResponse);
    report.metric("core.refresh_s", refresh(&dgrn) + refresh(&muun), "s");
    let scans = dgrn.best_responses() + muun.best_responses();
    report.metric("core.refresh_scans", scans as f64, "count");
    let improving = dgrn.improving_responses() + muun.improving_responses();
    report.metric(
        "core.improving_ratio",
        improving as f64 / scans.max(1) as f64,
        "ratio",
    );
    let commit_s = span_s(&muun, SpanKind::BatchApply);
    report.metric("core.commit_s", commit_s, "s");
    let mut certify = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let ok = is_nash(&game, &d_out.profile);
        certify.push(secs(t.elapsed()));
        report.check(ok, "is_nash certifies the DGRN equilibrium");
    }
    report.metric("core.certify_s", median(&certify).unwrap_or(0.0), "s");

    report.metric("algorithms.dgrn.slots", d_out.slots as f64, "count");
    report.metric(
        "algorithms.dgrn.slot_us",
        1e6 * span_s(&dgrn, SpanKind::Slot) / span_n(&dgrn, SpanKind::Slot).max(1) as f64,
        "us",
    );
    report.metric("algorithms.muun.slots", m_out.slots as f64, "count");
    report.metric(
        "algorithms.muun.batch_mean",
        m_out.mean_updates_per_slot(),
        "count",
    );
    report.metric("algorithms.muun.refresh_s", refresh(&muun), "s");
    report.metric(
        "algorithms.muun.admit_s",
        span_s(&muun, SpanKind::Slot) - refresh(&muun) - commit_s,
        "s",
    );

    // One cold-slot PUU admission over every improving user's request.
    let profile = initial_profile(&game, seed);
    let engine = Engine::new(&game, profile.clone());
    let requests: Vec<UpdateRequest> = (0..game.user_count())
        .map(UserId::from_index)
        .filter_map(|u| {
            let r = engine.best_route_set(u);
            r.first()
                .map(|route| UpdateRequest::build(&game, &profile, u, route, r.gain))
        })
        .collect();
    drop(engine);
    let t = Instant::now();
    let admitted = puu(&requests);
    report.metric("algorithms.puu_cold_ms", 1e3 * secs(t.elapsed()), "ms");
    report.metric("algorithms.puu_requests", requests.len() as f64, "count");
    report.metric("algorithms.puu_admitted", admitted.len() as f64, "count");

    let mut part = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let plan = partition(&game, SHARDS);
        part.push(secs(t.elapsed()));
        drop(plan);
    }
    report.metric("shard.partition_s", median(&part).unwrap_or(0.0), "s");
    let (outcome, _, ok) = shard_solve(&game, seed);
    report.op(ok, "traced sharded solve certified NE");
    report.metric(
        "shard.boundary_fraction",
        outcome.boundary_fraction,
        "ratio",
    );
    report.metric("shard.rounds", f64::from(outcome.rounds), "count");
    report.metric("shard.frames_sent", outcome.frames_sent as f64, "count");
    report.metric("shard.frame_bytes", outcome.frame_bytes as f64, "bytes");
}
