//! The serving workload: the shipped `platform_serve` in its own process,
//! driven open loop over one connection by seeded Poisson arrivals.
//!
//! The generator is one sender (this thread) and one reply reader. Each
//! request is timed from its scheduled send instant to its reply, so a
//! stall is charged to every request due during it (coordinated-omission
//! correction). Replies are matched by id: a reply for an unknown or
//! already answered id, a rejection, or a request unanswered at drain
//! fails the run.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use vcs_runtime::net::{connect_with_backoff, http_get, read_frame, write_frame};
use vcs_runtime::{ServeReply, ServeReplyBody, ServeRequest, ServeRequestBody, ANY_SHARD};

use crate::knee::Probe;
use crate::prom::Scrape;
use crate::stats::{median, windowed_p99, Summary, WINDOW};

/// Shape of one serving deployment and its load.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Shard lanes of the server.
    pub lanes: usize,
    /// Users each lane starts with.
    pub initial_users: usize,
    /// The fixed lo and hi rates, requests/second.
    pub lo: f64,
    /// See `lo`.
    pub hi: f64,
    /// The first rate the knee search probes.
    pub knee_start: f64,
    /// Server start-ups timed for the `setup_s` median.
    pub setups: usize,
}

/// Tasks per lane: the serving core's default deployment.
pub const TASKS: usize = 40;
/// Cap on the generator's pool of joined agents: it keeps lanes at a
/// stationary population.
pub const POOL_CAP: usize = 200;
/// Join / Leave / BestRespond weights: `loadgen`'s default mix.
pub const MIX: (u32, u32, u32) = (2, 1, 5);
/// The knee's p99 latency limit, milliseconds.
pub const LIMIT_MS: f64 = 100.0;

/// Largest tolerated lane-population drift over a phase.
pub const MAX_DRIFT: f64 = 0.10;
/// Largest tolerated median generator lateness, milliseconds. Single late
/// sends are timer and scheduler jitter; when most sends run late, the
/// client, not the server, set the schedule.
pub const MAX_GEN_LATE_P50_MS: f64 = 1.0;

/// One request the mix asks for, over a pool of `n` agents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Admit a new agent.
    Join,
    /// Retire the agent at this pool index.
    Leave(usize),
    /// Best-respond for the agent at this pool index.
    Respond(usize),
}

/// Draws the next request the way `loadgen` does: weighted by [`MIX`], a
/// Join when the pool is empty, never a Join at `cap` (a Leave instead).
pub fn pick_op(rng: &mut StdRng, n: usize, cap: usize) -> Op {
    let (wj, wl, wr) = MIX;
    let pick = rng.random_range(0..(wj + wl + wr).max(1));
    if n == 0 || (pick < wj && n < cap) {
        Op::Join
    } else if pick < wj + wl || n >= cap {
        Op::Leave(rng.random_range(0..n))
    } else {
        Op::Respond(rng.random_range(0..n))
    }
}

/// A running `platform_serve` process. Dropping it kills the process and
/// waits for it.
pub struct Server {
    child: Option<Child>,
    /// Request address.
    pub addr: SocketAddr,
    /// `/metrics` address.
    pub metrics_addr: SocketAddr,
}

impl Server {
    /// Spawns the server and waits for it to publish its addresses.
    pub fn spawn(bin: &Path, cfg: &ServeConfig, seed: u64, dir: &Path) -> io::Result<Server> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir)?;
        let log = std::fs::File::create(dir.join("server.log"))?;
        let child = Command::new(bin)
            .args(["--shards", &cfg.lanes.to_string()])
            .args(["--initial-users", &cfg.initial_users.to_string()])
            .args(["--tasks", &TASKS.to_string()])
            .args(["--seed", &seed.to_string()])
            .arg("--out-dir")
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()?;
        let mut server = Server {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            metrics_addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let read = |f: &str| {
                std::fs::read_to_string(dir.join(f))
                    .ok()?
                    .trim()
                    .parse()
                    .ok()
            };
            if let (Some(a), Some(m)) = (read("serve.addr"), read("metrics.addr")) {
                server.addr = a;
                server.metrics_addr = m;
                return Ok(server);
            }
            if let Some(status) = server
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten())
            {
                return Err(io::Error::other(format!(
                    "platform_serve exited early: {status}"
                )));
            }
            if Instant::now() > deadline {
                return Err(io::Error::other(
                    "platform_serve did not publish its addresses",
                ));
            }
            // The server's accept loop polls every 20 ms, starting right
            // after it publishes its addresses. A client polling the files
            // faster connects before that first poll in some starts and
            // after it in others, which makes a small server's set-up time
            // bimodal; at 5 ms it almost always connects after it.
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Scrapes `/metrics`.
    pub fn scrape(&self) -> Result<Scrape, String> {
        let mut last = String::new();
        for _ in 0..3 {
            match http_get(self.metrics_addr, "/metrics", Duration::from_secs(5)) {
                Ok((status, body)) if status.contains("200") => return Scrape::parse(&body),
                Ok((status, _)) => last = status,
                Err(e) => last = e.to_string(),
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        Err(format!("scrape failed: {last}"))
    }

    /// Waits up to `timeout` for the process to exit, then kills it.
    /// Returns whether it exited on its own.
    pub fn stop(mut self, timeout: Duration) -> bool {
        let Some(mut child) = self.child.take() else {
            return true;
        };
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if let Ok(Some(_)) = child.try_wait() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = child.kill();
        let _ = child.wait();
        false
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// When a request was due and which phase it counts in, kept until its
/// reply.
#[derive(Debug, Clone, Copy)]
struct Pending {
    scheduled: Instant,
    phase: usize,
}

/// Per-phase reply accounting.
#[derive(Debug, Default)]
struct PhaseAcc {
    sent: u64,
    replies: u64,
    rejected: u64,
    /// `(scheduled send, latency ms)` per reply, in reply order.
    latency_ms: Vec<(Instant, f64)>,
}

/// State shared by the sender and the reply reader.
#[derive(Debug, Default)]
struct Shared {
    pending: HashMap<u64, Pending>,
    pool: Vec<u64>,
    phases: Vec<PhaseAcc>,
    stats: HashMap<u64, (u64, u64)>,
    /// Replies whose id was unknown or already answered.
    unexpected: u64,
    joined: u64,
    left: u64,
    /// Whether the reply stream broke (undecodable frame or I/O error).
    broken: bool,
}

/// A phase's measured outcome.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Nominal rate.
    pub rate: f64,
    /// Requests sent.
    pub sent: u64,
    /// Rejected replies.
    pub rejected: u64,
    /// Requests unanswered at drain.
    pub lost: u64,
    /// Requests sent over the send window, per second.
    pub offered: f64,
    /// Latency summary, milliseconds (`None` without replies).
    pub latency: Option<Summary>,
    /// The median of per-window p99s over windows of [`WINDOW`] requests
    /// in schedule order, and the window count (`None` below one window).
    pub p99_windowed: Option<(f64, usize)>,
    /// How late sends ran against the schedule, milliseconds.
    pub gen_late: Option<Summary>,
    /// Whether the backlog of outstanding requests grew over the phase.
    pub backlog_growing: bool,
    /// Server population at the phase's opening and closing query.
    pub users_start: u64,
    /// See `users_start`.
    pub users_end: u64,
    /// Server decision slots over the phase, per second.
    pub slots_per_s: f64,
}

impl Phase {
    /// Requests that failed: rejected or unanswered.
    pub fn failures(&self) -> u64 {
        self.rejected + self.lost
    }

    /// Relative drift of the server population over the phase.
    pub fn drift(&self) -> f64 {
        self.users_end.abs_diff(self.users_start) as f64 / self.users_start.max(1) as f64
    }

    /// Whether the generator fell behind its own schedule.
    pub fn client_late(&self) -> bool {
        self.gen_late.is_some_and(|l| l.p50 > MAX_GEN_LATE_P50_MS)
    }

    /// The phase as a knee probe.
    pub fn probe(&self) -> Probe {
        Probe {
            rate: self.rate,
            offered: self.offered,
            p99_ms: self.p99_windowed.map_or(f64::INFINITY, |(p99, _)| p99),
            failures: self.failures(),
            backlog_growing: self.backlog_growing,
            client_late: self.client_late(),
        }
    }
}

/// How far the backlog may rise at `rate` before it counts as growing: the
/// latency limit's worth of arrivals, plus slack.
fn backlog_allowance(rate: f64) -> f64 {
    10.0 + rate * LIMIT_MS / 1e3
}

/// Whether the outstanding-request counts sampled at each send grew: the
/// median of the last third exceeds the median of the first third by more
/// than `allowance`. Medians keep one stall from counting as growth.
pub fn backlog_grows(outstanding: &[u64], allowance: f64) -> bool {
    let third = outstanding.len() / 3;
    if third == 0 {
        return false;
    }
    let as_f64 = |xs: &[u64]| xs.iter().map(|&x| x as f64).collect::<Vec<_>>();
    let first = median(&as_f64(&outstanding[..third])).unwrap_or(0.0);
    let last = median(&as_f64(&outstanding[outstanding.len() - third..])).unwrap_or(0.0);
    last > first + allowance
}

/// The open-loop generator: one connection, a sender and a reply reader.
pub struct Client {
    stream: TcpStream,
    shared: Arc<(Mutex<Shared>, Condvar)>,
    stop: Arc<AtomicBool>,
    reader: Option<JoinHandle<()>>,
    next_id: u64,
}

/// Phase index of requests whose latency is not recorded (queries).
const UNRECORDED: usize = usize::MAX;

impl Client {
    /// Connects to `addr` and starts the reply reader.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = connect_with_backoff(addr, 20, Duration::from_millis(10))?;
        let mut read_half = stream.try_clone()?;
        // Long enough that a frame split across segments is never cut by a
        // timeout; shutdown and `Drop` end the reader by closing the stream.
        read_half.set_read_timeout(Some(Duration::from_secs(1)))?;
        let shared = Arc::new((Mutex::new(Shared::default()), Condvar::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || read_replies(&mut read_half, &shared, &stop))
        };
        Ok(Client {
            stream,
            shared,
            stop,
            reader: Some(reader),
            next_id: 0,
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Shared> {
        self.shared.0.lock().expect("generator state")
    }

    fn send(
        &mut self,
        body: ServeRequestBody,
        scheduled: Instant,
        phase: usize,
    ) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        {
            let mut s = self.lock();
            s.pending.insert(id, Pending { scheduled, phase });
            if phase != UNRECORDED {
                s.phases[phase].sent += 1;
            }
        }
        write_frame(
            &mut self.stream,
            ServeRequest { id, body }.encode().as_ref(),
        )?;
        Ok(id)
    }

    /// Waits until `done(state)` holds or `timeout` passes; returns whether
    /// it holds.
    fn wait_until(&self, timeout: Duration, done: impl Fn(&Shared) -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        let (lock, cv) = &*self.shared;
        let mut s = lock.lock().expect("generator state");
        loop {
            if done(&s) {
                return true;
            }
            let now = Instant::now();
            if now >= deadline || s.broken {
                return false;
            }
            s = cv
                .wait_timeout(s, deadline - now)
                .expect("generator state")
                .0;
        }
    }

    /// Sends a `Query` and returns `(users, slots)` from its reply.
    pub fn query(&mut self) -> io::Result<(u64, u64)> {
        let id = self.send(ServeRequestBody::Query, Instant::now(), UNRECORDED)?;
        if !self.wait_until(Duration::from_secs(10), |s| s.stats.contains_key(&id)) {
            return Err(io::Error::other("query unanswered"));
        }
        Ok(self.lock().stats.remove(&id).expect("answered"))
    }

    /// Polls `Query` until the server reports `users`, backing off so a
    /// slow start does not flood the server's latency histogram.
    pub fn wait_ready(&mut self, users: u64, timeout: Duration) -> io::Result<()> {
        let start = Instant::now();
        loop {
            if self.query()?.0 == users {
                return Ok(());
            }
            if start.elapsed() > timeout {
                return Err(io::Error::other(
                    "server never reported its initial population",
                ));
            }
            std::thread::sleep((start.elapsed() / 50).max(Duration::from_millis(1)));
        }
    }

    /// Waits until every outstanding request is answered.
    pub fn drain(&self, timeout: Duration) -> bool {
        self.wait_until(timeout, |s| s.pending.is_empty())
    }

    /// Joins agents at `rate` until the pool holds [`POOL_CAP`], then
    /// drains.
    pub fn prefill(&mut self, rate: f64) -> io::Result<()> {
        let phase = self.new_phase();
        let missing = POOL_CAP.saturating_sub(self.lock().pool.len());
        let start = Instant::now();
        for i in 0..missing {
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            sleep_until(due);
            self.send(ServeRequestBody::Join { shard: ANY_SHARD }, due, phase)?;
        }
        if !self.drain(Duration::from_secs(30)) {
            return Err(io::Error::other("prefill joins unanswered"));
        }
        Ok(())
    }

    fn new_phase(&self) -> usize {
        let mut s = self.lock();
        s.phases.push(PhaseAcc::default());
        s.phases.len() - 1
    }

    /// Offers Poisson arrivals at `rate` for `duration`, then drains and
    /// summarizes.
    pub fn run_phase(&mut self, rate: f64, duration: Duration, seed: u64) -> io::Result<Phase> {
        let (users_start, slots_start) = self.query()?;
        let phase = self.new_phase();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut late_ms = Vec::new();
        let start = Instant::now();
        let mut scheduled = start;
        let allowance = backlog_allowance(rate);
        let mut outstanding_at_send = Vec::new();
        loop {
            let u: f64 = rng.random_range(0.0..1.0);
            scheduled += Duration::from_secs_f64(-(1.0 - u).ln() / rate);
            if scheduled - start > duration {
                break;
            }
            sleep_until(scheduled);
            late_ms.push(
                Instant::now()
                    .saturating_duration_since(scheduled)
                    .as_secs_f64()
                    * 1e3,
            );
            let body = {
                let mut s = self.lock();
                match pick_op(&mut rng, s.pool.len(), POOL_CAP) {
                    Op::Join => ServeRequestBody::Join { shard: ANY_SHARD },
                    // Retire at send time so no later request names it.
                    Op::Leave(i) => ServeRequestBody::Leave {
                        user: s.pool.swap_remove(i),
                    },
                    Op::Respond(i) => ServeRequestBody::BestRespond { user: s.pool[i] },
                }
            };
            self.send(body, scheduled, phase)?;
            let outstanding = {
                let s = self.lock();
                s.phases[phase].sent - s.phases[phase].replies
            };
            outstanding_at_send.push(outstanding);
            // Four allowances behind, the server is overloaded: stop
            // offering load rather than bury it.
            if outstanding as f64 > 4.0 * allowance {
                break;
            }
        }
        let send_window = start.elapsed().as_secs_f64();
        let aborted = scheduled - start <= duration;
        let backlog_growing = aborted || backlog_grows(&outstanding_at_send, allowance);
        self.drain(Duration::from_secs(30));
        let (users_end, slots_end) = self.query()?;
        let wall = start.elapsed().as_secs_f64();
        let mut s = self.lock();
        let acc = &mut s.phases[phase];
        let mut timed = std::mem::take(&mut acc.latency_ms);
        timed.sort_by_key(|&(scheduled, _)| scheduled);
        let in_schedule_order: Vec<f64> = timed.into_iter().map(|(_, ms)| ms).collect();
        let latency = Summary::of(&in_schedule_order);
        let p99_windowed = windowed_p99(&in_schedule_order, WINDOW);
        Ok(Phase {
            rate,
            sent: acc.sent,
            rejected: acc.rejected,
            lost: acc.sent - acc.replies,
            offered: acc.sent as f64 / send_window,
            latency,
            p99_windowed,
            gen_late: Summary::of(&late_ms),
            backlog_growing,
            users_start,
            users_end,
            slots_per_s: slots_end.saturating_sub(slots_start) as f64 / wall,
        })
    }

    /// Replies with an unknown or already answered id so far.
    pub fn unexpected(&self) -> u64 {
        self.lock().unexpected
    }

    /// Successful joins and leaves so far.
    pub fn churn(&self) -> (u64, u64) {
        let s = self.lock();
        (s.joined, s.left)
    }

    /// Asks the server to shut down and stops the reader.
    pub fn shutdown(mut self) {
        let id = self.next_id;
        let _ = write_frame(
            &mut self.stream,
            ServeRequest {
                id,
                body: ServeRequestBody::Shutdown,
            }
            .encode()
            .as_ref(),
        );
        self.finish();
    }

    fn finish(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        self.finish();
    }
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// The reply reader: matches each reply to its request by id.
fn read_replies(stream: &mut TcpStream, shared: &(Mutex<Shared>, Condvar), stop: &AtomicBool) {
    let (lock, cv) = shared;
    loop {
        match read_frame(stream) {
            Ok(payload) => {
                let now = Instant::now();
                let mut s = lock.lock().expect("generator state");
                let Ok(reply) = ServeReply::decode(Bytes::from(payload)) else {
                    s.broken = true;
                    cv.notify_all();
                    return;
                };
                let ServeReply { id, body } = reply;
                if matches!(body, ServeReplyBody::ShuttingDown) {
                    cv.notify_all();
                    continue;
                }
                let Some(p) = s.pending.remove(&id) else {
                    s.unexpected += 1;
                    continue;
                };
                if p.phase != UNRECORDED {
                    let acc = &mut s.phases[p.phase];
                    acc.replies += 1;
                    let ms = now.saturating_duration_since(p.scheduled).as_secs_f64() * 1e3;
                    acc.latency_ms.push((p.scheduled, ms));
                }
                match body {
                    ServeReplyBody::Joined { user, .. } => {
                        s.joined += 1;
                        s.pool.push(user);
                    }
                    ServeReplyBody::Left { .. } => s.left += 1,
                    ServeReplyBody::Stats { users, slots, .. } => {
                        s.stats.insert(id, (users, slots));
                    }
                    ServeReplyBody::Rejected { .. } if p.phase != UNRECORDED => {
                        s.phases[p.phase].rejected += 1;
                    }
                    _ => {}
                }
                cv.notify_all();
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => {
                let mut s = lock.lock().expect("generator state");
                if !stop.load(Ordering::SeqCst) {
                    s.broken = true;
                }
                cv.notify_all();
                return;
            }
        }
    }
}

/// Working directory of the `i`-th server a run starts.
pub fn server_dir(root: &Path, i: usize) -> PathBuf {
    root.join(format!("server-{i}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_is_not_a_growing_backlog_but_a_trend_is() {
        // Steady at ~50 outstanding with a 400-deep stall in the last third.
        let mut steady: Vec<u64> = (0..3000).map(|i| 45 + i % 10).collect();
        steady[2500..2600].iter_mut().for_each(|x| *x = 400);
        assert!(!backlog_grows(&steady, 160.0));
        // Overload: the backlog rises by one every few sends.
        let rising: Vec<u64> = (0..3000).map(|i| 50 + i / 4).collect();
        assert!(backlog_grows(&rising, 160.0));
        assert!(!backlog_grows(&[1, 1000], 160.0));
    }

    #[test]
    fn the_mix_never_joins_at_the_cap_and_joins_into_an_empty_pool() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert_eq!(pick_op(&mut rng, 0, POOL_CAP), Op::Join);
            assert!(!matches!(pick_op(&mut rng, POOL_CAP, POOL_CAP), Op::Join));
        }
        let ops: Vec<Op> = (0..8000)
            .map(|_| pick_op(&mut rng, 100, POOL_CAP))
            .collect();
        let joins = ops.iter().filter(|o| **o == Op::Join).count();
        let leaves = ops.iter().filter(|o| matches!(o, Op::Leave(_))).count();
        // 2:1:5 below the cap.
        assert!((1800..2200).contains(&joins), "joins {joins}");
        assert!((800..1200).contains(&leaves), "leaves {leaves}");
    }
}
