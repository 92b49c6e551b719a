//! In-process per-layer measurements for the serving path: the `online`
//! request executor closed loop, the `runtime` frame transport over
//! loopback, and the serving codec.

use std::net::TcpListener;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use vcs_core::ids::UserId;
use vcs_online::{ServeCore, ServeCoreConfig};
use vcs_runtime::net::{connect_with_backoff, read_frame, write_frame};
use vcs_runtime::{ServeReply, ServeReplyBody, ServeRequest, ServeRequestBody};

use crate::report::Report;
use crate::serving::{pick_op, Op, ServeConfig, POOL_CAP, TASKS};
use crate::stats::{median, Summary};

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Replays the workload's mix closed loop on one in-process `ServeCore` at
/// the workload's lane size, with the lane's share of the agent pool.
pub fn online(cfg: &ServeConfig, seed: u64, duration: Duration, report: &mut Report) {
    let mut core = ServeCore::new(ServeCoreConfig {
        n_tasks: TASKS,
        initial_users: cfg.initial_users,
        seed,
        ..ServeCoreConfig::default()
    });
    let cap = POOL_CAP.div_ceil(cfg.lanes);
    let mut pool: Vec<UserId> = (0..cap).map(|_| core.join().0).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0011_11E5);
    let (mut join, mut leave, mut respond) = (Vec::new(), Vec::new(), Vec::new());
    let slots0 = core.slots_total();
    let start = Instant::now();
    let mut ops = 0u64;
    while start.elapsed() < duration {
        let t = Instant::now();
        match pick_op(&mut rng, pool.len(), cap) {
            Op::Join => {
                pool.push(core.join().0);
                join.push(us(t));
            }
            Op::Leave(i) => {
                let ok = core.leave(pool.swap_remove(i)).is_ok();
                leave.push(us(t));
                report.check(ok, "in-process leave of a joined user");
            }
            Op::Respond(i) => {
                let ok = core.best_respond(pool[i]).is_ok();
                respond.push(us(t));
                report.check(ok, "in-process best_respond of a joined user");
            }
        }
        ops += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    for (name, samples) in [("join", &join), ("leave", &leave), ("respond", &respond)] {
        let s = Summary::of(samples);
        report.metric(
            &format!("online.{name}_p50_us"),
            s.map_or(0.0, |s| s.p50),
            "us",
        );
        report.metric(
            &format!("online.{name}_p99_us"),
            s.map_or(0.0, |s| s.p99),
            "us",
        );
    }
    report.metric(
        "online.slots_per_op",
        (core.slots_total() - slots0) as f64 / ops.max(1) as f64,
        "count",
    );
    report.metric("online.ops_per_s", ops as f64 / wall, "1/s");
}

/// A loopback ping-pong of one request-sized frame through
/// `write_frame`/`read_frame` against an echo thread, for up to
/// `duration` or 2000 round trips.
pub fn frame_rtt(duration: Duration, report: &mut Report) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    let echo = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        while let Ok(frame) = read_frame(&mut conn) {
            if write_frame(&mut conn, &frame).is_err() {
                break;
            }
        }
    });
    let mut stream =
        connect_with_backoff(addr, 10, Duration::from_millis(10)).expect("connect loopback");
    let frame = ServeRequest {
        id: 1,
        body: ServeRequestBody::BestRespond { user: 7 },
    }
    .encode();
    let mut rtt = Vec::new();
    let start = Instant::now();
    while start.elapsed() < duration && rtt.len() < 2000 {
        let t = Instant::now();
        write_frame(&mut stream, frame.as_ref()).expect("ping");
        let back = read_frame(&mut stream).expect("pong");
        rtt.push(us(t));
        report.check(back == frame.as_ref(), "echoed frame is identical");
    }
    drop(stream);
    let _ = echo.join();
    let s = Summary::of(&rtt);
    report.metric("runtime.frame_rtt_p50_us", s.map_or(0.0, |s| s.p50), "us");
    report.metric("runtime.frame_rtt_p99_us", s.map_or(0.0, |s| s.p99), "us");
}

/// Encode plus decode of one request and one reply, nanoseconds: the
/// median over batches.
pub fn codec(report: &mut Report) {
    let req = ServeRequest {
        id: 42,
        body: ServeRequestBody::Leave {
            user: (1 << 32) | 17,
        },
    };
    let rep = ServeReply {
        id: 42,
        body: ServeReplyBody::Joined {
            user: (1 << 32) | 17,
            slots: 3,
        },
    };
    const N: u32 = 50_000;
    let mut per_batch = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..N {
            let r = ServeRequest::decode(std::hint::black_box(&req).encode());
            let p = ServeReply::decode(std::hint::black_box(&rep).encode());
            let _ = std::hint::black_box((r, p));
        }
        per_batch.push(t.elapsed().as_secs_f64() * 1e9 / f64::from(N));
    }
    let ok = matches!(ServeRequest::decode(req.encode()), Ok(r) if r == req)
        && matches!(ServeReply::decode(rep.encode()), Ok(p) if p == rep);
    report.check(ok, "serving codec round-trips");
    report.metric("runtime.codec_ns", median(&per_batch).unwrap_or(0.0), "ns");
}
