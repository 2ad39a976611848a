//! The closed-loop load generator: one thread per keep-alive connection,
//! each sending its next request only after the previous answer was read
//! and checked byte for byte.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::gen::{Chain, Expect, Request};
use crate::http::{Conn, Response};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A transform request of the workload's read traffic.
    Transform,
    Learn,
    Register,
    /// The first transform after a registration.
    Cold,
}

pub struct Sample {
    pub class: Class,
    pub lat_ms: f64,
    pub ttfb_ms: f64,
    /// Index into the workload's request pool (transforms only).
    pub req: usize,
}

#[derive(Default)]
pub struct Tally {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    /// Documents answered correctly, correct rejections included.
    pub docs_ok: u64,
    pub reconnects: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn merge(&mut self, other: Tally) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.docs_ok += other.docs_ok;
        self.reconnects += other.reconnects;
        self.errors.extend(other.errors);
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    pub fn of(&self, class: Class) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(move |s| s.class == class)
    }
}

/// Fresh never-seen symbol names, generated before the clock starts and
/// handed out in order across all connections.
pub struct Names {
    names: Vec<[u8; 8]>,
    next: AtomicUsize,
}

impl Names {
    pub fn new(seed: u64, count: usize) -> Names {
        let base = (seed as u32).wrapping_mul(0x9e37_79b1);
        let names = (0..count as u32)
            .map(|i| {
                let mut b = [0u8; 8];
                b.copy_from_slice(format!("{:08x}", base.wrapping_add(i)).as_bytes());
                b
            })
            .collect();
        Names {
            names,
            next: AtomicUsize::new(0),
        }
    }

    fn take(&self) -> &[u8; 8] {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        &self.names[i % self.names.len()]
    }
}

/// Checks a transform response against the oracle's expectations;
/// returns a description of the first mismatch.
pub fn check(req: &Request, r: &Response, streamed: bool) -> Result<(), String> {
    let want = req.status(streamed);
    if r.status != want {
        return Err(format!(
            "{}: status {} (expected {want}): {}",
            req.target,
            r.status,
            String::from_utf8_lossy(&r.body[..r.body.len().min(200)])
        ));
    }
    let body =
        std::str::from_utf8(&r.body).map_err(|_| format!("{}: body is not UTF-8", req.target))?;
    let Some(body) = body.strip_suffix('\n') else {
        return Err(format!("{}: body does not end in a newline", req.target));
    };
    let mut lines = body.split('\n');
    for (i, expect) in req.expect.iter().enumerate() {
        let line = lines
            .next()
            .ok_or_else(|| format!("{}: answer for document {i} missing", req.target))?;
        let ok = match expect {
            Expect::Out(out) => line == out,
            Expect::Reject { reference } => {
                line.starts_with(req.error_prefix)
                    || (streamed
                        && !line.is_empty()
                        && reference.starts_with(line)
                        && lines
                            .next()
                            .is_some_and(|l| l.starts_with(req.error_prefix)))
            }
        };
        if !ok {
            return Err(format!(
                "{}: document {i} answered {:?}",
                req.target,
                &line[..line.len().min(160)]
            ));
        }
    }
    if lines.next().is_some() {
        return Err(format!("{}: more answer lines than documents", req.target));
    }
    Ok(())
}

/// Sends transform requests from `pool` (starting at `start`, cycling)
/// until `deadline`, or `max` requests.
pub fn transforms(
    addr: SocketAddr,
    pool: &[Request],
    start: usize,
    streamed: bool,
    names: &Names,
    deadline: Instant,
    max: usize,
) -> Tally {
    let mut tally = Tally::default();
    let mut conn = Conn::new(addr);
    let mut buf = Vec::new();
    let mut i = start;
    while Instant::now() < deadline && i - start < max {
        let idx = i % pool.len();
        i += 1;
        let req = &pool[idx];
        buf.clear();
        buf.extend_from_slice(&req.bytes);
        for &slot in &req.slots {
            buf[slot + 2..slot + 10].copy_from_slice(names.take());
        }
        tally.attempted += 1;
        match conn.send(&buf) {
            Ok(r) => match check(req, &r, streamed) {
                Ok(()) => {
                    tally.docs_ok += req.docs.len() as u64;
                    tally.samples.push(Sample {
                        class: Class::Transform,
                        lat_ms: r.total.as_secs_f64() * 1e3,
                        ttfb_ms: r.ttfb.as_secs_f64() * 1e3,
                        req: idx,
                    });
                }
                Err(e) => tally.fail(e),
            },
            Err(e) => tally.fail(format!("{}: {e}", req.target)),
        }
    }
    tally.reconnects = conn.reconnects;
    tally
}

/// A write cycle starts at most this often. Unpaced, the writer's share
/// of the CPU (and so the hot reader's latency) would follow how many of
/// its own small responses hit the server's delayed-ACK stall, which
/// swings from run to run.
const CHURN_PERIOD: Duration = Duration::from_millis(50);

/// The write path, until `deadline`: for each chain in turn, learn
/// `l_n`, register the pipeline `p_n = l_n, u_n`, then send one cold
/// transform to each; one cycle per [`CHURN_PERIOD`] at most.
pub fn churn(addr: SocketAddr, chains: &[Chain], deadline: Instant) -> Tally {
    let mut tally = Tally::default();
    let mut conn = Conn::new(addr);
    let mut next = Instant::now();
    for chain in chains.iter().cycle() {
        let now = Instant::now();
        if next.min(deadline) > now {
            std::thread::sleep(next.min(deadline) - now);
        }
        if Instant::now() >= deadline {
            break;
        }
        next = Instant::now() + CHURN_PERIOD;
        for (class, bytes) in [
            (Class::Learn, &chain.learn),
            (Class::Register, &chain.register),
        ] {
            tally.attempted += 1;
            match conn.send(bytes) {
                Ok(r) if r.status == 201 => tally.samples.push(Sample {
                    class,
                    lat_ms: r.total.as_secs_f64() * 1e3,
                    ttfb_ms: r.ttfb.as_secs_f64() * 1e3,
                    req: 0,
                }),
                Ok(r) => tally.fail(format!(
                    "chain {}: status {}: {}",
                    chain.n,
                    r.status,
                    String::from_utf8_lossy(&r.body)
                )),
                Err(e) => tally.fail(format!("chain {}: {e}", chain.n)),
            }
        }
        for req in &chain.cold {
            tally.attempted += 1;
            match conn
                .send(&req.bytes)
                .map_err(|e| e.to_string())
                .and_then(|r| {
                    check(req, &r, false)?;
                    Ok(r)
                }) {
                Ok(r) => {
                    tally.docs_ok += req.docs.len() as u64;
                    tally.samples.push(Sample {
                        class: Class::Cold,
                        lat_ms: r.total.as_secs_f64() * 1e3,
                        ttfb_ms: r.ttfb.as_secs_f64() * 1e3,
                        req: 0,
                    });
                }
                Err(e) => tally.fail(e),
            }
        }
    }
    tally.reconnects = conn.reconnects;
    tally
}
