//! The readiness loop that owns every socket.
//!
//! One thread (the caller of `Server::run`) runs this loop: it accepts
//! connections, reads and incrementally parses requests, hands parsed
//! requests to the worker queue, and drains each connection's bounded
//! output buffer with nonblocking writes. Workers never touch a socket;
//! they fill the buffer and report a [`Disposition`] through the
//! done-list plus the wakeup pipe.
//!
//! Per-connection state machine:
//!
//! ```text
//!           read/parse            queue.push             Done{Finish}
//! Reading ─────────────▶ Reading ────────────▶ Processing ──────────▶ Draining
//!    ▲                   (partial)                  │                     │
//!    │                                  Done{Yield} │      buffer low     │ buffer
//!    │                                              ▼   ┌──────────────┐  │ empty,
//!    │                                           Parked ┴▶ Processing ─┘  │ keep
//!    └─────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! `Parked` is the slow-client state: a streamed response yielded at a
//! document boundary, the connection holds buffered output and **no
//! thread**; once the client drains the buffer below a quarter, the job
//! is re-queued. Idle keep-alive connections sit in `Reading` with an
//! empty buffer — also threadless, which is what lets hundreds of idle
//! connections coexist with a handful of workers.
//!
//! Timeouts are swept on a coarse tick: the keep-alive timeout reaps
//! idle connections, the I/O timeout reaps stalled reads and drains, and
//! the stream write deadline reaps parked connections whose client
//! stopped reading.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use xtt_netio::{read_ready, Event, Interest, Poller, ReadOutcome};

use crate::http::{try_parse_request, write_response_conn, HttpError, Request};
use crate::outbuf::{Drained, Outbuf};
use crate::pool::PushError;
use crate::server::{Disposition, Done, Job, Shared, StreamJob};
use crate::signal;

const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKER: u64 = u64::MAX - 1;
/// Read granularity; also the slack allowed past `max_body` before the
/// parser's too-large verdict must have fired.
const READ_CHUNK: usize = 64 * 1024;
/// Timeout sweep granularity (and the latency floor for signal checks).
const TICK: Duration = Duration::from_millis(25);
/// How long a lingering close waits for the peer's EOF before giving up.
const LINGER_TIMEOUT: Duration = Duration::from_secs(1);

enum ConnState {
    /// Waiting for (more of) a request; idle keep-alive lives here.
    Reading,
    /// A worker owns the request; the loop only drains output.
    Parked(Option<StreamJob>),
    /// A stream job yielded; waiting for the buffer to drain, no thread.
    Processing,
    /// Response fully buffered; flush it, then keep or close.
    Draining { keep: bool },
    /// Error response delivered for a request the peer may still be
    /// sending: write side shut, discarding reads until the peer's EOF —
    /// an outright close would RST the response out of its hands.
    Lingering,
}

struct Conn {
    stream: TcpStream,
    gen: u32,
    /// Bytes read but not yet consumed by a parsed request (pipelining
    /// clients buffer the next request here).
    readbuf: Vec<u8>,
    /// Head-scan cursor into `readbuf` (see `try_parse_request`).
    scan_from: usize,
    out: Arc<Outbuf>,
    /// Requests dispatched on this connection.
    served: usize,
    last_activity: Instant,
    state: ConnState,
    interest: Interest,
    /// The peer half-closed its write side (it may still be reading).
    peer_closed: bool,
    /// The response in flight answers a request the peer may not have
    /// finished sending (parse error, body cap): linger after the drain.
    linger: bool,
}

struct Loop<'a> {
    shared: &'a Shared,
    poller: Poller,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_gen: u32,
    draining: bool,
}

/// What the sweep decided for one connection (computed under the borrow,
/// applied after).
enum Sweep {
    Keep,
    Close { idle: bool },
    DrainTick,
    WriteTimeout,
}

fn token_for(gen: u32, idx: usize) -> u64 {
    ((gen as u64) << 32) | idx as u64
}

pub(crate) fn run(shared: &Shared, listener: TcpListener) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let poller = Poller::new()?;
    poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)?;
    poller.register(shared.waker.fd(), TOKEN_WAKER, Interest::READABLE)?;
    let mut lp = Loop {
        shared,
        poller,
        conns: Vec::new(),
        free: Vec::new(),
        next_gen: 1,
        draining: false,
    };
    let mut listener = Some(listener);
    let mut events: Vec<Event> = Vec::new();
    loop {
        lp.poller.wait(&mut events, Some(TICK))?;
        if !events.is_empty() {
            shared.stats.epoll_wakeups.inc();
        }
        if signal::triggered() {
            shared.begin_shutdown();
        }
        for ev in &events {
            match ev.token {
                TOKEN_LISTENER => lp.accept_all(listener.as_ref()),
                TOKEN_WAKER => shared.waker.drain(),
                token => lp.conn_event(token, ev),
            }
        }
        lp.process_done();
        if !lp.draining && shared.queue.is_shutting_down() {
            // Drain mode: stop listening (drop closes the fd), shed idle
            // keep-alive connections, finish everything in flight.
            lp.draining = true;
            if let Some(l) = listener.take() {
                let _ = lp.poller.deregister(l.as_raw_fd());
            }
            lp.close_idle_for_drain();
        }
        lp.sweep();
        if lp.draining && lp.conns.iter().all(Option::is_none) {
            return Ok(());
        }
    }
}

impl Loop<'_> {
    fn accept_all(&mut self, listener: Option<&TcpListener>) {
        let Some(listener) = listener else { return };
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    self.shared.stats.accepted.inc();
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Responses leave as whole flush-point buffers, so
                    // Nagle has nothing to coalesce — it would only hold
                    // each response's tail until the client's delayed ACK.
                    let _ = stream.set_nodelay(true);
                    let idx = self.free.pop().unwrap_or_else(|| {
                        self.conns.push(None);
                        self.conns.len() - 1
                    });
                    let gen = self.next_gen;
                    self.next_gen = self.next_gen.wrapping_add(1).max(1);
                    if self
                        .poller
                        .register(stream.as_raw_fd(), token_for(gen, idx), Interest::READABLE)
                        .is_err()
                    {
                        self.free.push(idx);
                        continue;
                    }
                    self.conns[idx] = Some(Conn {
                        stream,
                        gen,
                        readbuf: Vec::new(),
                        scan_from: 0,
                        out: Arc::new(Outbuf::new(self.shared.opts.stream_buffer)),
                        served: 0,
                        last_activity: Instant::now(),
                        state: ConnState::Reading,
                        interest: Interest::READABLE,
                        peer_closed: false,
                        linger: false,
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    /// Looks up a live connection by token (stale generations — a closed
    /// slot since reused — are dropped silently).
    fn live(&mut self, token: u64) -> Option<usize> {
        let idx = (token & 0xffff_ffff) as usize;
        let gen = (token >> 32) as u32;
        match self.conns.get(idx).and_then(Option::as_ref) {
            Some(conn) if conn.gen == gen => Some(idx),
            _ => None,
        }
    }

    fn conn_event(&mut self, token: u64, ev: &Event) {
        let Some(idx) = self.live(token) else { return };
        let (readable, fatal) = {
            let conn = self.conns[idx].as_mut().expect("live");
            if ev.read_closed {
                conn.peer_closed = true;
            }
            (ev.readable, ev.error || ev.hangup)
        };
        if fatal {
            // Both directions are gone; any buffered response is
            // undeliverable, and a worker mid-response sees BrokenPipe.
            self.close(idx);
            return;
        }
        if readable {
            self.do_read(idx);
        }
        if ev.writable {
            self.drain_conn(idx);
        }
    }

    /// Reads everything available into the connection's buffer, then
    /// tries to dispatch a request from it.
    fn do_read(&mut self, idx: usize) {
        let max_buf = self
            .shared
            .opts
            .max_body
            .saturating_mul(2)
            .saturating_add(READ_CHUNK);
        let mut eof = false;
        let discard;
        {
            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                return;
            };
            discard = match conn.state {
                ConnState::Reading => false,
                ConnState::Lingering => true,
                _ => return,
            };
            let mut chunk = vec![0u8; READ_CHUNK];
            loop {
                match read_ready(&mut conn.stream, &mut chunk) {
                    Ok(ReadOutcome::Read(n)) => {
                        conn.last_activity = Instant::now();
                        if discard {
                            continue; // lingering: the bytes are refuse
                        }
                        conn.readbuf.extend_from_slice(&chunk[..n]);
                        if conn.readbuf.len() > max_buf {
                            // The parser's TooLarge verdict fires below;
                            // stop hoarding bytes past it.
                            break;
                        }
                    }
                    Ok(ReadOutcome::WouldBlock) => break,
                    Ok(ReadOutcome::Closed) => {
                        conn.peer_closed = true;
                        eof = true;
                        break;
                    }
                    Err(_) => {
                        drop(chunk);
                        // Hard read error: the connection is unusable.
                        self.close(idx);
                        return;
                    }
                }
            }
        }
        if discard {
            if eof {
                self.close(idx); // the peer's FIN ends the linger
            }
            return;
        }
        self.try_dispatch(idx);
        if eof {
            self.finish_eof(idx);
        }
    }

    /// A connection whose peer hit EOF and that is still `Reading` will
    /// never complete a request: close it (answering `400` if a partial
    /// request is stuck). No-op while the peer is alive.
    fn finish_eof(&mut self, idx: usize) {
        let verdict = self
            .conns
            .get(idx)
            .and_then(Option::as_ref)
            .and_then(|conn| match conn.state {
                ConnState::Reading if conn.peer_closed => Some(conn.readbuf.is_empty()),
                _ => None,
            });
        match verdict {
            Some(true) => self.close(idx), // clean keep-alive end
            Some(false) => {
                self.respond_direct(idx, 400, &[], "connection closed mid-request\n", false)
            }
            None => {}
        }
    }

    /// Parses one request out of the read buffer and hands it to the
    /// worker queue (or answers the parse/backpressure error directly).
    fn try_dispatch(&mut self, idx: usize) {
        enum Parsed {
            Request {
                request: Request,
                served: usize,
                token: u64,
                out: Arc<Outbuf>,
            },
            Bad {
                status: u16,
                message: String,
            },
        }
        let parsed = {
            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                return;
            };
            if !matches!(conn.state, ConnState::Reading) || conn.readbuf.is_empty() {
                return;
            }
            match try_parse_request(
                &conn.readbuf,
                self.shared.opts.max_body,
                &mut conn.scan_from,
            ) {
                Ok(None) => return, // need more bytes
                Ok(Some((request, consumed))) => {
                    conn.readbuf.drain(..consumed);
                    conn.scan_from = 0;
                    conn.served += 1;
                    conn.last_activity = Instant::now();
                    Parsed::Request {
                        request,
                        served: conn.served,
                        token: token_for(conn.gen, idx),
                        out: Arc::clone(&conn.out),
                    }
                }
                Err(e) => {
                    let (status, message) = match &e {
                        HttpError::Malformed(m) => (400, format!("{m}\n")),
                        HttpError::TooLarge("request head") => (431, format!("{e}\n")),
                        HttpError::TooLarge(_) => (413, format!("{e}\n")),
                        HttpError::Unsupported(_) => (501, format!("{e}\n")),
                        // The incremental parser never produces these.
                        HttpError::Io(_) | HttpError::Closed => (400, "bad request\n".to_owned()),
                    };
                    Parsed::Bad { status, message }
                }
            }
        };
        match parsed {
            Parsed::Request {
                request,
                served,
                token,
                out,
            } => {
                self.shared.stats.requests.inc();
                if served > 1 {
                    self.shared.stats.reused_requests.inc();
                }
                match self.shared.queue.push(Job::Request {
                    token,
                    request,
                    served,
                    out,
                    enqueued: Instant::now(),
                }) {
                    Ok(()) => {
                        self.shared
                            .stats
                            .queue_depth
                            .set(self.shared.queue.depth() as u64);
                        self.shared.stats.worker_handoffs.inc();
                        if let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) {
                            conn.state = ConnState::Processing;
                        }
                        self.update_interest(idx);
                    }
                    Err((_, why)) => {
                        // Backpressure: answer 503 and close — never
                        // buffer beyond the bounded queue.
                        let message = match why {
                            PushError::Full => "queue full, retry later\n",
                            PushError::ShuttingDown => "shutting down\n",
                        };
                        self.shared.stats.rejected.inc();
                        self.respond_direct(
                            idx,
                            503,
                            &[("Retry-After", "1".to_owned())],
                            message,
                            false,
                        );
                    }
                }
            }
            Parsed::Bad { status, message } => {
                self.respond_direct(idx, status, &[], &message, false);
            }
        }
    }

    /// Renders a small response straight into the output buffer from the
    /// event-loop thread (parse errors, backpressure) and starts the
    /// drain.
    fn respond_direct(
        &mut self,
        idx: usize,
        status: u16,
        extra: &[(&str, String)],
        body: &str,
        keep: bool,
    ) {
        let mut buf = Vec::new();
        let _ = write_response_conn(&mut buf, status, "text/plain", extra, body.as_bytes(), keep);
        {
            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                return;
            };
            conn.out.force_push(&buf);
            conn.state = ConnState::Draining { keep };
            // Direct responses answer requests the peer may still be
            // mid-send on; closing under those bytes would RST the
            // response away, so linger for the peer's EOF instead.
            conn.linger = !keep && !conn.peer_closed;
            conn.last_activity = Instant::now();
        }
        self.drain_conn(idx);
    }

    /// Pushes buffered output to the socket, then advances the state
    /// machine (finish a drain, resume a parked job, rearm interest).
    fn drain_conn(&mut self, idx: usize) {
        let result = {
            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                return;
            };
            let backlog = conn.out.len();
            // High-water mark of any connection's output backlog — how
            // close streamed responses come to the buffer bound.
            self.shared
                .stats
                .outbuf_highwater
                .record_max(backlog as u64);
            if backlog == 0 {
                Ok(Drained::Empty)
            } else {
                conn.out
                    .drain_to(&mut conn.stream, &self.shared.stats.socket_writes)
            }
        };
        match result {
            Err(_) => self.close(idx),
            Ok(_) => self.after_drain(idx),
        }
    }

    fn after_drain(&mut self, idx: usize) {
        enum Next {
            Rearm,
            Close,
            Redispatch,
            Resume {
                // Boxed: a StreamJob is ~200 bytes and the other
                // variants are empty.
                job: Box<StreamJob>,
                token: u64,
                out: Arc<Outbuf>,
            },
        }
        let next = {
            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                return;
            };
            match &mut conn.state {
                ConnState::Draining { keep } => {
                    if conn.out.len() > 0 {
                        Next::Rearm
                    } else if *keep && !self.draining {
                        conn.state = ConnState::Reading;
                        conn.last_activity = Instant::now();
                        Next::Redispatch
                    } else if conn.linger {
                        conn.state = ConnState::Lingering;
                        conn.last_activity = Instant::now();
                        conn.readbuf.clear();
                        let _ = conn.stream.shutdown(std::net::Shutdown::Write);
                        Next::Rearm
                    } else {
                        Next::Close
                    }
                }
                ConnState::Parked(slot) => {
                    // Resume once the client has drained to a quarter:
                    // hysteresis against thrashing at the yield boundary.
                    if conn.out.len() <= self.shared.opts.stream_buffer / 4 {
                        match slot.take() {
                            Some(job) => {
                                conn.state = ConnState::Processing;
                                Next::Resume {
                                    job: Box::new(job),
                                    token: token_for(conn.gen, idx),
                                    out: Arc::clone(&conn.out),
                                }
                            }
                            None => Next::Rearm,
                        }
                    } else {
                        Next::Rearm
                    }
                }
                _ => Next::Rearm,
            }
        };
        match next {
            Next::Rearm => self.update_interest(idx),
            Next::Close => self.close(idx),
            Next::Redispatch => {
                self.update_interest(idx);
                // Level-triggered epoll will not re-announce bytes we
                // already buffered: a pipelined request must be parsed
                // out now, not on the next readiness event.
                self.try_dispatch(idx);
                self.finish_eof(idx);
            }
            Next::Resume { job, token, out } => {
                // Order matters: enqueue first, then release the hold —
                // the drain condition must never observe the gap.
                self.shared.queue.push_unbounded(Job::Resume {
                    token,
                    job: *job,
                    out,
                });
                self.shared.queue.unhold();
                self.shared.stats.worker_handoffs.inc();
                self.shared
                    .stats
                    .queue_depth
                    .set(self.shared.queue.depth() as u64);
                self.update_interest(idx);
            }
        }
    }

    /// Registers exactly the readiness this connection can act on: reads
    /// only while `Reading`, writes only while output is buffered.
    fn update_interest(&mut self, idx: usize) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        let mut want = match conn.state {
            ConnState::Reading | ConnState::Lingering => Interest::READABLE,
            _ => Interest::NONE,
        };
        if conn.out.len() > 0 {
            want = want.with(Interest::WRITABLE);
        }
        if want != conn.interest {
            let token = token_for(conn.gen, idx);
            let _ = self.poller.modify(conn.stream.as_raw_fd(), token, want);
            conn.interest = want;
        }
    }

    fn close(&mut self, idx: usize) {
        let Some(slot) = self.conns.get_mut(idx) else {
            return;
        };
        let Some(conn) = slot.take() else { return };
        // Any worker blocked on this buffer sees BrokenPipe immediately.
        conn.out.abort();
        if matches!(conn.state, ConnState::Parked(Some(_))) {
            // The parked job will never be resumed; release the drain.
            self.shared.queue.unhold();
        }
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        self.free.push(idx);
        // Dropping `conn` closes the socket.
    }

    /// Applies worker verdicts delivered through the done-list.
    fn process_done(&mut self) {
        for Done { token, disposition } in self.shared.take_done() {
            let Some(idx) = self.live(token) else {
                if let Disposition::Yield { .. } = disposition {
                    // The connection died while the job was in flight;
                    // the job dies with it, but the hold must not leak.
                    self.shared.queue.unhold();
                }
                continue;
            };
            match disposition {
                Disposition::Finish { keep } => {
                    let conn = self.conns[idx].as_mut().expect("live");
                    conn.state = ConnState::Draining { keep };
                    conn.last_activity = Instant::now();
                    self.drain_conn(idx);
                }
                Disposition::Abort => self.close(idx),
                Disposition::Yield { job } => {
                    let conn = self.conns[idx].as_mut().expect("live");
                    conn.state = ConnState::Parked(Some(job));
                    conn.last_activity = Instant::now();
                    // May resume immediately if the client already drained.
                    self.drain_conn(idx);
                }
            }
        }
    }

    /// At drain start, idle keep-alive connections (no request in
    /// progress, nothing buffered) are closed outright — they would
    /// otherwise pin the drain for a full keep-alive timeout.
    fn close_idle_for_drain(&mut self) {
        for idx in 0..self.conns.len() {
            let idle = matches!(
                self.conns[idx].as_ref(),
                Some(conn) if matches!(conn.state, ConnState::Reading) && conn.readbuf.is_empty()
            );
            if idle {
                self.close(idx);
            }
        }
    }

    /// Coarse timeout sweep, once per tick.
    fn sweep(&mut self) {
        let now = Instant::now();
        let opts = &self.shared.opts;
        let (keep_alive_timeout, io_timeout, stream_deadline) = (
            opts.keep_alive_timeout,
            opts.io_timeout,
            opts.stream_write_deadline,
        );
        for idx in 0..self.conns.len() {
            let action = {
                let Some(conn) = self.conns[idx].as_ref() else {
                    continue;
                };
                let idle = now.duration_since(conn.last_activity);
                match conn.state {
                    ConnState::Reading => {
                        if conn.served > 0 && conn.readbuf.is_empty() && idle > keep_alive_timeout {
                            Sweep::Close { idle: true }
                        } else if (conn.served == 0 || !conn.readbuf.is_empty())
                            && idle > io_timeout
                        {
                            Sweep::Close { idle: false }
                        } else {
                            Sweep::Keep
                        }
                    }
                    ConnState::Draining { .. } => match conn.out.stalled_for() {
                        Some(stall) if stall > io_timeout => Sweep::Close { idle: false },
                        _ => Sweep::DrainTick,
                    },
                    ConnState::Parked(_) => match conn.out.stalled_for() {
                        Some(stall) if stall > stream_deadline => Sweep::WriteTimeout,
                        _ => Sweep::DrainTick,
                    },
                    ConnState::Processing => {
                        if conn.out.len() > 0 {
                            Sweep::DrainTick
                        } else {
                            Sweep::Keep
                        }
                    }
                    ConnState::Lingering => {
                        // A peer that never sends its FIN is abandoned.
                        if idle > LINGER_TIMEOUT {
                            Sweep::Close { idle: false }
                        } else {
                            Sweep::Keep
                        }
                    }
                }
            };
            match action {
                Sweep::Keep => {}
                Sweep::Close { idle } => {
                    if idle {
                        self.shared.stats.closed_idle.inc();
                    }
                    self.close(idx);
                }
                Sweep::WriteTimeout => {
                    self.shared.stats.write_timeouts.inc();
                    self.close(idx);
                }
                Sweep::DrainTick => self.drain_conn(idx),
            }
        }
        self.update_gauges();
    }

    fn update_gauges(&self) {
        let mut open = 0usize;
        let mut parked = 0usize;
        for conn in self.conns.iter().flatten() {
            open += 1;
            if matches!(conn.state, ConnState::Reading)
                && conn.readbuf.is_empty()
                && conn.served > 0
            {
                parked += 1;
            }
        }
        self.shared.stats.connections_open.set(open as u64);
        self.shared.stats.parked_idle.set(parked as u64);
        // Mirror the poller's cumulative epoll_wait account: the gap
        // between wall time and wait time is the loop's busy time.
        self.shared
            .stats
            .epoll_wait_nanos
            .set(self.poller.total_wait_nanos());
        self.shared.stats.epoll_waits.set(self.poller.wait_count());
    }
}
