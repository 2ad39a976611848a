//! The bounded per-connection output buffer between a worker thread and
//! the event loop.
//!
//! A worker produces response bytes into an [`Outbuf`] through a
//! [`ConnWriter`]; the event loop drains the buffer to the socket with
//! nonblocking writes whenever the connection reports writability. The
//! writer stages bytes worker-locally and publishes them in one push per
//! *flush point* (response end, each streamed chunk, a doc-boundary
//! yield, or a full staging buffer), so a small response reaches the
//! socket as one write instead of a head/body/framing trickle. The
//! buffer is the *only* coupling between the two sides:
//!
//! * A full buffer blocks the worker on a condvar — but never past the
//!   **idle-progress deadline**: if the consumer makes no drain progress
//!   for that long while the worker needs space, the push fails with
//!   `TimedOut` (a stalled client can cost a worker at most one deadline,
//!   not a blocked `write(2)` forever).
//! * A closed connection [`Outbuf::abort`]s the buffer, which fails any
//!   blocked or future push with `BrokenPipe` immediately — a worker can
//!   never deadlock on a connection that no longer exists.
//! * The empty→nonempty transition wakes the event loop (through the
//!   [`Waker`] pipe), which arms write interest; while bytes remain, the
//!   level-triggered `EPOLLOUT` keeps the drain going.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Write};
use std::net::TcpStream;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use xtt_netio::{write_ready, Waker, WriteOutcome};
use xtt_obs::Counter;

struct OutState {
    buf: VecDeque<u8>,
    aborted: bool,
    /// Last time the consumer drained bytes to the socket (or the buffer
    /// was created) — the reference point for the idle-progress deadline.
    last_progress: Instant,
}

/// The shared buffer; one per connection, held by the connection entry
/// in the event loop and by the job on the worker side.
pub(crate) struct Outbuf {
    state: Mutex<OutState>,
    space: Condvar,
    capacity: usize,
}

/// What [`Outbuf::drain_to`] left behind.
pub(crate) enum Drained {
    /// The buffer is empty; write interest can be disarmed.
    Empty,
    /// Bytes remain (the socket stopped accepting); keep write interest.
    Pending,
}

impl Outbuf {
    pub fn new(capacity: usize) -> Outbuf {
        Outbuf {
            state: Mutex::new(OutState {
                buf: VecDeque::new(),
                aborted: false,
                last_progress: Instant::now(),
            }),
            space: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, OutState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.lock().buf.len()
    }

    /// Fails every blocked and future push with `BrokenPipe` and drops
    /// the buffered bytes. Called whenever the connection goes away, so
    /// an orphaned response can never pin a worker.
    pub fn abort(&self) {
        let mut st = self.lock();
        st.aborted = true;
        st.buf.clear();
        drop(st);
        self.space.notify_all();
    }

    /// How long the buffer has been nonempty without any drain progress
    /// (`None` when empty). The event loop uses this to time out parked
    /// and draining connections whose client stopped reading.
    pub fn stalled_for(&self) -> Option<Duration> {
        let st = self.lock();
        if st.buf.is_empty() || st.aborted {
            None
        } else {
            Some(st.last_progress.elapsed())
        }
    }

    /// Event-loop-side append for small direct responses (parse errors,
    /// `503` backpressure): ignores the capacity bound — the event loop
    /// must never block — and is a no-op on an aborted buffer.
    pub fn force_push(&self, data: &[u8]) {
        let mut st = self.lock();
        if !st.aborted {
            st.buf.extend(data);
        }
    }

    /// Worker-side append: blocks while the buffer is full, bounded by
    /// the idle-progress `deadline` — measured from the later of the last
    /// consumer progress and the start of this wait, so a long compute
    /// gap before the push never counts against the client. Wakes the
    /// event loop on the empty→nonempty transition.
    pub fn push(&self, mut data: &[u8], deadline: Duration, waker: &Waker) -> io::Result<()> {
        let mut st = self.lock();
        loop {
            if st.aborted {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "connection is gone",
                ));
            }
            let space = self.capacity.saturating_sub(st.buf.len());
            if space > 0 {
                let n = space.min(data.len());
                let was_empty = st.buf.is_empty();
                st.buf.extend(&data[..n]);
                data = &data[n..];
                if was_empty {
                    // Wake *inside* the push: when the payload exceeds the
                    // capacity the next iteration blocks, and the consumer
                    // must already know there is something to drain.
                    let _ = waker.wake();
                }
                if data.is_empty() {
                    return Ok(());
                }
                continue;
            }
            let wait_started = Instant::now();
            loop {
                let stalled_since = st.last_progress.max(wait_started);
                let elapsed = stalled_since.elapsed();
                if elapsed >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "client stalled: no write progress within the deadline",
                    ));
                }
                let (guard, _) = self
                    .space
                    .wait_timeout(st, deadline - elapsed)
                    .unwrap_or_else(|e| e.into_inner());
                st = guard;
                if st.aborted || st.buf.len() < self.capacity {
                    break;
                }
            }
        }
    }

    /// Event-loop-side drain: nonblocking writes to the socket until the
    /// buffer empties or the socket stops accepting. Both halves of the
    /// ring go out in one gathering write; each successful write counts
    /// in `writes`. Progress updates the stall clock and wakes blocked
    /// workers; a hard write error aborts the buffer and surfaces to the
    /// caller (close the connection).
    pub fn drain_to(&self, stream: &mut TcpStream, writes: &Counter) -> io::Result<Drained> {
        let mut st = self.lock();
        let mut progressed = false;
        while !st.buf.is_empty() {
            let wrote = {
                let (front, back) = st.buf.as_slices();
                write_ready(stream, &[IoSlice::new(front), IoSlice::new(back)])
            };
            match wrote {
                Ok(WriteOutcome::Wrote(n)) => {
                    writes.inc();
                    st.buf.drain(..n);
                    progressed = true;
                }
                Ok(WriteOutcome::WouldBlock) => break,
                Err(e) => {
                    st.aborted = true;
                    st.buf.clear();
                    drop(st);
                    self.space.notify_all();
                    return Err(e);
                }
            }
        }
        let outcome = if st.buf.is_empty() {
            Drained::Empty
        } else {
            Drained::Pending
        };
        if progressed {
            st.last_progress = Instant::now();
            drop(st);
            self.space.notify_all();
        }
        Ok(outcome)
    }
}

/// The worker's view of a connection: an `io::Write` over the [`Outbuf`],
/// carrying the idle-progress deadline for this response. Handlers and
/// the engine's streaming sink write here exactly as they used to write
/// to the `TcpStream`. Writes are staged locally; `flush` publishes them
/// to the [`Outbuf`] in one push (one lock, at most one wake). Staging
/// never holds more than the buffer's capacity: reaching it publishes,
/// so the capacity bound and the idle-progress deadline still apply.
pub(crate) struct ConnWriter<'a> {
    out: &'a Outbuf,
    waker: &'a Waker,
    deadline: Duration,
    staged: Vec<u8>,
}

impl<'a> ConnWriter<'a> {
    pub fn new(out: &'a Outbuf, waker: &'a Waker, deadline: Duration) -> ConnWriter<'a> {
        ConnWriter {
            out,
            waker,
            deadline,
            staged: Vec::new(),
        }
    }

    /// Switches the deadline (streamed responses use the tighter
    /// `stream_write_deadline` instead of the general `io_timeout`).
    pub fn set_deadline(&mut self, deadline: Duration) {
        self.deadline = deadline;
    }

    /// Bytes staged or buffered and not yet on the wire — the stream
    /// jobs' doc-boundary yield decision reads this.
    pub fn backlog(&self) -> usize {
        self.out.len() + self.staged.len()
    }

    pub fn buffer_capacity(&self) -> usize {
        self.out.capacity()
    }
}

impl Write for ConnWriter<'_> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let capacity = self.out.capacity();
        if self.staged.len() + data.len() > capacity {
            self.flush()?;
        }
        if data.len() >= capacity {
            // As large as the bound on its own: hand it straight over.
            self.out.push(data, self.deadline, self.waker)?;
        } else {
            self.staged.extend_from_slice(data);
            if self.staged.len() >= capacity {
                self.flush()?;
            }
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if !self.staged.is_empty() {
            let pushed = self.out.push(&self.staged, self.deadline, self.waker);
            self.staged.clear();
            pushed?;
        }
        Ok(())
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_blocks_until_drain_then_completes() {
        let out = Arc::new(Outbuf::new(8));
        let waker = Arc::new(Waker::new().unwrap());
        let (o, w) = (Arc::clone(&out), Arc::clone(&waker));
        let producer =
            std::thread::spawn(move || o.push(b"0123456789abcdef", Duration::from_secs(5), &w));
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(out.len(), 8, "capacity bounds the buffer");
        // Simulate consumer progress by draining through a socket pair.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut a = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (_b, _) = listener.accept().unwrap();
        a.set_nonblocking(true).unwrap();
        let writes = Counter::new();
        while out.len() > 0 || !producer.is_finished() {
            out.drain_to(&mut a, &writes).unwrap();
            std::thread::sleep(Duration::from_millis(5));
        }
        producer.join().unwrap().unwrap();
        assert!(writes.get() >= 2, "the payload needed several drains");
    }

    #[test]
    fn conn_writer_publishes_only_at_flush_points() {
        let out = Outbuf::new(64);
        let waker = Waker::new().unwrap();
        let mut w = ConnWriter::new(&out, &waker, Duration::from_secs(1));
        w.write_all(b"head\r\n").unwrap();
        w.write_all(b"body").unwrap();
        assert_eq!(out.len(), 0, "nothing published before a flush");
        assert_eq!(w.backlog(), 10, "staged bytes count as backlog");
        w.flush().unwrap();
        assert_eq!(out.len(), 10);
        assert_eq!(w.backlog(), 10);

        // Staging never outgrows the capacity: a write that would
        // overflow it publishes what is staged first, and reaching it
        // publishes without an explicit flush.
        let out = Outbuf::new(8);
        let mut w = ConnWriter::new(&out, &waker, Duration::from_secs(1));
        w.write_all(b"12345").unwrap();
        w.write_all(b"6789").unwrap();
        assert_eq!(out.len(), 5, "the staged bytes went out to make room");
        assert_eq!(w.backlog(), 9);

        let out = Outbuf::new(8);
        let mut w = ConnWriter::new(&out, &waker, Duration::from_secs(1));
        w.write_all(b"1234").unwrap();
        w.write_all(b"5678").unwrap();
        assert_eq!(out.len(), 8, "a full staging buffer publishes");
    }

    #[test]
    fn drain_sends_a_wrapped_ring_in_one_write() {
        let out = Outbuf::new(64);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut a = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut b, _) = listener.accept().unwrap();
        a.set_nonblocking(true).unwrap();
        // Rotate the ring one byte at a time until its contents wrap
        // around the end of the deque's storage.
        let expected: Vec<u8> = {
            let mut st = out.lock();
            st.buf.extend(b"0123456789abcdef");
            while st.buf.as_slices().1.is_empty() {
                let c = st.buf.pop_front().unwrap();
                st.buf.push_back(c);
            }
            st.buf.iter().copied().collect()
        };
        let writes = Counter::new();
        out.drain_to(&mut a, &writes).unwrap();
        assert_eq!(writes.get(), 1, "both halves in one write");
        let mut got = vec![0u8; expected.len()];
        std::io::Read::read_exact(&mut b, &mut got).unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn stalled_consumer_times_out_and_abort_breaks_the_pipe() {
        let out = Outbuf::new(4);
        let waker = Waker::new().unwrap();
        let err = out
            .push(b"too big to fit", Duration::from_millis(50), &waker)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);

        out.abort();
        let err = out
            .push(b"x", Duration::from_millis(50), &waker)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }
}
