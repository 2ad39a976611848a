//! # xtt-netio
//!
//! A dependency-free readiness layer for the serving front end: typed
//! wrappers over raw `epoll_create1`/`epoll_ctl`/`epoll_wait` and
//! `fcntl`/`pipe` syscalls, declared `extern "C"` against the platform
//! libc that `std` already links (the same no-deps discipline as
//! `xtt-serve`'s signal shim — the build environment is offline, so
//! `mio`/`libc` are not an option anyway).
//!
//! The pieces:
//!
//! * [`Poller`] — an epoll instance: [`Poller::register`] a file
//!   descriptor with a `u64` token and an [`Interest`] (readable and/or
//!   writable), [`Poller::wait`] for [`Event`]s. Registration is
//!   level-triggered: an event keeps firing while the condition holds,
//!   so interest must be switched off ([`Poller::modify`]) while a
//!   connection is parked.
//! * [`Waker`] — a nonblocking self-pipe for cross-thread wakeups:
//!   worker threads call [`Waker::wake`] to interrupt a blocked
//!   [`Poller::wait`]; the event loop registers [`Waker::fd`] and
//!   [`Waker::drain`]s it on readiness.
//! * [`read_ready`] / [`write_ready`] — nonblocking I/O helpers that
//!   fold `EINTR` retries and map `EWOULDBLOCK` and clean EOF into a
//!   typed outcome instead of an `io::Error` the caller has to sniff.
//! * [`connect_narrow`] — a client socket with a deliberately small
//!   receive window, for tests that need guaranteed backpressure.
//!
//! Platform scope: the epoll backend is Linux; on other Unix platforms
//! the crate compiles but [`Poller::new`] answers
//! `io::ErrorKind::Unsupported` (the serving front end is deployed on
//! Linux, and shipping an untestable fallback would be worse than an
//! honest error). Non-Unix platforms are out of scope entirely.

mod poller;
mod sys;
mod waker;

pub use poller::{Event, Interest, Poller};
pub use waker::Waker;

use std::io::{self, IoSlice, Read, Write};

/// Flips `O_NONBLOCK` on a raw descriptor via `fcntl` — for descriptors
/// that are not `std::net` sockets (inherited fds, pipes), where
/// `set_nonblocking` is not available.
#[cfg(target_os = "linux")]
pub fn set_nonblocking(fd: std::os::unix::io::RawFd, nonblocking: bool) -> io::Result<()> {
    let flags = unsafe { sys::fcntl(fd, sys::F_GETFL, 0) };
    if flags < 0 {
        return Err(io::Error::last_os_error());
    }
    let flags = if nonblocking {
        flags | sys::O_NONBLOCK
    } else {
        flags & !sys::O_NONBLOCK
    };
    if unsafe { sys::fcntl(fd, sys::F_SETFL, flags) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// What one nonblocking `read` attempt produced.
#[derive(Debug, PartialEq, Eq)]
pub enum ReadOutcome {
    /// `n > 0` bytes were read.
    Read(usize),
    /// The peer closed its write side (clean EOF).
    Closed,
    /// Nothing buffered; wait for the next readability event.
    WouldBlock,
}

/// One nonblocking read into `buf`, with `EINTR` folded away and
/// `WouldBlock`/EOF surfaced as values — the readiness loop treats them
/// as states, not errors.
pub fn read_ready(stream: &mut impl Read, buf: &mut [u8]) -> io::Result<ReadOutcome> {
    loop {
        match stream.read(buf) {
            Ok(0) => return Ok(ReadOutcome::Closed),
            Ok(n) => return Ok(ReadOutcome::Read(n)),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(ReadOutcome::WouldBlock),
            Err(e) => return Err(e),
        }
    }
}

/// What one nonblocking `write` attempt produced.
#[derive(Debug, PartialEq, Eq)]
pub enum WriteOutcome {
    /// `n > 0` bytes were accepted by the kernel.
    Wrote(usize),
    /// The socket buffer is full; wait for the next writability event.
    WouldBlock,
}

/// One nonblocking gathering write from `bufs` (one `writev`, so a
/// buffer split in two still leaves in a single syscall), with `EINTR`
/// folded away and `WouldBlock` surfaced as a value. A hard error
/// (`EPIPE`, `ECONNRESET`, …) stays an `Err` — the connection is gone.
pub fn write_ready(stream: &mut impl Write, bufs: &[IoSlice<'_>]) -> io::Result<WriteOutcome> {
    loop {
        match stream.write_vectored(bufs) {
            Ok(n) => return Ok(WriteOutcome::Wrote(n)),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(WriteOutcome::WouldBlock),
            Err(e) => return Err(e),
        }
    }
}

/// Connects a blocking IPv4 TCP socket whose receive side is narrow
/// from the first byte: `SO_RCVBUF` and `TCP_MAXSEG` are set *before*
/// the handshake (`std`'s `TcpStream::connect` offers no hook between
/// `socket` and `connect`). The small advertised segment size also keeps
/// the peer's autotuned send buffer small, so once this client stops
/// reading, the peer's writes block after a few tens of KB instead of
/// the megabytes a loopback connection otherwise absorbs — a
/// deterministic slow reader for flow-control tests.
#[cfg(target_os = "linux")]
pub fn connect_narrow(
    addr: std::net::SocketAddrV4,
    rcvbuf: u32,
    mss: u32,
) -> io::Result<std::net::TcpStream> {
    use std::os::unix::io::{FromRawFd, OwnedFd, RawFd};

    fn set_int(fd: RawFd, level: i32, name: i32, value: u32) -> io::Result<()> {
        let value = value as i32;
        let rc = unsafe {
            sys::setsockopt(
                fd,
                level,
                name,
                &value as *const i32 as *const std::os::raw::c_void,
                std::mem::size_of::<i32>() as u32,
            )
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    let raw = unsafe { sys::socket(sys::AF_INET, sys::SOCK_STREAM | sys::SOCK_CLOEXEC, 0) };
    if raw < 0 {
        return Err(io::Error::last_os_error());
    }
    // Owned from here on: every early return closes the descriptor.
    let fd = unsafe { OwnedFd::from_raw_fd(raw) };
    set_int(raw, sys::SOL_SOCKET, sys::SO_RCVBUF, rcvbuf)?;
    set_int(raw, sys::IPPROTO_TCP, sys::TCP_MAXSEG, mss)?;
    let sockaddr = sys::SockaddrIn {
        sin_family: sys::AF_INET as u16,
        sin_port: addr.port().to_be(),
        sin_addr: u32::from(*addr.ip()).to_be(),
        sin_zero: [0; 8],
    };
    let rc = unsafe {
        sys::connect(
            raw,
            &sockaddr,
            std::mem::size_of::<sys::SockaddrIn>() as u32,
        )
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(std::net::TcpStream::from(fd))
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::time::{Duration, Instant};

    /// A connected loopback pair to poll against.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        (a, b)
    }

    #[test]
    fn readable_fires_only_once_bytes_arrive() {
        let (mut a, mut b) = pair();
        let poller = Poller::new().unwrap();
        poller
            .register(a.as_raw_fd(), 7, Interest::READABLE)
            .unwrap();

        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty(), "no bytes yet: {events:?}");
        let mut buf = [0u8; 8];
        assert_eq!(
            read_ready(&mut a, &mut buf).unwrap(),
            ReadOutcome::WouldBlock
        );

        b.write_all(b"hi").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        assert_eq!(read_ready(&mut a, &mut buf).unwrap(), ReadOutcome::Read(2));

        // Level-triggered: nothing left to read, so no more events.
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty(), "{events:?}");
        poller.deregister(a.as_raw_fd()).unwrap();
    }

    #[test]
    fn writable_fires_immediately_and_eof_reports_closed() {
        let (a, b) = pair();
        let poller = Poller::new().unwrap();
        poller
            .register(a.as_raw_fd(), 1, Interest::WRITABLE)
            .unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.writable));

        // Peer goes away: interest switched to readable sees the hangup.
        poller.modify(a.as_raw_fd(), 1, Interest::READABLE).unwrap();
        drop(b);
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert!(
            events
                .iter()
                .any(|e| e.token == 1 && (e.readable || e.read_closed || e.hangup)),
            "{events:?}"
        );
        let mut a = a;
        let mut buf = [0u8; 8];
        assert_eq!(read_ready(&mut a, &mut buf).unwrap(), ReadOutcome::Closed);
    }

    #[test]
    fn waker_interrupts_a_blocked_wait() {
        let poller = std::sync::Arc::new(Poller::new().unwrap());
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        poller
            .register(waker.fd(), u64::MAX, Interest::READABLE)
            .unwrap();

        let w = std::sync::Arc::clone(&waker);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            w.wake().unwrap();
            w.wake().unwrap(); // coalesces, must not error or block
        });
        let t0 = Instant::now();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(t0.elapsed() < Duration::from_secs(5), "wait did not wake");
        assert!(events.iter().any(|e| e.token == u64::MAX && e.readable));
        t.join().unwrap(); // both wakes have landed before the drain
        waker.drain();
        // Drained: the next wait times out instead of spinning.
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty(), "{events:?}");
    }

    #[test]
    fn write_ready_reports_wouldblock_on_a_full_socket() {
        let (mut a, _b) = pair();
        let chunk = [0u8; 64 * 1024];
        let mut total = 0usize;
        while let WriteOutcome::Wrote(n) = write_ready(&mut a, &[IoSlice::new(&chunk)]).unwrap() {
            total += n;
            assert!(total < 1 << 30, "socket buffer never filled");
        }
        assert!(total > 0);
    }

    #[test]
    fn narrow_connection_backs_up_its_peer_within_a_bounded_amount() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let std::net::SocketAddr::V4(addr) = listener.local_addr().unwrap() else {
            unreachable!("bound an IPv4 address")
        };
        let _client = connect_narrow(addr, 1024, 536).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        let chunk = [0u8; 4096];
        let mut total = 0usize;
        // Let a few ACK rounds pass so send-buffer autotuning has its say.
        for _ in 0..10 {
            while let WriteOutcome::Wrote(n) =
                write_ready(&mut server, &[IoSlice::new(&chunk)]).unwrap()
            {
                total += n;
                assert!(total < 1 << 20, "a narrow reader absorbed {total} bytes");
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(total > 0);
    }
}
