//! The raw syscall surface, declared against the libc that `std` links.
//!
//! Nothing here is public outside the crate: [`crate::Poller`] and
//! [`crate::Waker`] are the typed API. The declarations mirror the
//! kernel ABI exactly; everything returns `-1`-with-`errno`, converted
//! to `io::Error` by the callers via `io::Error::last_os_error()`.

#![cfg(target_os = "linux")]

use std::os::raw::{c_int, c_void};

pub const EPOLL_CLOEXEC: c_int = 0o2000000;

pub const EPOLL_CTL_ADD: c_int = 1;
pub const EPOLL_CTL_DEL: c_int = 2;
pub const EPOLL_CTL_MOD: c_int = 3;

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
/// Peer closed its write half (half-close); orthogonal to `EPOLLHUP`.
pub const EPOLLRDHUP: u32 = 0x2000;

pub const O_NONBLOCK: c_int = 0o4000;
pub const O_CLOEXEC: c_int = 0o2000000;

pub const F_GETFL: c_int = 3;
pub const F_SETFL: c_int = 4;

pub const AF_INET: c_int = 2;
pub const SOCK_STREAM: c_int = 1;
pub const SOCK_CLOEXEC: c_int = 0o2000000;
pub const SOL_SOCKET: c_int = 1;
pub const SO_RCVBUF: c_int = 8;
pub const IPPROTO_TCP: c_int = 6;
pub const TCP_MAXSEG: c_int = 2;

/// `struct sockaddr_in`; port and address in network byte order.
#[repr(C)]
pub struct SockaddrIn {
    pub sin_family: u16,
    pub sin_port: u16,
    pub sin_addr: u32,
    pub sin_zero: [u8; 8],
}

/// `struct epoll_event`. The kernel ABI packs it on x86-64 (12 bytes);
/// other architectures use natural alignment (16 bytes) — mirroring
/// glibc's `__attribute__((packed))` arrangement.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

extern "C" {
    pub fn epoll_create1(flags: c_int) -> c_int;
    pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    pub fn epoll_wait(
        epfd: c_int,
        events: *mut EpollEvent,
        maxevents: c_int,
        timeout: c_int,
    ) -> c_int;
    pub fn close(fd: c_int) -> c_int;
    pub fn pipe2(pipefd: *mut c_int, flags: c_int) -> c_int;
    /// Variadic in C; the `F_GETFL`/`F_SETFL` uses here pass one `int`
    /// argument, which the 64-bit SysV and AAPCS calling conventions
    /// accept through a fixed three-`int` declaration.
    pub fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
    pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    pub fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    pub fn setsockopt(
        fd: c_int,
        level: c_int,
        name: c_int,
        value: *const c_void,
        len: u32,
    ) -> c_int;
    pub fn connect(fd: c_int, addr: *const SockaddrIn, len: u32) -> c_int;
}
