//! A minimal HTTP/1.1 keep-alive client for the load generator.
//!
//! Each request goes out in one `write_all` of a pre-built buffer (head
//! and body together) on a socket with `TCP_NODELAY`, the way curl sends.
//! Responses are parsed incrementally so the time of the first body byte
//! is known; chunked and `Content-Length` bodies are both understood.
//! When the server answers `Connection: close` (it does after a fixed
//! number of requests per connection), the socket is dropped and the next
//! request reconnects; those reconnects are counted.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One parsed response with its client-side timings.
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    /// Request write → first response-body byte (the head, for an empty
    /// body).
    pub ttfb: Duration,
    /// Request write → last byte of the response.
    pub total: Duration,
}

pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    /// Connections opened after the first one.
    pub reconnects: u64,
    opened: u64,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            buf: Vec::with_capacity(1 << 16),
            reconnects: 0,
            opened: 0,
        }
    }

    fn stream(&mut self) -> io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(60)))?;
            if self.opened > 0 {
                self.reconnects += 1;
            }
            self.opened += 1;
            self.stream = Some(s);
        }
        Ok(self.stream.as_mut().expect("connected above"))
    }

    /// Sends one complete request (`head + body` in one buffer) and reads
    /// its response. Any I/O or framing error drops the connection.
    pub fn send(&mut self, request: &[u8]) -> io::Result<Response> {
        let result = self.exchange(request);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn exchange(&mut self, request: &[u8]) -> io::Result<Response> {
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        let started = Instant::now();
        let stream = self.stream()?;
        stream.write_all(request)?;
        let mut parser = Parser::default();
        let mut ttfb = None;
        let mut chunk = [0u8; 65536];
        loop {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ));
            }
            buf.extend_from_slice(&chunk[..n]);
            let done = parser.advance(&buf)?;
            if ttfb.is_none() && (parser.body_started || done) {
                ttfb = Some(started.elapsed());
            }
            if done {
                break;
            }
        }
        let total = started.elapsed();
        let close = parser.close;
        let response = Response {
            status: parser.status,
            body: std::mem::take(&mut parser.body),
            ttfb: ttfb.unwrap_or(total),
            total,
        };
        self.buf = buf;
        if close {
            self.stream = None;
        }
        Ok(response)
    }
}

/// Builds a request buffer: head and body in one allocation.
pub fn request(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

enum State {
    Head,
    Length(usize),
    ChunkSize,
    ChunkData(usize),
    ChunkEnd,
    Trailer,
}

/// Incremental response parser over the accumulated receive buffer.
struct Parser {
    state: State,
    pos: usize,
    status: u16,
    close: bool,
    body: Vec<u8>,
    body_started: bool,
}

impl Default for Parser {
    fn default() -> Parser {
        Parser {
            state: State::Head,
            pos: 0,
            status: 0,
            close: false,
            body: Vec::new(),
            body_started: false,
        }
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}

fn find_crlf(buf: &[u8], from: usize) -> Option<usize> {
    buf[from..]
        .windows(2)
        .position(|w| w == b"\r\n")
        .map(|i| from + i)
}

impl Parser {
    /// Consumes what `buf` holds past `self.pos`; `Ok(true)` once the
    /// response is complete.
    fn advance(&mut self, buf: &[u8]) -> io::Result<bool> {
        loop {
            match self.state {
                State::Head => {
                    let Some(end) = buf[self.pos..]
                        .windows(4)
                        .position(|w| w == b"\r\n\r\n")
                        .map(|i| self.pos + i)
                    else {
                        return Ok(false);
                    };
                    let head = std::str::from_utf8(&buf[..end]).map_err(|_| bad("head"))?;
                    let mut lines = head.split("\r\n");
                    let status_line = lines.next().ok_or_else(|| bad("status line"))?;
                    self.status = status_line
                        .split(' ')
                        .nth(1)
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| bad("status code"))?;
                    let mut length = None;
                    let mut chunked = false;
                    for line in lines {
                        let Some((k, v)) = line.split_once(':') else {
                            continue;
                        };
                        let (k, v) = (k.trim().to_ascii_lowercase(), v.trim());
                        match k.as_str() {
                            "content-length" => {
                                length = Some(v.parse().map_err(|_| bad("content-length"))?)
                            }
                            "transfer-encoding" => chunked = v.eq_ignore_ascii_case("chunked"),
                            "connection" => self.close = v.eq_ignore_ascii_case("close"),
                            _ => {}
                        }
                    }
                    self.pos = end + 4;
                    self.state = if chunked {
                        State::ChunkSize
                    } else {
                        State::Length(length.unwrap_or(0))
                    };
                }
                State::Length(n) => {
                    let have = buf.len() - self.pos;
                    self.body_started |= have > 0 || n == 0;
                    if have < n {
                        return Ok(false);
                    }
                    self.body.extend_from_slice(&buf[self.pos..self.pos + n]);
                    self.pos += n;
                    return Ok(true);
                }
                State::ChunkSize => {
                    let Some(end) = find_crlf(buf, self.pos) else {
                        return Ok(false);
                    };
                    let line =
                        std::str::from_utf8(&buf[self.pos..end]).map_err(|_| bad("chunk"))?;
                    let hex = line.split(';').next().unwrap_or("").trim();
                    let size = usize::from_str_radix(hex, 16).map_err(|_| bad("chunk size"))?;
                    self.pos = end + 2;
                    self.state = if size == 0 {
                        State::Trailer
                    } else {
                        State::ChunkData(size)
                    };
                }
                State::ChunkData(n) => {
                    let have = (buf.len() - self.pos).min(n);
                    self.body_started |= have > 0;
                    self.body.extend_from_slice(&buf[self.pos..self.pos + have]);
                    self.pos += have;
                    if have < n {
                        self.state = State::ChunkData(n - have);
                        return Ok(false);
                    }
                    self.state = State::ChunkEnd;
                }
                State::ChunkEnd => {
                    if buf.len() - self.pos < 2 {
                        return Ok(false);
                    }
                    if &buf[self.pos..self.pos + 2] != b"\r\n" {
                        return Err(bad("chunk terminator"));
                    }
                    self.pos += 2;
                    self.state = State::ChunkSize;
                }
                State::Trailer => {
                    let Some(end) = find_crlf(buf, self.pos) else {
                        return Ok(false);
                    };
                    // Trailer fields until the empty line that ends them.
                    let empty = end == self.pos;
                    self.pos = end + 2;
                    if empty {
                        return Ok(true);
                    }
                }
            }
        }
    }
}
