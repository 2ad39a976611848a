//! `ServeClient` — a minimal blocking HTTP client for driving a running
//! `xtt-serve` over a real socket. This is first-class test support: the
//! integration tests, the examples, and the CI smoke script all use it
//! instead of shelling out to curl.
//!
//! Like curl, every request leaves in one `write_all` (head and body
//! together) on a `TCP_NODELAY` socket, so latency measured through this
//! client is the server's, not the client's own Nagle stall.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::http::{read_response, Response};

/// One client bound to a server address; each call is one connection.
#[derive(Clone, Debug)]
pub struct ServeClient {
    addr: SocketAddr,
    timeout: Duration,
}

impl ServeClient {
    pub fn new(addr: impl ToSocketAddrs) -> io::Result<ServeClient> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address"))?;
        Ok(ServeClient {
            addr,
            timeout: Duration::from_secs(30),
        })
    }

    pub fn with_timeout(mut self, timeout: Duration) -> ServeClient {
        self.timeout = timeout;
        self
    }

    /// The server address this client talks to (for tests that need a
    /// raw socket next to the client).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn connect(&self) -> io::Result<TcpStream> {
        let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    /// Sends one request with a `Transfer-Encoding: chunked` body — a
    /// streamed upload. `chunks` become one wire chunk each.
    pub fn request_chunked(
        &self,
        method: &str,
        target: &str,
        chunks: &[&str],
    ) -> io::Result<Response> {
        let mut stream = self.connect()?;
        let mut wire = format!(
            "{method} {target} HTTP/1.1\r\nHost: {}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            self.addr,
        );
        for chunk in chunks.iter().filter(|c| !c.is_empty()) {
            wire.push_str(&format!("{:x}\r\n{chunk}\r\n", chunk.len()));
        }
        wire.push_str("0\r\n\r\n");
        exchange(&mut stream, wire.into_bytes())
    }

    /// Sends one request; `target` includes the query string.
    pub fn request(&self, method: &str, target: &str, body: &str) -> io::Result<Response> {
        let mut stream = self.connect()?;
        let wire = request_bytes(self.addr, method, target, body, "Connection: close\r\n");
        exchange(&mut stream, wire)
    }

    /// `GET /healthz` → true iff the server answers 200.
    pub fn healthz(&self) -> bool {
        self.request("GET", "/healthz", "")
            .map(|r| r.status == 200)
            .unwrap_or(false)
    }

    /// Uploads term-syntax rules under `name`.
    pub fn put_transducer(&self, name: &str, rules: &str) -> io::Result<Response> {
        self.request("PUT", &format!("/transducers/{name}"), rules)
    }

    /// Learns a transducer from `input => output` sample lines.
    pub fn learn_transducer(&self, name: &str, sample: &str) -> io::Result<Response> {
        self.request("PUT", &format!("/transducers/{name}?learn=1"), sample)
    }

    /// Transforms a batch (one document per line); `query` is e.g.
    /// `"?mode=stream&format=xml"` or `""`. Returns the response and the
    /// per-document result lines, positionally.
    pub fn transform(
        &self,
        name: &str,
        query: &str,
        docs: &[&str],
    ) -> io::Result<(Response, Vec<String>)> {
        let mut body = docs.join("\n");
        body.push('\n');
        let response = self.request("POST", &format!("/transform/{name}{query}"), &body)?;
        let lines = response
            .body_str()
            .lines()
            .map(str::to_owned)
            .collect::<Vec<_>>();
        Ok((response, lines))
    }

    /// `POST /typecheck/{name}` — output typechecking against a DTTA
    /// schema in term syntax; answers ok/counterexample JSON.
    pub fn typecheck(&self, name: &str, schema: &str) -> io::Result<Response> {
        self.request("POST", &format!("/typecheck/{name}"), schema)
    }

    /// `GET /stats` (raw JSON).
    pub fn stats(&self) -> io::Result<Response> {
        self.request("GET", "/stats", "")
    }

    /// `POST /shutdown` — asks the server to drain and exit.
    pub fn shutdown(&self) -> io::Result<Response> {
        self.request("POST", "/shutdown", "")
    }

    /// Polls `/healthz` until the server answers or the deadline passes.
    pub fn wait_ready(&self, deadline: Duration) -> bool {
        let t0 = std::time::Instant::now();
        while t0.elapsed() < deadline {
            if self.healthz() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        false
    }

    /// Opens a persistent (keep-alive) session: one connection, many
    /// requests.
    pub fn session(&self) -> io::Result<ServeSession> {
        Ok(ServeSession {
            addr: self.addr,
            stream: self.connect()?,
        })
    }
}

/// A `Content-Length` request, head and body in one buffer; `extra` is
/// spliced in as additional header lines.
fn request_bytes(addr: SocketAddr, method: &str, target: &str, body: &str, extra: &str) -> Vec<u8> {
    let mut wire = format!(
        "{method} {target} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n{extra}\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body.as_bytes());
    wire
}

/// Sends a whole request in one `write_all` and reads the response.
fn exchange(stream: &mut TcpStream, wire: Vec<u8>) -> io::Result<Response> {
    stream.write_all(&wire)?;
    read_response(stream).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// A keep-alive client session: requests share one TCP connection until
/// the server (or [`ServeSession::close`]) ends it. Used by the
/// integration tests to pin connection-reuse behavior.
pub struct ServeSession {
    addr: SocketAddr,
    stream: TcpStream,
}

impl ServeSession {
    /// Sends one request on the shared connection.
    pub fn request(&mut self, method: &str, target: &str, body: &str) -> io::Result<Response> {
        let wire = request_bytes(self.addr, method, target, body, "");
        exchange(&mut self.stream, wire)
    }

    /// Sends a request with an explicit `Connection: close`, asking the
    /// server to end the session after answering.
    pub fn request_close(
        &mut self,
        method: &str,
        target: &str,
        body: &str,
    ) -> io::Result<Response> {
        let wire = request_bytes(self.addr, method, target, body, "Connection: close\r\n");
        exchange(&mut self.stream, wire)
    }
}
