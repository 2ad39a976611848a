//! The `xtt-serve` process under test: spawn, register, measure, stop.

use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::http::{request, Conn};

pub struct Server {
    child: Child,
    /// Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Starts the release binary on an ephemeral port with `workers`
    /// request workers and tracing off, and waits for its address.
    pub fn spawn(bin: &Path, workers: usize) -> io::Result<Server> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--workers", &workers.to_string()])
            .args([
                "--trace-sample",
                "0",
                "--slow-ms",
                "0",
                "--preload",
                "flip,library",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = stdout
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.trim().rsplit("http://").next()?.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "xtt-serve did not report its address: {line:?}"
            )));
        };
        Ok(Server {
            child,
            _stdout: stdout,
            addr,
        })
    }

    /// Spawns a server and registers `puts` (path, body) on it, one
    /// connection per registration the way a deploy script calling curl
    /// once per upload would; returns it with the time from spawn to
    /// ready.
    pub fn setup(
        bin: &Path,
        workers: usize,
        puts: &[(String, String)],
    ) -> io::Result<(Server, f64)> {
        let t0 = Instant::now();
        let server = Server::spawn(bin, workers)?;
        for (path, body) in puts {
            let r = Conn::new(server.addr).send(&request("PUT", path, body.as_bytes()))?;
            if r.status != 201 {
                return Err(io::Error::other(format!(
                    "PUT {path} answered {}: {}",
                    r.status,
                    String::from_utf8_lossy(&r.body)
                )));
            }
        }
        if !server.get("/healthz")?.contains("\"ok\":true") {
            return Err(io::Error::other("healthz failed after setup"));
        }
        Ok((server, t0.elapsed().as_secs_f64()))
    }

    /// `GET` a monitoring endpoint on a connection of its own.
    pub fn get(&self, path: &str) -> io::Result<String> {
        let r = Conn::new(self.addr).send(&request("GET", path, b""))?;
        Ok(String::from_utf8_lossy(&r.body).into_owned())
    }

    /// The server's peak resident set (VmHWM), in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kb: f64 = status
            .lines()
            .find(|l| l.starts_with("VmHWM:"))?
            .split_whitespace()
            .nth(1)?
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    /// Graceful stop (`POST /shutdown`), then a kill if it does not exit
    /// within a few seconds; always reaps the process.
    pub fn stop(mut self) {
        let _ = Conn::new(self.addr).send(&request("POST", "/shutdown", b""));
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
