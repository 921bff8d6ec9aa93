//! The real `monomapd`, run as a child process on an ephemeral
//! loopback port.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::http::Conn;

pub struct Daemon {
    child: Child,
    /// Held open for the daemon's lifetime: it prints a few more lines
    /// after the ready line and would die of `EPIPE` on a closed pipe.
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Starts `bin` with `flags` on port 0 and returns once `GET
    /// /healthz` answers `200`, with the time that took.
    pub fn boot(bin: &Path, flags: &[&str]) -> Result<(Daemon, Duration), String> {
        let start = Instant::now();
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        // From here on the child is owned by a `Daemon`, so every error
        // path below kills and reaps it.
        let mut daemon = Daemon {
            child,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut ready = String::new();
        daemon
            .stdout
            .read_line(&mut ready)
            .map_err(|e| format!("reading the daemon's ready line: {e}"))?;
        daemon.addr = ready
            .trim()
            .strip_prefix("monomapd listening on http://")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected ready line `{}`", ready.trim()))?;
        let status = Conn::connect(daemon.addr)
            .and_then(|mut c| c.get("/healthz"))
            .map_err(|e| format!("/healthz: {e}"))?
            .status;
        if status != 200 {
            return Err(format!("/healthz answered {status}"));
        }
        Ok((daemon, start.elapsed()))
    }

    /// `VmHWM` of the daemon in MiB, from `/proc/<pid>/status`.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().strip_suffix("kB"))
            .and_then(|kb| kb.trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }
}

impl Drop for Daemon {
    /// Kills the daemon and waits for it, so no child outlives the
    /// benchmark whichever way a workload ends.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
