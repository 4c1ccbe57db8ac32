//! The daemon under test as a separate process: spawn with deployment
//! settings only, wait for `/healthz`, read its CPU time and peak RSS
//! from `/proc`, and always stop and reap it.

use crate::net;
use std::fs::File;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// Longest wait for the first `/healthz` answer.
const HEALTH_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `bgp-served`; killed and reaped on drop.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
    pub spawned: Instant,
}

/// A free loopback port for the daemon to listen on.
fn free_addr() -> Result<SocketAddr, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    listener
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))
}

impl Daemon {
    /// Spawn `bin` listening on a free port with `args` (archive dir,
    /// `--linger`, input files); its log goes to `log`.
    pub fn spawn(bin: &Path, args: &[String], log: &Path) -> Result<Daemon, String> {
        let addr = free_addr()?;
        let log = File::create(log).map_err(|e| format!("create {}: {e}", log.display()))?;
        let spawned = Instant::now();
        let child = Command::new(bin)
            .arg("-l")
            .arg(addr.to_string())
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        Ok(Daemon {
            child,
            addr,
            spawned,
        })
    }

    /// Block until `/healthz` answers 200; returns spawn → answer.
    pub fn wait_healthy(&mut self) -> Result<Duration, String> {
        loop {
            if let Ok(resp) = net::get_once(self.addr, "/healthz", Duration::from_secs(5)) {
                if resp.status == 200 {
                    return Ok(self.spawned.elapsed());
                }
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("daemon exited before serving: {status}"));
            }
            if self.spawned.elapsed() > HEALTH_TIMEOUT {
                return Err("daemon never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// User + system CPU seconds the daemon has used so far.
    pub fn cpu_s(&self) -> Result<f64, String> {
        let stat = read_proc(self.child.id(), "stat")?;
        // Fields after the parenthesised command name: state is field 3,
        // utime and stime are fields 14 and 15.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or("malformed /proc stat")?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|v| v.parse::<f64>().ok())
                .ok_or_else(|| "malformed /proc stat".to_string())
        };
        Ok((ticks(11)? + ticks(12)?) / clock_ticks())
    }

    /// Peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = read_proc(self.child.id(), "status")?;
        let kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .ok_or("no VmHWM in /proc status")?;
        Ok(kb / 1024.0)
    }

    /// Wait for the daemon to exit on its own (a feed without `--linger`).
    pub fn wait_exit(mut self, timeout: Duration) -> Result<ExitStatus, String> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return Ok(status);
            }
            if Instant::now() > deadline {
                return Err("daemon did not exit in time".into());
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // SIGKILL: a daemon blocked opening a named pipe ignores the
        // graceful path, and nothing it would flush is needed any more.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn read_proc(pid: u32, file: &str) -> Result<String, String> {
    let path = PathBuf::from(format!("/proc/{pid}/{file}"));
    std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))
}

/// Kernel clock ticks per second (`getconf CLK_TCK`, 100 on Linux).
fn clock_ticks() -> f64 {
    static TICKS: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *TICKS.get_or_init(|| {
        Command::new("getconf")
            .arg("CLK_TCK")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(100.0)
    })
}

/// A replay, base-rate phase, live segment or latency window during which
/// the hypervisor stole more than this share of CPU time is measured
/// again or left out (a few times at most; the provenance records it).
pub const STEAL_LIMIT_PCT: f64 = 1.5;

/// Host steal over an interval: the share of CPU time the hypervisor ran
/// something else while this VM wanted the CPU. Provenance, and the
/// signal for measuring a phase again when the host was busy.
pub struct Steal((u64, u64));

impl Steal {
    pub fn start() -> Steal {
        Steal(host_ticks())
    }

    /// An interval that started at `ticks` (from [`host_ticks`]).
    pub fn from_ticks(ticks: (u64, u64)) -> Steal {
        Steal(ticks)
    }

    /// Percent of CPU time stolen since `start`.
    pub fn pct(&self) -> f64 {
        self.pct_until(host_ticks())
    }

    /// Percent of CPU time stolen between `start` and `ticks`.
    pub fn pct_until(&self, ticks: (u64, u64)) -> f64 {
        let (steal, total) = ticks;
        100.0 * (steal - self.0 .0) as f64 / (total - self.0 .1).max(1) as f64
    }
}

/// Host CPU ticks so far: `(steal, total)` from `/proc/stat`.
pub fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}
