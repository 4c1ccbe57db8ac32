//! The open-loop load generator: at most `nproc` threads, one keep-alive
//! connection each, sending a fixed query mix on a schedule that does not
//! slow down when the daemon does. Every request is timed from its due
//! time, and the generator reports how late it sent (`gen_lag`). The
//! update arrivals (named-pipe writes) and freshness probes ride on the
//! first thread.

use crate::daemon::{host_ticks, Steal, STEAL_LIMIT_PCT};
use crate::net::{self, sys, Conn, Response};
use crate::stats::Samples;
use bgp_bench::Rng;
use bgp_serve::http::HttpConfig;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, Write};
use std::os::unix::fs::OpenOptionsExt;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A request that has not been answered for this long fails (timeout).
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(2);
/// An arrival not visible this long after its due time fails.
pub const ARRIVAL_DEADLINE: Duration = Duration::from_secs(10);
/// Gap between freshness probes while an arrival is not yet visible.
const PROBE_GAP: Duration = Duration::from_millis(1);
/// Retry gap for opening a named pipe the daemon has not opened yet.
const OPEN_RETRY: Duration = Duration::from_micros(200);

/// One query route of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    Class(u32),
    Classes,
    Flips(u64),
    Health,
    ClassEpoch(u32, u64),
    Stats,
}

impl Route {
    pub fn path(self) -> String {
        match self {
            Route::Class(asn) => format!("/v1/class/{asn}"),
            Route::Classes => "/v1/classes?limit=100".to_string(),
            Route::Flips(since) => format!("/v1/flips?since_epoch={since}"),
            Route::Health => "/healthz".to_string(),
            Route::ClassEpoch(asn, epoch) => format!("/v1/class/{asn}?epoch={epoch}"),
            Route::Stats => "/v1/stats".to_string(),
        }
    }

    /// Label used for per-route metrics.
    pub fn label(self) -> &'static str {
        match self {
            Route::Class(_) => "class",
            Route::Classes => "classes",
            Route::Flips(_) => "flips",
            Route::Health => "healthz",
            Route::ClassEpoch(..) => "class_epoch",
            Route::Stats => "stats",
        }
    }

    /// A correct answer: 200, and point lookups name the requested AS.
    pub fn check(self, resp: &Response) -> bool {
        if resp.status != 200 || !resp.body.starts_with("{\"version\":") {
            return false;
        }
        match self {
            Route::Class(asn) | Route::ClassEpoch(asn, _) => {
                resp.body.contains(&format!("\"asn\":{asn},"))
            }
            _ => true,
        }
    }
}

/// The query mix: the shares of the repository's serve bench
/// (`crates/bench/benches/serve.rs`: 70% point lookups, 10% each of
/// `/healthz`, `/v1/classes?limit=100` and `/v1/flips`), with 5 of the
/// 70 points of lookups sent as time-travel reads on recent archived
/// epochs.
#[derive(Debug, Clone)]
pub struct Mix {
    /// Every AS the daemon serves.
    pub asns: Vec<u32>,
    /// The last archived epoch at boot.
    pub last_epoch: u64,
}

impl Mix {
    pub fn pick(&self, rng: &mut Rng) -> Route {
        let asn = self.asns[rng.below(self.asns.len() as u64) as usize];
        match rng.below(100) {
            0..=64 => Route::Class(asn),
            65..=69 => {
                Route::ClassEpoch(asn, self.last_epoch - rng.below(4.min(self.last_epoch + 1)))
            }
            70..=79 => Route::Classes,
            80..=89 => Route::Flips(self.last_epoch.saturating_sub(4)),
            _ => Route::Health,
        }
    }
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct PhaseResult {
    /// Query latency from due time to answer, ns.
    pub latency: Samples,
    /// The same latencies split into consecutive windows by due time.
    pub windows: Vec<Samples>,
    /// Host steal (percent) during each window, sampled by the first
    /// generator thread.
    pub window_steal: Vec<f64>,
    /// Generator lateness: send time minus due time, ns.
    pub lag: Samples,
    /// Requests (and arrivals) attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Live only: arrival due time → first answer covering it, ns.
    pub freshness: Samples,
    /// Connections reopened (keep-alive cap, or after a failure).
    pub reconnects: u64,
    /// Answers that came back wrong (non-200, or not the requested AS):
    /// failures that also make the run incorrect.
    pub wrong: u64,
    /// First failure seen, for the log.
    pub first_failure: Option<String>,
}

impl PhaseResult {
    /// Median over windows of each window's quantile `q`: one host stall
    /// moves one window, not the result. Windows with fewer than ten
    /// samples beyond `q` are skipped, and so are windows during which
    /// the hypervisor stole more than `STEAL_LIMIT_PCT` of CPU time,
    /// unless that leaves none.
    pub fn window_quantile(&self, q: f64) -> Option<f64> {
        let per = |skip_stolen: bool| -> Vec<f64> {
            self.windows
                .iter()
                .enumerate()
                .filter(|(i, _)| {
                    !skip_stolen
                        || self
                            .window_steal
                            .get(*i)
                            .is_none_or(|&s| s <= STEAL_LIMIT_PCT)
                })
                .filter(|(_, w)| w.beyond(q) >= 10)
                .filter_map(|(_, w)| w.quantile(q))
                .map(|v| v as f64)
                .collect()
        };
        let mut kept = per(true);
        if kept.is_empty() {
            kept = per(false);
        }
        (!kept.is_empty()).then(|| crate::stats::median(&kept))
    }

    /// Windows left out of the quantiles for host steal.
    pub fn stolen_windows(&self) -> usize {
        self.window_steal
            .iter()
            .filter(|&&s| s > STEAL_LIMIT_PCT)
            .count()
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(why);
        }
    }

    /// Add a phase that ran after this one: its windows follow this
    /// phase's windows (where `merge` overlays threads of one phase).
    pub fn append(&mut self, mut other: PhaseResult) {
        let windows = std::mem::take(&mut other.windows);
        let mut window_steal = std::mem::take(&mut other.window_steal);
        window_steal.resize(windows.len(), 0.0);
        self.window_steal.resize(self.windows.len(), 0.0);
        self.merge(other);
        self.windows.extend(windows);
        self.window_steal.extend(window_steal);
    }

    pub fn merge(&mut self, other: PhaseResult) {
        self.latency.extend(other.latency);
        if self.windows.len() < other.windows.len() {
            self.windows
                .resize_with(other.windows.len(), Samples::default);
        }
        for (mine, theirs) in self.windows.iter_mut().zip(other.windows) {
            mine.extend(theirs);
        }
        if self.window_steal.is_empty() {
            self.window_steal = other.window_steal;
        }
        self.lag.extend(other.lag);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.freshness.extend(other.freshness);
        self.reconnects += other.reconnects;
        self.wrong += other.wrong;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

struct Inflight {
    due: Instant,
    route: Route,
    /// Freshness probe of the arrival side, not part of the query mix.
    probe: bool,
}

/// Run the mix at `rate` requests/s in total for `duration` over `conns`
/// (one thread each), with `arrivals` riding on the first thread;
/// latencies are also kept per `window` of due time.
pub fn run_phase(
    conns: &mut [Conn],
    mix: &Mix,
    rate: f64,
    duration: Duration,
    window: Duration,
    seed: u64,
    arrivals: Option<&mut Arrivals>,
) -> PhaseResult {
    let threads = conns.len();
    let interval = Duration::from_secs_f64(threads as f64 / rate);
    let start = Instant::now() + Duration::from_millis(2);
    let mut arrivals = arrivals;
    if let Some(side) = arrivals.as_deref_mut() {
        side.schedule_from(start);
    }
    let mut total = PhaseResult::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| {
                let side = if i == 0 { arrivals.take() } else { None };
                let offset = interval.mul_f64(i as f64 / threads as f64);
                let mut rng = Rng(seed.wrapping_mul(31).wrapping_add(i as u64) | 1);
                let sched = Schedule {
                    start: start + offset,
                    end: start + duration,
                    interval,
                    window,
                    sample_steal: i == 0,
                };
                scope.spawn(move || drive(conn, mix, sched, &mut rng, side))
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("load thread panicked"));
        }
    });
    total
}

/// When one generator thread's requests fall due.
struct Schedule {
    start: Instant,
    end: Instant,
    interval: Duration,
    window: Duration,
    /// Sample host steal at every window boundary.
    sample_steal: bool,
}

/// One generator thread's event loop.
fn drive(
    conn: &mut Conn,
    mix: &Mix,
    sched: Schedule,
    rng: &mut Rng,
    mut side: Option<&mut Arrivals>,
) -> PhaseResult {
    let Schedule {
        start,
        end,
        interval,
        window,
        sample_steal,
    } = sched;
    // Host ticks at each window boundary crossed so far.
    let mut boundaries: Vec<(u64, u64)> = Vec::new();
    // The daemon closes a connection after this many requests; sending
    // past it would have the extra requests reset, so the generator
    // drains the connection at the cap and opens a fresh one.
    let cap = HttpConfig::default().max_keepalive_requests;
    let mut out = PhaseResult::default();
    // Due but not yet written (waiting out a reconnect at the cap).
    let mut queue: VecDeque<Inflight> = VecDeque::new();
    let mut inflight: VecDeque<Inflight> = VecDeque::new();
    let mut wbuf = Vec::new();
    let mut got = Vec::new();
    let mut k: u32 = 0;
    let mut next_due = start;
    loop {
        let now = Instant::now();
        if sample_steal && now < end + window {
            let crossed = (now.saturating_duration_since(start).as_nanos()
                / window.as_nanos().max(1)) as usize;
            if now >= start && boundaries.len() <= crossed {
                boundaries.push(host_ticks());
            }
        }
        while next_due <= now && next_due < end {
            queue.push_back(Inflight {
                due: next_due,
                route: mix.pick(rng),
                probe: false,
            });
            out.attempted += 1;
            out.lag.push((now - next_due).as_nanos() as u64);
            k += 1;
            next_due = start + interval * k;
        }
        if let Some(side) = side.as_deref_mut() {
            side.step(now, &mut out);
            if side.want_probe(now) {
                queue.push_back(Inflight {
                    due: now,
                    route: Route::Stats,
                    probe: true,
                });
                side.probing = true;
            }
        }
        while conn.sent < cap {
            let Some(req) = queue.pop_front() else {
                break;
            };
            net::request_bytes(&req.route.path(), &mut wbuf);
            inflight.push_back(req);
            conn.sent += 1;
        }
        if !wbuf.is_empty() {
            let sent = conn.send(&wbuf);
            wbuf.clear();
            if let Err(e) = sent {
                fail_all(
                    &mut inflight,
                    &mut out,
                    side.as_deref_mut(),
                    format!("send: {e}"),
                );
                reconnect(conn, &mut out);
            }
        }
        let side_done = side.as_deref().is_none_or(Arrivals::done);
        if next_due >= end && queue.is_empty() && inflight.is_empty() && side_done {
            break;
        }
        let oldest = inflight.front().or(queue.front()).map(|r| r.due);
        if oldest.is_some_and(|due| now.duration_since(due) > REQUEST_TIMEOUT) {
            fail_all(
                &mut inflight,
                &mut out,
                side.as_deref_mut(),
                "timeout".into(),
            );
            fail_all(&mut queue, &mut out, side.as_deref_mut(), "timeout".into());
            reconnect(conn, &mut out);
            continue;
        }
        // Sleep until the next due request, side event or request
        // timeout, waking early for answers and pipe space.
        let mut wake = now + REQUEST_TIMEOUT;
        if next_due < end {
            wake = wake.min(next_due);
        }
        if let Some(due) = oldest {
            wake = wake.min(due + REQUEST_TIMEOUT);
        }
        let mut fds = [
            sys::PollFd {
                fd: conn.fd(),
                events: sys::POLLIN,
                revents: 0,
            },
            sys::PollFd {
                fd: -1,
                events: sys::POLLOUT,
                revents: 0,
            },
        ];
        if let Some(side) = side.as_deref() {
            if let Some(w) = side.next_wake() {
                wake = wake.min(w);
            }
            fds[1].fd = side.pipe_fd();
        }
        let timeout = wake.saturating_duration_since(Instant::now());
        if sys::wait(&mut fds, timeout).is_err() || fds[0].revents == 0 {
            continue;
        }
        got.clear();
        let alive = match conn.read_ready(&mut got) {
            Ok(alive) => alive,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
            Err(e) => {
                fail_all(
                    &mut inflight,
                    &mut out,
                    side.as_deref_mut(),
                    format!("read: {e}"),
                );
                reconnect(conn, &mut out);
                continue;
            }
        };
        let recv = Instant::now();
        for resp in got.drain(..) {
            let Some(req) = inflight.pop_front() else {
                out.fail("answer without a request".into());
                continue;
            };
            if req.probe {
                if let Some(side) = side.as_deref_mut() {
                    side.on_probe(&resp, recv, &mut out);
                }
            } else if req.route.check(&resp) {
                let ns = (recv - req.due).as_nanos() as u64;
                out.latency.push(ns);
                let w = (req.due.saturating_duration_since(start).as_nanos()
                    / window.as_nanos().max(1)) as usize;
                if out.windows.len() <= w {
                    out.windows.resize_with(w + 1, Samples::default);
                }
                out.windows[w].push(ns);
            } else {
                out.wrong += 1;
                out.fail(format!(
                    "{} -> {} {}",
                    req.route.path(),
                    resp.status,
                    resp.body.chars().take(120).collect::<String>()
                ));
            }
        }
        if conn.closing || !alive {
            // Requests the server will no longer answer were reset.
            fail_all(&mut inflight, &mut out, side.as_deref_mut(), "reset".into());
            reconnect(conn, &mut out);
        }
    }
    out.window_steal = boundaries
        .windows(2)
        .map(|pair| Steal::from_ticks(pair[0]).pct_until(pair[1]))
        .collect();
    out
}

fn fail_all(
    inflight: &mut VecDeque<Inflight>,
    out: &mut PhaseResult,
    side: Option<&mut Arrivals>,
    why: String,
) {
    for req in inflight.drain(..) {
        if req.probe {
            out.fail(format!("probe {why}"));
        } else {
            out.fail(format!("{} {why}", req.route.path()));
        }
    }
    if let Some(side) = side {
        side.probing = false;
    }
}

fn reconnect(conn: &mut Conn, out: &mut PhaseResult) {
    out.reconnects += 1;
    // A refused reconnect shows up as send/read failures next round.
    let _ = conn.reopen();
}

/// The update files of one segment, handed to the daemon through named
/// pipes on a fixed schedule, and the freshness probes that watch for
/// each one to become visible.
pub struct Arrivals {
    pipes: Vec<PathBuf>,
    files: Vec<Vec<u8>>,
    /// `total_events` once arrival `i` is visible.
    expect: Vec<u64>,
    start: Instant,
    interval: Duration,
    /// Next arrival to hand over, its pipe (once the daemon opened it)
    /// and bytes written so far.
    next: usize,
    pipe: Option<(File, usize)>,
    open_retry_at: Option<Instant>,
    /// Visibility time of each arrival.
    visible: Vec<Option<Instant>>,
    seen: usize,
    probing: bool,
    next_probe: Instant,
}

/// `O_NONBLOCK` (Linux): open a pipe's write end without waiting for
/// the reader, and never block on a full pipe.
const O_NONBLOCK: i32 = 0o4000;
/// `ENXIO`: no reader has opened the pipe yet.
const ENXIO: i32 = 6;

impl Arrivals {
    pub fn new(
        pipes: Vec<PathBuf>,
        files: Vec<Vec<u8>>,
        base_events: u64,
        per_file: u64,
        interval: Duration,
    ) -> Arrivals {
        let n = files.len();
        Arrivals {
            pipes,
            files,
            expect: (1..=n as u64).map(|i| base_events + i * per_file).collect(),
            start: Instant::now(),
            interval,
            next: 0,
            pipe: None,
            open_retry_at: None,
            visible: vec![None; n],
            seen: 0,
            probing: false,
            next_probe: Instant::now(),
        }
    }

    /// Fix the schedule: arrival `i` is due at `start + i × interval`.
    pub fn schedule_from(&mut self, start: Instant) {
        self.start = start;
        self.next_probe = start;
    }

    fn due(&self, i: usize) -> Instant {
        self.start + self.interval * i as u32
    }

    /// The schedule length.
    pub fn span(&self) -> Duration {
        self.interval * self.files.len() as u32
    }

    fn done(&self) -> bool {
        self.seen == self.files.len()
    }

    fn pipe_fd(&self) -> i32 {
        use std::os::fd::AsRawFd;
        self.pipe.as_ref().map_or(-1, |(f, _)| f.as_raw_fd())
    }

    fn next_wake(&self) -> Option<Instant> {
        let mut wake: Option<Instant> = None;
        let mut at = |t: Instant| wake = Some(wake.map_or(t, |w| w.min(t)));
        if self.pipe.is_none() && self.next < self.files.len() {
            at(self.open_retry_at.unwrap_or_else(|| self.due(self.next)));
        }
        if self.seen < self.files.len() {
            if !self.probing && self.seen < self.next {
                at(self.next_probe);
            }
            at(self.due(self.seen) + ARRIVAL_DEADLINE);
        }
        wake
    }

    /// Hand over due files and expire arrivals past their deadline.
    fn step(&mut self, now: Instant, out: &mut PhaseResult) {
        if self.pipe.is_none() && self.next < self.files.len() {
            let due = self.due(self.next);
            if now >= due && self.open_retry_at.is_none_or(|t| now >= t) {
                if self.open_retry_at.is_none() {
                    out.lag.push((now - due).as_nanos() as u64);
                    out.attempted += 1;
                }
                match std::fs::OpenOptions::new()
                    .write(true)
                    .custom_flags(O_NONBLOCK)
                    .open(&self.pipes[self.next])
                {
                    Ok(f) => {
                        self.pipe = Some((f, 0));
                        self.open_retry_at = None;
                    }
                    Err(e) if e.raw_os_error() == Some(ENXIO) => {
                        self.open_retry_at = Some(now + OPEN_RETRY);
                    }
                    Err(e) => {
                        out.fail(format!("open pipe {}: {e}", self.next));
                        self.open_retry_at = Some(now + OPEN_RETRY);
                    }
                }
            }
        }
        if let Some((file, written)) = self.pipe.as_mut() {
            let bytes = &self.files[self.next];
            while *written < bytes.len() {
                match file.write(&bytes[*written..]) {
                    Ok(n) => *written += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) => {
                        out.fail(format!("write pipe {}: {e}", self.next));
                        *written = bytes.len();
                    }
                }
            }
            if *written == bytes.len() {
                // Closing the write end is the reader's end of file.
                self.pipe = None;
                self.next += 1;
            }
        }
        while self.seen < self.files.len()
            && self.visible[self.seen].is_none()
            && now > self.due(self.seen) + ARRIVAL_DEADLINE
        {
            out.fail(format!("arrival {} not visible in time", self.seen));
            self.seen += 1;
        }
    }

    fn want_probe(&self, now: Instant) -> bool {
        !self.probing && self.seen < self.next && now >= self.next_probe
    }

    fn on_probe(&mut self, resp: &Response, recv: Instant, out: &mut PhaseResult) {
        self.probing = false;
        self.next_probe = recv + PROBE_GAP;
        out.attempted += 1;
        let Some(total) = (resp.status == 200)
            .then(|| net::json_u64(&resp.body, "total_events"))
            .flatten()
        else {
            out.wrong += 1;
            out.fail(format!("probe -> {}", resp.status));
            return;
        };
        while self.seen < self.next && self.expect[self.seen] <= total {
            self.visible[self.seen] = Some(recv);
            out.freshness
                .push((recv - self.due(self.seen)).as_nanos() as u64);
            self.seen += 1;
        }
    }
}
