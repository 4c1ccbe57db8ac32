//! End-to-end benchmark of the `bgp-served` daemon.
//!
//! ```text
//! perfbench --daemon <bgp-served> --workload replay|live
//!           --seed N --seconds S --trace 0|1 [--work DIR]
//! ```
//!
//! With `--trace 0` the release daemon runs as a separate process on
//! generated MRT input, with its defaults except listen address, archive
//! directory, input files and `--linger`, and an open-loop generator of
//! at most `nproc` threads and connections measures it from outside.
//! Every run of either workload measures the same three phases: boot,
//! catch-up on a RIB snapshot, and queries at a fixed rate while update
//! files arrive on a fixed schedule (see `scenario`).
//! With `--trace 1` the layers' public functions run in process on the
//! same inputs under spans (see `traced`). The last line of stdout is the
//! result object; the line before it records provenance. A run whose
//! generator fell behind its bound is rejected: it exits non-zero and
//! prints no result.

mod daemon;
mod load;
mod net;
mod stats;
mod traced;
mod world;

use daemon::{Daemon, Steal, STEAL_LIMIT_PCT};
use load::{Arrivals, Mix, PhaseResult};
use net::Conn;
use stats::median;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use world::{World, EPOCH_EVENTS, RIB_ENTRIES, RIB_EPOCHS};

/// Base query rate, requests/s over all connections: an eighth of the
/// knee, the highest rate whose p99 stayed within 20 ms on a read-only
/// daemon, which was 69,900 req/s (median of three runs on a 2-vCPU VM).
/// At a quarter of the knee, the daemon overloaded whenever other
/// tenants slowed the host; at an eighth it held (see README).
const BASE_RATE: f64 = 8_750.0;
/// Generator lateness bound (p99, ms): a base-rate phase whose generator
/// ran later than this is rejected.
const LAG_P99_BOUND_MS: f64 = 25.0;
/// Latency windows of the base-rate phases: a quantile is reported as
/// the median over 200 ms windows (1750 answers each at the base rate),
/// so a host stall spoils the windows it falls in, not the result.
const WINDOW: Duration = Duration::from_millis(200);
/// Boots per run that only time set-up; `setup_s` is the median over
/// these and the measured boots.
const SETUP_REPS: usize = 5;
/// Measured daemon boots per run, each with its share of the arrivals.
const BOOTS: usize = 3;
/// Load before each measured phase, so that lazily opened state (the
/// history store of time-travel reads) is in place.
const WARM_UP: Duration = Duration::from_millis(500);
/// Live arrivals: one update file every 100 ms.
const ARRIVAL_INTERVAL: Duration = Duration::from_millis(100);
/// The live schedule runs in segments of this many arrivals (2.5 s);
/// up to SPARE_SEGMENTS segments per boot replace ones the host disturbed.
const SEGMENT_ARRIVALS: usize = 25;
const SPARE_SEGMENTS: usize = 1;
/// Catch-up probe period.
const PROBE_PERIOD: Duration = Duration::from_millis(5);
/// Longest a replay or backfill may take.
const CATCH_UP_TIMEOUT: Duration = Duration::from_secs(150);

struct Args {
    daemon: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        daemon: PathBuf::new(),
        workload: String::new(),
        seed: 0,
        seconds: 20,
        trace: false,
        work: PathBuf::from(".bench_work"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("missing value for {flag}"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--daemon" => args.daemon = PathBuf::from(value),
            "--workload" => args.workload = value,
            "--seed" => args.seed = num(&value)?,
            "--seconds" => args.seconds = num(&value)?.max(1),
            "--trace" => args.trace = num(&value)? != 0,
            "--work" => args.work = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !["replay", "live"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !args.trace && !args.daemon.is_file() {
        return Err(format!("no daemon binary at {}", args.daemon.display()));
    }
    Ok(args)
}

/// One run's outcome.
#[derive(Default)]
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    /// Provenance and sample counts, as JSON values.
    notes: BTreeMap<String, String>,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push((name.to_string(), value, unit));
        self.note(&format!("samples.{name}"), samples);
    }

    fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.insert(key.to_string(), value.to_string());
    }

    fn note_str(&mut self, key: &str, value: &str) {
        self.notes
            .insert(key.to_string(), format!("\"{}\"", value.replace('"', "'")));
    }

    fn absorb(&mut self, phase: &PhaseResult) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
        if phase.wrong > 0 {
            self.correct = false;
        }
        if let Some(why) = &phase.first_failure {
            if !self.notes.contains_key("first_failure") {
                self.note_str("first_failure", why);
            }
        }
    }

    fn result_line(&self) -> Result<String, String> {
        let mut metrics = Vec::new();
        for (name, value, unit) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("metric {name} is not a number"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        ))
    }

    fn provenance_line(&self) -> String {
        let fields: Vec<String> = self
            .notes
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{\"provenance\": {{{}}}}}", fields.join(", "))
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Fetch every served record as `asn → class`, page by page.
fn served_classes(conn: &mut Conn) -> Result<HashMap<u32, String>, String> {
    let mut out = HashMap::new();
    let mut offset = 0usize;
    loop {
        let path = format!("/v1/classes?limit=10000&offset={offset}");
        let resp = conn
            .get(&path, Duration::from_secs(10))
            .map_err(|e| format!("{path}: {e}"))?;
        if resp.status != 200 {
            return Err(format!("{path} -> {}", resp.status));
        }
        let total = net::json_u64(&resp.body, "total").ok_or("classes: no total")? as usize;
        let count = net::json_u64(&resp.body, "count").ok_or("classes: no count")? as usize;
        let mut rest = resp.body.as_str();
        while let Some(at) = rest.find("{\"asn\":") {
            rest = &rest[at + 7..];
            let asn: u32 = rest
                .split(',')
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or("classes: bad asn")?;
            let class = rest
                .split("\"class\":\"")
                .nth(1)
                .and_then(|v| v.split('"').next())
                .ok_or("classes: bad class")?;
            out.insert(asn, class.to_string());
        }
        offset += count;
        if count == 0 || offset >= total {
            return Ok(out);
        }
    }
}

/// `/v1/stats` → `(total_events, epoch)`.
fn stats(conn: &mut Conn) -> Result<(u64, u64), String> {
    let resp = conn
        .get("/v1/stats", Duration::from_secs(5))
        .map_err(|e| format!("/v1/stats: {e}"))?;
    if resp.status != 200 {
        return Err(format!("/v1/stats -> {}", resp.status));
    }
    let total = net::json_u64(&resp.body, "total_events").ok_or("stats: no total_events")?;
    let epoch = net::json_u64(&resp.body, "epoch").unwrap_or(0);
    Ok((total, epoch))
}

/// The served classes and event count must equal the batch oracle's.
fn check_state(
    report: &mut Report,
    conn: &mut Conn,
    oracle: &HashMap<u32, String>,
    events: u64,
) -> Result<(), String> {
    let (total, _) = stats(conn)?;
    let served = served_classes(conn)?;
    let mismatched = oracle
        .iter()
        .filter(|(asn, class)| served.get(asn) != Some(class))
        .count()
        + served.keys().filter(|a| !oracle.contains_key(a)).count();
    report.note("check.classified", served.len());
    report.note("check.class_mismatches", mismatched);
    report.note("check.total_events", total);
    if mismatched > 0 || total != events {
        report.correct = false;
        eprintln!(
            "perfbench: state check failed: {mismatched} class mismatches, total_events {total} (sent {events})"
        );
    }
    Ok(())
}

struct Ctx {
    args: Args,
    tmp: PathBuf,
    report: Report,
}

impl Ctx {
    fn path(&self, name: &str) -> PathBuf {
        self.tmp.join(name)
    }

    fn spawn(&self, args: &[String], log: &str) -> Result<Daemon, String> {
        Daemon::spawn(&self.args.daemon, args, &self.path(log))
    }

    /// Write an input file and flush it to disk, so its write-back does
    /// not overlap the measured phase.
    fn write(&self, name: &str, bytes: &[u8]) -> Result<PathBuf, String> {
        let path = self.path(name);
        let err = |e: std::io::Error| format!("{}: {e}", path.display());
        let mut f = std::fs::File::create(&path).map_err(err)?;
        f.write_all(bytes).and_then(|_| f.sync_all()).map_err(err)?;
        Ok(path)
    }

    /// Build the archive `live` boots from: the daemon itself
    /// ingests the RIB into an empty archive and exits.
    fn build_archive(&self, rib: &Path) -> Result<PathBuf, String> {
        let archive = self.path("archive");
        std::fs::create_dir_all(&archive).map_err(|e| e.to_string())?;
        let args = vec![
            "--archive".to_string(),
            archive.display().to_string(),
            rib.display().to_string(),
        ];
        let status = self
            .spawn(&args, "build-archive.log")?
            .wait_exit(CATCH_UP_TIMEOUT)?;
        if !status.success() {
            return Err(format!("archive build: daemon exited {status}"));
        }
        Ok(archive)
    }

    /// A fresh archive directory `name`: empty, or a copy of `template`.
    fn archive_for(&self, name: &str, template: Option<&Path>) -> Result<PathBuf, String> {
        let archive = self.path(name);
        match template {
            Some(t) => copy_dir(t, &archive)?,
            None => std::fs::create_dir_all(&archive).map_err(|e| e.to_string())?,
        }
        Ok(archive)
    }

    fn connections(&self, d: &Daemon) -> Result<Vec<Conn>, String> {
        let n = std::thread::available_parallelism().map_or(1, |n| n.get());
        (0..n)
            .map(|_| Conn::open(d.addr).map_err(|e| format!("connect: {e}")))
            .collect()
    }

    /// Record a base-rate phase; reject the run if the generator lagged.
    fn base_phase(&mut self, phase: &PhaseResult) -> Result<(), String> {
        self.report.absorb(phase);
        let lag_p99 = ms(phase.lag.quantile(0.99).unwrap_or(0));
        let lag_max = ms(phase.lag.max().unwrap_or(0));
        self.report.note("gen_lag_ms.p99", lag_p99);
        self.report.note("gen_lag_ms.max", lag_max);
        self.report.note("samples.gen_lag", phase.lag.len());
        self.report.note("reconnects", phase.reconnects);
        if lag_p99 > LAG_P99_BOUND_MS {
            return Err(format!(
                "generator fell behind: lag p99 {lag_p99:.3} ms > {LAG_P99_BOUND_MS} ms; run rejected"
            ));
        }
        let lat = &phase.latency;
        self.report.note("query_windows", phase.windows.len());
        self.report
            .note("query_windows_stolen", phase.stolen_windows());
        self.report.note(
            "query_p99_us.whole_phase",
            us(lat.quantile(0.99).unwrap_or(0)),
        );
        let p50 = phase.window_quantile(0.5).ok_or("no answered queries")?;
        let p99 = phase
            .window_quantile(0.99)
            .ok_or("too few answers for a p99")?;
        self.report
            .metric("query_p50_us", p50 / 1e3, "us", lat.len());
        self.report
            .metric("query_p99_us", p99 / 1e3, "us", lat.len());
        Ok(())
    }
}

/// The Mix over the daemon's served ASes, time travel on recent epochs.
fn mix_of(conn: &mut Conn) -> Result<Mix, String> {
    let (_, epoch) = stats(conn)?;
    let mut asns: Vec<u32> = served_classes(conn)?.into_keys().collect();
    asns.sort_unstable();
    if asns.is_empty() {
        return Err("daemon serves no ASes".into());
    }
    Ok(Mix {
        asns,
        last_epoch: epoch,
    })
}

/// `bgp_serve_events_ingested_total` from `/metrics`.
fn ingested(conn: &mut Conn) -> Result<u64, String> {
    let resp = conn
        .get("/metrics", Duration::from_secs(5))
        .map_err(|e| format!("/metrics: {e}"))?;
    resp.body
        .lines()
        .find_map(|l| l.strip_prefix("bgp_serve_events_ingested_total "))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| "no bgp_serve_events_ingested_total".to_string())
}

/// `/v1/epochs` `count`: the epochs the archive holds.
fn archived(conn: &mut Conn) -> Result<u64, String> {
    let resp = conn
        .get("/v1/epochs", Duration::from_secs(5))
        .map_err(|e| format!("/v1/epochs: {e}"))?;
    if resp.status != 200 {
        return Err(format!("/v1/epochs -> {}", resp.status));
    }
    net::json_u64(&resp.body, "count").ok_or_else(|| "epochs: no count".to_string())
}

/// Poll every PROBE_PERIOD until `done` holds; returns when it first did.
fn poll_until(
    report: &mut Report,
    d: &Daemon,
    what: &str,
    mut done: impl FnMut() -> Result<bool, String>,
) -> Result<Instant, String> {
    let mut due = Instant::now();
    loop {
        report.attempted += 1;
        if done().inspect_err(|_| report.failed += 1)? {
            return Ok(Instant::now());
        }
        if d.spawned.elapsed() > CATCH_UP_TIMEOUT {
            return Err(format!("{what} did not finish in time"));
        }
        due += PROBE_PERIOD;
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
    }
}

/// One run of either workload. Each of BOOTS daemons is given the RIB
/// and one named pipe per live file. It catches up on the RIB, then
/// takes its share of the arrivals, one pipe every ARRIVAL_INTERVAL,
/// while queries run at the base rate. `replay` (`warm` false) boots on
/// an empty archive and appends every RIB epoch to it. `live` boots on a
/// copy of an archive the daemon built from the RIB beforehand: it
/// restores it before it answers, then backfills the RIB, whose restored
/// epochs are re-derived but not re-published. Every boot is measured,
/// so that one boot's state does not set the run's quantiles.
fn scenario(ctx: &mut Ctx, world: &World, warm: bool) -> Result<(), String> {
    let rib = ctx.write("rib.mrt", &world.rib_mrt)?;
    let template = if warm {
        Some(ctx.build_archive(&rib)?)
    } else {
        None
    };
    // Boots that only time set-up, stopped once they answer.
    let mut setups = Vec::new();
    for i in 0..SETUP_REPS {
        let archive = ctx.archive_for(&format!("setup-{i}"), template.as_deref())?;
        let args = vec![
            "--archive".to_string(),
            archive.display().to_string(),
            rib.display().to_string(),
        ];
        setups.push(ctx.spawn(&args, "setup.log")?.wait_healthy()?.as_secs_f64());
        let _ = std::fs::remove_dir_all(&archive);
    }
    // Arrivals each boot measures, and the pipes it is given: whole
    // segments plus its spares.
    let count = arrivals_per_run(ctx.args.seconds).div_ceil(BOOTS);
    let per_boot = (count.div_ceil(SEGMENT_ARRIVALS) + SPARE_SEGMENTS) * SEGMENT_ARRIVALS;
    let seed = ctx.args.seed;
    let (mut kept, mut segments) = (PhaseResult::default(), Vec::new());
    let (mut rates, mut cpus, mut rss) = (vec![], vec![], vec![]);
    let (mut catch_up_steals, mut steals) = (vec![], vec![]);
    let (mut sent_total, mut discarded) = (0, 0);
    // Every boot is handed the same files, so each segment's files and
    // each oracle are made once per run; only the pipes are per boot.
    let (mut segment_files, mut oracles) = (Vec::new(), HashMap::new());
    for b in 0..BOOTS {
        let archive = ctx.archive_for(&format!("archive-{b}"), template.as_deref())?;
        let first = b * per_boot;
        let pipes: Vec<PathBuf> = (first..first + per_boot)
            .map(|i| ctx.path(&format!("arrival-{i:04}.pipe")))
            .collect();
        let status = Command::new("mkfifo")
            .args(&pipes)
            .status()
            .map_err(|e| format!("mkfifo: {e}"))?;
        if !status.success() {
            return Err(format!("mkfifo exited {status}"));
        }
        // Pipes a boot does not need stay unopened; it is killed.
        let mut args = vec![
            "--archive".to_string(),
            archive.display().to_string(),
            "--linger".to_string(),
            rib.display().to_string(),
        ];
        args.extend(pipes.iter().map(|p| p.display().to_string()));
        let steal = Steal::start();
        let mut d = ctx.spawn(&args, &format!("daemon-{b}.log"))?;
        setups.push(d.wait_healthy()?.as_secs_f64());
        let mut conns = ctx.connections(&d)?;
        // Caught up: on an empty archive, when `total_events` covers the
        // RIB; on a restored one, whose restored epochs count already,
        // when the daemon has ingested the RIB again.
        let conn = &mut conns[0];
        let done = poll_until(&mut ctx.report, &d, "catch-up", || {
            let n = if warm {
                ingested(conn)?
            } else {
                stats(conn)?.0
            };
            Ok(n >= RIB_ENTRIES as u64)
        })?;
        let mut cpu = d.cpu_s()?;
        catch_up_steals.push(steal.pct());
        rates.push(RIB_ENTRIES as f64 / (done - d.spawned).as_secs_f64());
        // Time-travel reads need the RIB's epochs in the archive.
        poll_until(&mut ctx.report, &d, "archive append", || {
            Ok(archived(conn)? >= RIB_EPOCHS as u64)
        })?;
        let mix = mix_of(&mut conns[0])?;
        let stir = seed ^ (b as u64) << 32;
        let warm_up = load::run_phase(&mut conns, &mix, BASE_RATE, WARM_UP, WINDOW, stir, None);
        ctx.report.absorb(&warm_up);

        // The schedule runs in segments of SEGMENT_ARRIVALS files. A
        // segment during which the hypervisor stole more than
        // STEAL_LIMIT_PCT of CPU time is left out of the metrics and
        // replaced by a spare one; its files still count for the state
        // check.
        let (mut sent, mut measured) = (0, 0);
        let mut spare = SPARE_SEGMENTS;
        while measured < count && sent + SEGMENT_ARRIVALS <= pipes.len() {
            let k = sent / SEGMENT_ARRIVALS;
            if segment_files.len() == k {
                segment_files.push(world.live_files(seed, sent..sent + SEGMENT_ARRIVALS)?);
            }
            let base = (RIB_ENTRIES + sent * EPOCH_EVENTS) as u64;
            let mut arrivals = Arrivals::new(
                pipes[sent..sent + SEGMENT_ARRIVALS].to_vec(),
                segment_files[k].0.clone(),
                base,
                EPOCH_EVENTS as u64,
                ARRIVAL_INTERVAL,
            );
            let cpu0 = d.cpu_s()?;
            let steal = Steal::start();
            let span = arrivals.span();
            let phase = load::run_phase(
                &mut conns,
                &mix,
                BASE_RATE,
                span,
                WINDOW,
                stir ^ (sent as u64) << 16,
                Some(&mut arrivals),
            );
            let pct = steal.pct();
            sent += SEGMENT_ARRIVALS;
            if pct > STEAL_LIMIT_PCT && spare > 0 {
                spare -= 1;
                discarded += 1;
                ctx.report.absorb(&phase);
                continue;
            }
            cpu += d.cpu_s()? - cpu0;
            steals.push(pct);
            measured += SEGMENT_ARRIVALS;
            segments.push(phase.freshness.clone());
            kept.append(phase);
        }
        sent_total += sent;
        cpus.push(cpu);
        rss.push(d.peak_rss_mb()?);
        let oracle = oracles.entry(sent).or_insert_with(|| {
            let new_tuples = segment_files[..sent / SEGMENT_ARRIVALS]
                .iter()
                .flat_map(|(_, fresh)| fresh);
            world::oracle(world.rib.iter().chain(new_tuples))
        });
        let events = (RIB_ENTRIES + sent * EPOCH_EVENTS) as u64;
        check_state(&mut ctx.report, &mut conns[0], oracle, events)?;
        drop(conns);
        drop(d);
        let _ = std::fs::remove_dir_all(&archive);
    }
    let r = &mut ctx.report;
    let list: Vec<String> = rates.iter().map(|v| format!("{v:.0}")).collect();
    r.note("events_per_s.each", format!("[{}]", list.join(", ")));
    r.note("catch_up_steal_pct", median(&catch_up_steals));
    r.note("discarded.segments", discarded);
    r.note("host_steal_pct", median(&steals));
    r.note("arrivals_sent", sent_total);
    r.metric("setup_s", median(&setups), "s", setups.len());
    r.metric("events_per_s", median(&rates), "events/s", rates.len());
    r.metric("cpu_s", median(&cpus), "s", cpus.len());
    r.metric("peak_rss_mb", median(&rss), "MB", rss.len());
    ctx.base_phase(&kept)?;
    // Each freshness quantile is the median over the kept segments of the
    // segment's quantile, as the query quantiles are medians over windows:
    // one disturbed stretch moves one segment, not the result. The pooled
    // quantiles are provenance.
    let fresh_ms = &kept.freshness;
    ctx.report.note("fresh_p95_beyond", fresh_ms.beyond(0.95));
    ctx.report.note("fresh_segments", segments.len());
    for (name, q) in [("fresh_p50_ms", 0.5), ("fresh_p95_ms", 0.95)] {
        let per: Vec<f64> = segments
            .iter()
            .filter_map(|s| s.quantile(q))
            .map(ms)
            .collect();
        if per.is_empty() {
            return Err("no arrival became visible".into());
        }
        let pooled = fresh_ms.quantile(q).map_or(0.0, ms);
        ctx.report.note(&format!("{name}.pooled"), pooled);
        ctx.report.metric(name, median(&per), "ms", fresh_ms.len());
    }
    Ok(())
}

/// Copy the regular files of `from` (an archive: flat) into a new `to`.
fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let err = |e: std::io::Error| format!("copy {}: {e}", from.display());
    std::fs::create_dir_all(to).map_err(err)?;
    for entry in std::fs::read_dir(from).map_err(err)? {
        let entry = entry.map_err(err)?;
        if entry.file_type().map_err(err)?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(err)?;
        }
    }
    Ok(())
}

/// Live arrivals a run measures: one every ARRIVAL_INTERVAL.
fn arrivals_per_run(seconds: u64) -> usize {
    (seconds as u128 * 1000 / ARRIVAL_INTERVAL.as_millis()).max(1) as usize
}

fn traced_run(ctx: &mut Ctx, world: &World) -> Result<(), String> {
    let (files, new_tuples) =
        world.live_files(ctx.args.seed, 0..arrivals_per_run(ctx.args.seconds))?;
    let out = traced::run(
        world,
        &files,
        &new_tuples,
        &ctx.tmp,
        &ctx.args.workload,
        ctx.args.seed,
    )?;
    for (phase, n) in &out.mismatches {
        ctx.report.note(&format!("check.{phase}.mismatches"), n);
        if *n > 0 {
            ctx.report.correct = false;
            eprintln!("perfbench: traced {phase}: {n} mismatches against the oracle");
        }
    }
    for (name, value, unit) in out.metrics {
        let n = out.samples.get(&name).copied().unwrap_or(0);
        ctx.report.metric(&name, value, unit, n);
    }
    ctx.report.attempted += 1;
    Ok(())
}

fn run(args: Args) -> Result<Report, String> {
    let tmp = args.work.join(format!(
        "{}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    ));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let mut ctx = Ctx {
        args,
        tmp,
        report: Report {
            correct: true,
            ..Default::default()
        },
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let r = &mut ctx.report;
    r.note_str("workload", &ctx.args.workload);
    r.note("seed", ctx.args.seed);
    r.note("run_seconds", ctx.args.seconds);
    r.note("trace", ctx.args.trace as u8);
    r.note("cores", cores);
    r.note_str("git_rev", &command_line("git", &["rev-parse", "HEAD"]));
    r.note_str("rustc", &command_line("rustc", &["--version"]));
    r.note("rib_entries", RIB_ENTRIES);

    let t = Instant::now();
    let world = World::generate(ctx.args.seed)?;
    ctx.report.note("generate_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let warm = ctx.args.workload == "live";
    let outcome = if ctx.args.trace {
        traced_run(&mut ctx, &world)
    } else {
        scenario(&mut ctx, &world, warm)
    };
    ctx.report.note("measure_s", t.elapsed().as_secs_f64());
    let _ = std::fs::remove_dir_all(&ctx.tmp);
    outcome.map(|()| ctx.report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let results = args.work.join("results");
    let name = format!(
        "{}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    );
    let report = match run(args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let line = match report.result_line() {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let provenance = report.provenance_line();
    if std::fs::create_dir_all(&results).is_ok() {
        let _ = std::fs::write(
            results.join(format!("{name}.json")),
            format!("{provenance}\n{line}\n"),
        );
    }
    println!("{provenance}");
    println!("{line}");
    ExitCode::SUCCESS
}
