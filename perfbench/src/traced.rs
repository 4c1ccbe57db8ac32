//! The traced run: the public functions of each layer called in process,
//! on the same seeded inputs the daemon gets, with a span around every
//! call. Spans live in memory and are written out when the run ends.
//!
//! Sequence (the same for every workload):
//! * `replay` — the RIB through `MrtSource::next_batch` (bgp-mrt), then
//!   per epoch `StreamPipeline::push_batch` under a manual epoch policy,
//!   `seal_epoch` (bgp-stream, with bgp-infer's compiled engine inside),
//!   `Publisher::sync` (bgp-serve) and `ArchiveWriter::append_epoch`
//!   (bgp-archive);
//! * `restore` — `Archive::open` + `restore_latest`, as the daemon boots;
//! * `live` — every live update file, one epoch each, on the same stack;
//! * `shards1` — replay and live again at `shards: 1`, timing the seals;
//! * `serve` — an in-process `HttpServer` whose handler wraps `Api` and
//!   times `Api::poll`, queried with the mix over one connection.
//!
//! The latest sealed epoch after each ingest phase is checked against the
//! batch oracle, so a traced run of a broken seal reports `correct: false`.

use crate::load::{Mix, Route};
use crate::net::Conn;
use crate::stats::Samples;
use crate::world::{self, World, EPOCH_EVENTS, RIB_ENTRIES};
use bgp_archive::prelude::{Archive, ArchiveWriter, SegmentStats};
use bgp_bench::Rng;
use bgp_infer::counters::Thresholds;
use bgp_serve::prelude::*;
use bgp_stream::epoch::{EpochPolicy, EpochSnapshot};
use bgp_stream::ingest::{MrtSource, StreamEvent, TupleSource};
use bgp_stream::pipeline::{StreamConfig, StreamPipeline};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Flip-log capacity the daemon runs with (its ingest default).
const FLIP_LOG_CAP: usize = 100_000;
/// Requests of the in-process serve phase.
const SERVE_REQUESTS: usize = 4_000;
/// Decode pull size: the daemon's default `-b`.
const BATCH: usize = 1_024;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// In-memory span recorder. When off, calls run untimed.
pub struct Tracer {
    on: bool,
    run: u64,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, run: u64) -> Tracer {
        Tracer {
            on,
            run,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    fn under(&self, mut i: usize, phase: &str) -> bool {
        while let Some(p) = self.spans[i].parent {
            if self.spans[p].name == phase {
                return true;
            }
            i = p;
        }
        false
    }

    /// Add an already-timed span (times relative to this tracer's origin)
    /// under the innermost open span.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if self.on {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: self.open.last().copied(),
            });
        }
    }

    /// Durations (ns) of the spans named `name` inside phase `phase`.
    pub fn durations(&self, phase: &str, name: &str) -> Samples {
        let mut out = Samples::default();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name && self.under(i, phase) {
                out.push(s.end_ns - s.start_ns);
            }
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"run\":{},\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}\n",
                self.run, s.name, s.start_ns, s.end_ns
            ));
        }
        let mut f = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        f.write_all(out.as_bytes())
            .and_then(|_| f.flush())
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Counts taken at the layer boundaries of one ingest phase.
#[derive(Debug, Default, Clone, Copy)]
struct PhaseCounts {
    events: u64,
    duplicates: u64,
    replayed_steps: u64,
    total_steps: u64,
    epochs: u64,
    archive_bytes: u64,
}

/// The pipeline, publisher and archive the daemon's sealer thread owns,
/// configured as the daemon configures them but sealed by hand.
struct Stack {
    pipeline: StreamPipeline,
    publisher: Option<Publisher>,
    writer: Option<ArchiveWriter>,
    /// Replayed and total (shard, step) units over every seal so far.
    steps: (u64, u64),
}

fn daemon_stream_config(shards: usize) -> StreamConfig {
    StreamConfig {
        shards,
        epoch: EpochPolicy::manual(),
        thresholds: Thresholds::default(),
        compact_history: true,
        trace: Some(Arc::new(obs::trace::TraceStore::new(256))),
        ..Default::default()
    }
}

impl Stack {
    fn new(shards: usize, archive: Option<&Path>) -> Result<Stack, String> {
        let writer = archive
            .map(|dir| {
                ArchiveWriter::open(dir).map_err(|e| format!("archive {}: {e}", dir.display()))
            })
            .transpose()?;
        let publisher = writer.as_ref().map(|_| {
            Publisher::new(
                Arc::new(SnapshotSlot::new(Thresholds::default())),
                FLIP_LOG_CAP,
            )
        });
        Ok(Stack {
            pipeline: StreamPipeline::new(daemon_stream_config(shards)),
            publisher,
            writer,
            steps: (0, 0),
        })
    }

    fn counts(&self, archive_dir: Option<&Path>) -> PhaseCounts {
        PhaseCounts {
            events: self.pipeline.total_events(),
            duplicates: self.pipeline.duplicates(),
            replayed_steps: self.steps.0,
            total_steps: self.steps.1,
            epochs: self.pipeline.snapshots().len() as u64,
            archive_bytes: archive_dir.map_or(0, dir_bytes),
        }
    }

    /// Decode `bytes` one epoch at a time and push, seal, publish and
    /// archive each epoch under spans inside `phase`.
    fn ingest(
        &mut self,
        tr: &mut Tracer,
        phase: &'static str,
        decode_span: &'static str,
        files: &[&[u8]],
        archive_dir: Option<&Path>,
    ) -> Result<PhaseCounts, String> {
        let before = self.counts(archive_dir);
        tr.span(phase, |tr| -> Result<(), String> {
            for bytes in files {
                self.ingest_file(tr, decode_span, bytes)?;
            }
            Ok(())
        })?;
        let after = self.counts(archive_dir);
        Ok(PhaseCounts {
            events: after.events - before.events,
            duplicates: after.duplicates - before.duplicates,
            replayed_steps: after.replayed_steps - before.replayed_steps,
            total_steps: after.total_steps - before.total_steps,
            epochs: after.epochs - before.epochs,
            archive_bytes: after.archive_bytes - before.archive_bytes,
        })
    }

    fn ingest_file(
        &mut self,
        tr: &mut Tracer,
        decode_span: &'static str,
        bytes: &[u8],
    ) -> Result<(), String> {
        let mut source = MrtSource::new(bytes);
        loop {
            let mut events: Vec<StreamEvent> = Vec::with_capacity(EPOCH_EVENTS);
            while events.len() < EPOCH_EVENTS {
                let want = (EPOCH_EVENTS - events.len()).min(BATCH);
                let batch = tr.span(decode_span, |_| source.next_batch(want));
                let batch = batch.map_err(|e| format!("decode: {e}"))?;
                if batch.is_empty() {
                    break;
                }
                events.extend(batch);
            }
            if events.is_empty() {
                return Ok(());
            }
            tr.span("stream.push_batch", |_| self.pipeline.push_batch(events));
            tr.span("stream.seal_epoch", |_| {
                self.pipeline.seal_epoch();
            });
            let (replayed, total) = self.pipeline.last_replay();
            self.steps.0 += replayed as u64;
            self.steps.1 += total as u64;
            if let Some(publisher) = self.publisher.as_mut() {
                let pipeline = &self.pipeline;
                tr.span("serve.publisher_sync", |_| publisher.sync(pipeline));
            }
            if let Some(writer) = self.writer.as_mut() {
                let sealed = Arc::clone(self.pipeline.latest().expect("sealed epoch"));
                let stats = SegmentStats {
                    duplicates: self.pipeline.duplicates(),
                    interned_asns: self.pipeline.interned_asns() as u64,
                    arena_hops: self.pipeline.arena_hops() as u64,
                    replayed_steps: replayed as u64,
                    total_steps: total as u64,
                    shard_loads: self
                        .pipeline
                        .shard_loads()
                        .iter()
                        .map(|&n| n as u64)
                        .collect(),
                };
                tr.span("archive.append_epoch", |_| {
                    writer.append_epoch(&sealed, &stats)
                })
                .map_err(|e| format!("archive append: {e}"))?;
            }
        }
    }
}

/// Bytes of every regular file directly in `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The daemon's `Api` behind a handler that times each dispatch.
struct TimedApi {
    api: Api,
    origin: Instant,
    start_ns: AtomicU64,
    end_ns: AtomicU64,
}

impl TimedApi {
    fn timed<T>(&self, f: impl FnOnce(&Api) -> T) -> T {
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f(&self.api);
        self.end_ns
            .store(self.origin.elapsed().as_nanos() as u64, Ordering::SeqCst);
        self.start_ns.store(start, Ordering::SeqCst);
        out
    }
}

impl Handler for TimedApi {
    fn handle(&self, request: &Request) -> Response {
        self.timed(|api| api.handle(request))
    }

    fn poll(&self, request: &Request) -> Dispatch {
        self.timed(|api| api.poll(request))
    }
}

/// Handler and transport times of the in-process serve phase, ns.
#[derive(Default)]
struct ServeTimes {
    handler: BTreeMap<&'static str, Samples>,
    transport: Samples,
}

fn serve_phase(
    tr: &mut Tracer,
    restored: &Arc<ServeSnapshot>,
    archive: &Path,
    seed: u64,
) -> Result<ServeTimes, String> {
    let slot = Arc::new(SnapshotSlot::new(Thresholds::default()));
    slot.publish(Arc::clone(restored));
    let history = HistoryStore::open(
        archive,
        bgp_serve::history::DEFAULT_CACHE_CAPACITY,
        FLIP_LOG_CAP,
    )
    .map_err(|e| format!("history: {e}"))?;
    let api = Api::new(slot, Arc::new(Metrics::new()))
        .with_health(Arc::new(HealthState::default()))
        .with_history(Arc::new(history));
    let timed = Arc::new(TimedApi {
        api,
        origin: tr.origin,
        start_ns: AtomicU64::new(0),
        end_ns: AtomicU64::new(0),
    });
    let server = HttpServer::start(
        HttpConfig {
            addr: "127.0.0.1:0".to_string(),
            ..Default::default()
        },
        Arc::clone(&timed) as Arc<dyn Handler>,
    )
    .map_err(|e| format!("in-process server: {e}"))?;
    let mix = Mix {
        asns: restored.records.iter().map(|r| r.asn.0).collect(),
        last_epoch: restored.epoch_id().unwrap_or(0),
    };
    let mut rng = Rng(seed | 1);
    let result = (|| -> Result<ServeTimes, String> {
        let mut conn = Conn::open(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        let mut times = ServeTimes::default();
        tr.span("serve", |tr| {
            for _ in 0..SERVE_REQUESTS {
                let route: Route = mix.pick(&mut rng);
                let t0 = Instant::now();
                let resp = tr.span("serve.request", |tr| {
                    let resp = conn.get(&route.path(), Duration::from_secs(5));
                    let (start, end) = (
                        timed.start_ns.load(Ordering::SeqCst),
                        timed.end_ns.load(Ordering::SeqCst),
                    );
                    tr.record("serve.api_poll", start, end);
                    resp.map(|r| (r, end - start))
                });
                let rtt = t0.elapsed().as_nanos() as u64;
                let (resp, handler_ns) = resp.map_err(|e| format!("{}: {e}", route.path()))?;
                if !route.check(&resp) {
                    return Err(format!("{} -> {}", route.path(), resp.status));
                }
                times
                    .handler
                    .entry(route.label())
                    .or_default()
                    .push(handler_ns);
                times.transport.push(rtt.saturating_sub(handler_ns));
            }
            Ok(())
        })?;
        Ok(times)
    })();
    server.shutdown();
    result
}

/// What the traced sequence counted besides its spans.
struct SequenceCounts {
    replay: PhaseCounts,
    live: PhaseCounts,
    serve: ServeTimes,
    /// The latest sealed epoch after each ingest phase, by phase name.
    sealed: Vec<(&'static str, Arc<EpochSnapshot>)>,
}

fn latest(stack: &Stack) -> Result<Arc<EpochSnapshot>, String> {
    stack
        .pipeline
        .latest()
        .cloned()
        .ok_or_else(|| "no sealed epoch".to_string())
}

/// ASes whose class in `sealed` differs from the oracle's (or that only
/// one side classifies), plus one if its event count is not `events`.
fn mismatches(sealed: &EpochSnapshot, oracle: &HashMap<u32, String>, events: u64) -> usize {
    let Some(outcome) = sealed.outcome() else {
        return oracle.len().max(1);
    };
    let served: HashMap<u32, String> = bgp_infer::db::records(outcome)
        .into_iter()
        .map(|r| (r.asn.0, r.class.as_str()))
        .collect();
    oracle
        .iter()
        .filter(|(asn, class)| served.get(asn) != Some(class))
        .count()
        + served.keys().filter(|a| !oracle.contains_key(a)).count()
        + usize::from(sealed.total_events != events)
}

fn sequence(
    tr: &mut Tracer,
    world: &World,
    live: &[&[u8]],
    dir: &Path,
    seed: u64,
) -> Result<SequenceCounts, String> {
    let _ = std::fs::remove_dir_all(dir);
    let archive = dir.join("archive");
    std::fs::create_dir_all(&archive).map_err(|e| format!("{}: {e}", archive.display()))?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut stack = Stack::new(cores, Some(&archive))?;
    let replay = stack.ingest(
        tr,
        "replay",
        "mrt.next_batch.rib",
        &[&world.rib_mrt],
        Some(&archive),
    )?;
    let mut sealed = vec![("replay", latest(&stack)?)];
    let restored = tr.span("restore", |tr| -> Result<Arc<ServeSnapshot>, String> {
        let mut restored = None;
        for _ in 0..5 {
            restored = tr.span("archive.restore", |_| {
                let a = Archive::open(&archive).map_err(|e| format!("archive open: {e}"))?;
                restore_latest(&a, FLIP_LOG_CAP).map_err(|e| format!("restore: {e}"))
            })?;
        }
        restored.ok_or_else(|| "archive restored nothing".to_string())
    })?;
    let live_counts = stack.ingest(tr, "live", "mrt.next_batch.update", live, Some(&archive))?;
    sealed.push(("live", latest(&stack)?));
    drop(stack);

    let mut single = Stack::new(1, None)?;
    single.ingest(
        tr,
        "shards1.replay",
        "mrt.next_batch.rib",
        &[&world.rib_mrt],
        None,
    )?;
    sealed.push(("shards1.replay", latest(&single)?));
    single.ingest(tr, "shards1.live", "mrt.next_batch.update", live, None)?;
    sealed.push(("shards1.live", latest(&single)?));
    drop(single);

    let serve = serve_phase(tr, &restored, &archive, seed)?;
    Ok(SequenceCounts {
        replay,
        live: live_counts,
        serve,
        sealed,
    })
}

/// Per-layer metrics of one traced run: `(name, value, unit)`, plus the
/// sample count behind each.
pub struct TracedResult {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub samples: BTreeMap<String, usize>,
    /// Class and event-count mismatches of the sealed epochs against the
    /// batch oracle, by phase.
    pub mismatches: Vec<(&'static str, usize)>,
}

/// Run the sequence with spans off, then on, and derive the per-layer
/// metrics; the workload picks which ingest phase the stream, publish
/// and archive metrics describe (`live` → the live files, else the RIB).
/// The traced sequence's sealed epochs are checked against the batch
/// oracle over the RIB, and over the RIB plus `new_tuples` (the live
/// files' tuples the RIB does not hold).
pub fn run(
    world: &World,
    live: &[Vec<u8>],
    new_tuples: &[bgp_types::prelude::PathCommTuple],
    work: &Path,
    workload: &str,
    seed: u64,
) -> Result<TracedResult, String> {
    let live: Vec<&[u8]> = live.iter().map(Vec::as_slice).collect();
    let rib_oracle = world::oracle(&world.rib);
    let live_oracle = world::oracle(world.rib.iter().chain(new_tuples));
    let live_events = (RIB_ENTRIES + live.len() * EPOCH_EVENTS) as u64;
    let dir = work.join("traced");
    let t = Instant::now();
    sequence(&mut Tracer::new(false, seed), world, &live, &dir, seed)?;
    let off_s = t.elapsed().as_secs_f64();
    let mut tr = Tracer::new(true, seed);
    let t = Instant::now();
    let counts = sequence(&mut tr, world, &live, &dir, seed)?;
    let on_s = t.elapsed().as_secs_f64();
    tr.write(&work.join(format!("spans-{workload}-seed{seed}.jsonl")))?;
    let _ = std::fs::remove_dir_all(&dir);

    let (phase, phase1, pc) = if workload == "live" {
        ("live", "shards1.live", counts.live)
    } else {
        ("replay", "shards1.replay", counts.replay)
    };
    let mut out = TracedResult {
        metrics: Vec::new(),
        samples: BTreeMap::new(),
        mismatches: counts
            .sealed
            .iter()
            .map(|(phase, sealed)| {
                let n = if phase.ends_with("replay") {
                    mismatches(sealed, &rib_oracle, RIB_ENTRIES as u64)
                } else {
                    mismatches(sealed, &live_oracle, live_events)
                };
                (*phase, n)
            })
            .collect(),
    };
    let mut put = |name: &str, value: f64, unit: &'static str, n: usize| {
        out.metrics.push((name.to_string(), value, unit));
        out.samples.insert(name.to_string(), n);
    };
    let per_event = |s: &Samples, events: u64| s.sum() as f64 / events.max(1) as f64;
    let q = |s: &Samples, q: f64, scale: f64| s.quantile(q).unwrap_or(0) as f64 / scale;

    let rib = tr.durations("replay", "mrt.next_batch.rib");
    put(
        "mrt.decode_ns_per_event.rib",
        per_event(&rib, counts.replay.events),
        "ns",
        rib.len(),
    );
    let upd = tr.durations("live", "mrt.next_batch.update");
    put(
        "mrt.decode_ns_per_event.update",
        per_event(&upd, counts.live.events),
        "ns",
        upd.len(),
    );
    let push = tr.durations(phase, "stream.push_batch");
    put(
        "stream.push_ns_per_event",
        per_event(&push, pc.events),
        "ns",
        push.len(),
    );
    put(
        "stream.dup_ratio",
        pc.duplicates as f64 / pc.events.max(1) as f64,
        "count",
        pc.events as usize,
    );
    let seal = tr.durations(phase, "stream.seal_epoch");
    put("stream.seal_ms_p50", q(&seal, 0.5, 1e6), "ms", seal.len());
    put("stream.seal_ms_p95", q(&seal, 0.95, 1e6), "ms", seal.len());
    put(
        "stream.replayed_step_ratio",
        pc.replayed_steps as f64 / pc.total_steps.max(1) as f64,
        "count",
        pc.total_steps as usize,
    );
    let seal1 = tr.durations(phase1, "stream.seal_epoch");
    put(
        "stream.seal_ms_p50.shards1",
        q(&seal1, 0.5, 1e6),
        "ms",
        seal1.len(),
    );
    let publish = tr.durations(phase, "serve.publisher_sync");
    put(
        "serve.publish_us_p50",
        q(&publish, 0.5, 1e3),
        "us",
        publish.len(),
    );
    let append = tr.durations(phase, "archive.append_epoch");
    put(
        "archive.append_ms_p50",
        q(&append, 0.5, 1e6),
        "ms",
        append.len(),
    );
    put(
        "archive.bytes_per_epoch",
        pc.archive_bytes as f64 / pc.epochs.max(1) as f64,
        "bytes",
        pc.epochs as usize,
    );
    let restore = tr.durations("restore", "archive.restore");
    put(
        "archive.restore_ms",
        q(&restore, 0.5, 1e6),
        "ms",
        restore.len(),
    );
    for route in ["class", "classes", "flips", "healthz", "class_epoch"] {
        let s = counts.serve.handler.get(route).cloned().unwrap_or_default();
        put(
            &format!("serve.handler_us_p50.{route}"),
            q(&s, 0.5, 1e3),
            "us",
            s.len(),
        );
    }
    let transport = &counts.serve.transport;
    put(
        "serve.transport_us_p50",
        q(transport, 0.5, 1e3),
        "us",
        transport.len(),
    );
    put("trace.overhead_ratio", (on_s - off_s) / off_s, "ratio", 2);
    Ok(out)
}
