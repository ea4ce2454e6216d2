//! The traced run: the workload's request trace replayed sequentially
//! in this process, with a span around every call into a layer's public
//! functions.
//!
//! Per request: `workload.parse`, then `session.answer` (queries) or
//! `session.apply` (updates). A query that misses the result cache is
//! solved a second time, decomposed, under an `attribution` span:
//! `candidates` (compile + `collect_vec`), `rows`
//! (`conflict_bitmaps_cached` against a memo of the server's size), then
//! `bb` (`solve_prepared`) or `dktg` (`solve_with_candidates`).
//! `solve_prepared` rebuilds its conflict rows internally, so a
//! `bb.kernel` span after the attribution repeats that build
//! (`ConflictKernel::build`) and `bb.search_us` subtracts it. An update
//! is mirrored on a `DynamicNlrnl` (`index.update`, `graph.rebuild`)
//! and appended to a scratch write-ahead log (`wal.append`, `wal.sync`),
//! with `persist.checkpoint` at the workload's checkpoint interval.
//!
//! The trace is replayed twice, with spans on and off: the wall-time
//! ratio is `trace.overhead_ratio`, and every count must repeat exactly.
//! A short wire phase then drives an in-process `ktg_cli::serve` server
//! for the `/health` round trip, the server's own p50 and the misses
//! per distinct query.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use ktg_bench::harness::BenchGroup;
use ktg_cli::serve::{start, ServeConfig, WalConfig};
use ktg_core::bb::{self, BbOptions, ConflictKernel};
use ktg_core::serve::{parse_request_line, ItemOutcome, ServeSession, ServeStats, WorkloadItem};
use ktg_core::{candidates, dktg, AttributedGraph, Group, SearchStats};
use ktg_index::wal::{WalSync, WalWriter};
use ktg_index::{
    conflict_bitmaps_cached, DynamicNlrnl, KernelScratch, NeighborhoodCache, NlrnlIndex,
};

use crate::loadgen;
use crate::reference::server_options;
use crate::server::{INDEX_THREADS, WORKERS};
use crate::workload::{Config, Inputs, Kind, Request};
use crate::{percentile, Metric, RunResult};

type Error = Box<dyn std::error::Error>;

/// Set-up repetitions for `index.build_ms` and `persist.load_ms`.
const SETUPS: usize = 3;
/// Request id of spans outside any request (set-up, final checkpoint).
const SETUP: usize = usize::MAX;

/// One recorded span.
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    req: usize,
    /// Classification set after the call (`hit`, `miss`, ...).
    tag: &'static str,
}

/// An in-memory span recorder; with `on` false it only runs the
/// closures.
struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    req: usize,
}

impl Tracer {
    fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's index (`None` when tracing is off).
    fn span<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, Option<usize>) {
        if !self.on {
            return (f(self), None);
        }
        let id = self.spans.len();
        let start = self.now();
        let parent = self.stack.last().copied();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            req: self.req,
            tag: "",
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end = self.now();
        (out, Some(id))
    }

    fn tag(&mut self, id: Option<usize>, tag: &'static str) {
        if let Some(id) = id {
            self.spans[id].tag = tag;
        }
    }
}

/// Everything a replay counts. Two replays of one seed must agree.
#[derive(Debug, Default, PartialEq, Eq)]
struct Counts {
    /// Result-cache hits, misses, subset hits, reclaimed: whole replay.
    cache: [u64; 4],
    /// Result-cache hits and misses after the warm-up.
    timed: [u64; 2],
    rows: [u64; 3],
    ktg_solves: u64,
    bitmap_solves: u64,
    candidates: u64,
    bb: SearchStats,
    dktg_solves: u64,
    dktg: SearchStats,
    failed: u64,
    mismatches: u64,
}

fn delta(before: &ServeStats, after: &ServeStats) -> ([u64; 4], [u64; 3]) {
    (
        [
            after.result_hits - before.result_hits,
            after.result_misses - before.result_misses,
            after.subset_hits - before.subset_hits,
            after.result_reclaimed - before.result_reclaimed,
        ],
        [
            after.row_hits - before.row_hits,
            after.row_misses - before.row_misses,
            after.row_evictions - before.row_evictions,
        ],
    )
}

fn groups_of(outcome: &ItemOutcome) -> Option<&[Group]> {
    match outcome {
        ItemOutcome::Ktg(a) => Some(&a.groups),
        ItemOutcome::Dktg(a) => Some(&a.groups),
        _ => None,
    }
}

/// The server's checkpoint of the session state: bundle to a temp file,
/// sync, rename, then truncate the log.
fn checkpoint(session: &ServeSession, dir: &Path, wal: &mut WalWriter) -> Result<(), Error> {
    let tmp = dir.join("traced-bundle.bin.tmp");
    let net = session.net();
    let mut w = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
    ktg_index::persist::save_bundle(
        net.graph(),
        net.vocab(),
        net.keywords(),
        session.nlrnl_index(),
        &mut w,
    )?;
    w.flush()?;
    let file = w.into_inner().map_err(|e| e.into_error())?;
    file.sync_data()?;
    drop(file);
    std::fs::rename(&tmp, dir.join("traced-bundle.bin"))?;
    wal.truncate()?;
    Ok(())
}

/// One full sequential replay. Returns the counts and the wall time of
/// the request loop.
fn replay(
    cfg: &Config,
    net: &AttributedGraph,
    requests: &[Request],
    measured_from: usize,
    dir: &Path,
    t: &mut Tracer,
) -> Result<(Counts, Duration), Error> {
    // Set-up: index build, bundle save + load, session open.
    t.req = SETUP;
    let mut index: Option<NlrnlIndex> = None;
    for _ in 0..SETUPS {
        index = Some(
            t.span("index.build", |_| {
                NlrnlIndex::build_with_threads(net.graph(), INDEX_THREADS)
            })
            .0,
        );
    }
    let index = index.expect("at least one build");
    let bundle = dir.join("traced-bundle.bin");
    ktg_index::persist::save_bundle(
        net.graph(),
        net.vocab(),
        net.keywords(),
        Some(&index),
        std::io::BufWriter::new(std::fs::File::create(&bundle)?),
    )?;
    let mut loaded = None;
    for _ in 0..SETUPS {
        let file = std::fs::File::open(&bundle)?;
        loaded = Some(
            t.span("persist.load", |_| {
                ktg_index::persist::load_bundle(std::io::BufReader::new(file))
            })
            .0?,
        );
    }
    let loaded = loaded.expect("at least one load");
    let loaded_net = AttributedGraph::with_store(loaded.graph, loaded.vocab, loaded.keywords);
    let mut session = t
        .span("session.new", |_| {
            ServeSession::with_index(loaded_net, server_options(cfg.cache_entries), loaded.index)
        })
        .0;
    let mut mirror = DynamicNlrnl::with_index(net.graph(), index)?;
    let wal_path = dir.join("traced-wal.log");
    let _ = std::fs::remove_file(&wal_path);
    // Append and sync separately; together they are one `always` append.
    let mut wal = WalWriter::create(&wal_path, 0, WalSync::Batch)?;
    let memo = NeighborhoodCache::new(cfg.cache_entries);
    let mut scratch = KernelScratch::default();
    let mut rows = Vec::new();
    let opts = BbOptions {
        threads: 1,
        ..server_options(0).engine
    };

    let mut counts = Counts::default();
    let (mut since_checkpoint, mut checkpoints) = (0, 0);
    let start = session.stats();
    let mut timed_from = start;
    let began = Instant::now();
    for (i, r) in requests.iter().enumerate() {
        if i == measured_from {
            timed_from = session.stats();
        }
        t.req = i;
        let item = t
            .span("request", |t| -> Result<(), Error> {
                let (item, _) = t.span("workload.parse", |_| {
                    parse_request_line(session.net(), i + 1, &r.line)
                });
                let item = item?.ok_or("blank request line")?;
                if !item.is_query() {
                    let (outcome, _) = t.span("session.apply", |_| session.apply_item(&item));
                    if matches!(outcome, ItemOutcome::Failed { .. }) {
                        counts.failed += 1;
                    }
                    let (u, v, insert) = match item {
                        WorkloadItem::Insert(u, v) => (u, v, true),
                        WorkloadItem::Remove(u, v) => (u, v, false),
                        _ => unreachable!("queries handled below"),
                    };
                    t.span("index.update", |_| {
                        if insert {
                            mirror.insert_edge(u, v)
                        } else {
                            mirror.remove_edge(u, v)
                        }
                    })
                    .0?;
                    std::hint::black_box(t.span("graph.rebuild", |_| mirror.graph().to_csr()).0);
                    t.span("wal.append", |_| wal.append(&r.line)).0?;
                    t.span("wal.sync", |_| wal.sync()).0?;
                    since_checkpoint += 1;
                    if cfg.checkpoint_every > 0 && since_checkpoint >= cfg.checkpoint_every {
                        since_checkpoint = 0;
                        checkpoints += 1;
                        t.span("persist.checkpoint", |_| {
                            checkpoint(&session, dir, &mut wal)
                        })
                        .0?;
                    }
                    return Ok(());
                }
                let before = session.stats();
                let (outcome, id) = t.span("session.answer", |_| session.answer_query(&item));
                let hit = session.stats().result_hits > before.result_hits;
                t.tag(id, if hit { "hit" } else { "miss" });
                if matches!(
                    outcome,
                    ItemOutcome::Failed { .. } | ItemOutcome::Overloaded
                ) {
                    counts.failed += 1;
                }
                if hit {
                    return Ok(());
                }
                let snet = session.net();
                let oracle = session
                    .nlrnl_index()
                    .ok_or("session without an NLRNL index")?;
                let epoch = session.epoch();
                let mut probe = None;
                let (groups, _) = t.span("attribution", |t| match &item {
                    WorkloadItem::Ktg(q) => {
                        let (cands, _) = t.span("candidates", |_| {
                            candidates::collect_vec(snet.graph(), &snet.compile(q.keywords()))
                        });
                        counts.ktg_solves += 1;
                        counts.candidates += cands.len() as u64;
                        if ConflictKernel::wants_bitmap(cands.len(), &opts) {
                            counts.bitmap_solves += 1;
                            let sources: Vec<_> = cands.iter().map(|c| c.v).collect();
                            t.span("rows", |_| {
                                conflict_bitmaps_cached(
                                    snet.graph(),
                                    &sources,
                                    q.k(),
                                    &memo,
                                    epoch,
                                    &mut scratch,
                                    &mut rows,
                                )
                            });
                            probe = Some(cands.clone());
                        }
                        let (out, _) =
                            t.span("bb", |_| bb::solve_prepared(snet, q, oracle, cands, &opts));
                        counts.bb.merge(&out.stats);
                        out.groups
                    }
                    WorkloadItem::Dktg(q) => {
                        let (mut cands, _) = t.span("candidates", |_| {
                            candidates::collect_vec(
                                snet.graph(),
                                &snet.compile(q.base().keywords()),
                            )
                        });
                        counts.dktg_solves += 1;
                        let (out, _) = t.span("dktg", |_| {
                            dktg::solve_with_candidates(q, oracle, &mut cands, &opts)
                        });
                        counts.dktg.merge(&out.stats);
                        out.groups
                    }
                    _ => unreachable!("updates returned above"),
                });
                if let (Some(cands), WorkloadItem::Ktg(q)) = (probe, &item) {
                    std::hint::black_box(
                        t.span("bb.kernel", |_| {
                            ConflictKernel::build(snet.graph(), &cands, q.k(), &opts)
                        })
                        .0,
                    );
                }
                if groups_of(&outcome) != Some(groups.as_slice()) {
                    counts.mismatches += 1;
                }
                Ok(())
            })
            .0;
        item?;
    }
    let elapsed = began.elapsed();
    let end = session.stats();
    let (cache, rows) = delta(&start, &end);
    let (timed, _) = delta(&timed_from, &end);
    counts.cache = cache;
    counts.rows = rows;
    counts.timed = [timed[0], timed[1]];
    t.req = SETUP;
    if checkpoints == 0 {
        // One checkpoint of the final state, so the layer is measured
        // on every workload.
        t.span("persist.checkpoint", |_| {
            checkpoint(&session, dir, &mut wal)
        })
        .0?;
    }
    // Ask the last query twice more: the second is a hit on every
    // workload, so the hit path is timed even where the trace has none.
    if let Some(last) = requests.iter().rev().find(|r| r.kind != Kind::Update) {
        let item = parse_request_line(session.net(), 1, &last.line)?.ok_or("blank request line")?;
        session.answer_query(&item);
        let (_, id) = t.span("session.answer", |_| session.answer_query(&item));
        t.tag(id, "hit");
    }
    Ok((counts, elapsed))
}

/// Self time of every span: its duration minus its children's.
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end - s.start).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end - s.start);
        }
    }
    own
}

/// The wire phase against an in-process server.
struct Wire {
    ping_us: f64,
    server_p50_us: f64,
    misses_per_distinct: f64,
    ktg_p50_ms: f64,
}

fn wire_phase(
    cfg: &Config,
    net: &AttributedGraph,
    inputs: &Inputs,
    dir: &Path,
) -> Result<Wire, Error> {
    let wal = cfg.wal.then(|| WalConfig {
        path: dir.join("wire-wal.log"),
        sync: WalSync::Always,
        checkpoint_every: cfg.checkpoint_every,
        bundle: Some(dir.join("wire-bundle.bin")),
    });
    let handle = start(
        net.clone(),
        ServeConfig {
            workers: WORKERS,
            wal,
            options: server_options(cfg.cache_entries),
            ..ServeConfig::default()
        },
    )?;
    let addr = handle.addr();
    let result = (|| -> Result<Wire, Error> {
        // Each server worker serves one connection at a time, so the
        // ping connection closes before the two load connections open.
        let ping = {
            let (mut w, mut r) = loadgen::connect(addr)?;
            let mut group = BenchGroup::new("perfbench_wire");
            group
                .no_output_file()
                .sample_size(2000)
                .warm_up_time(Duration::from_millis(100));
            group.bench("health_rtt", cfg.name, || {
                loadgen::round_trip(&mut w, &mut r, "/health").expect("/health")
            })
        };
        loadgen::warm_up(addr, &inputs.warmup)?;
        let window = &inputs.trace[..cfg.traced_requests.min(inputs.trace.len())];
        let replies = loadgen::collect(addr, window)?;
        let (mut w, mut r) = loadgen::connect(addr)?;
        let stats = crate::server::parse_stats(&loadgen::round_trip(&mut w, &mut r, "/stats")?)?;
        let mut distinct: Vec<&str> = inputs
            .warmup
            .iter()
            .chain(window)
            .filter(|q| q.kind != Kind::Update)
            .map(|q| &*q.line)
            .collect();
        distinct.sort_unstable();
        distinct.dedup();
        let mut ktg: Vec<u64> = window
            .iter()
            .zip(&replies)
            .filter(|(q, _)| q.kind == Kind::Ktg)
            .filter_map(|(_, reply)| reply.latency_ns)
            .collect();
        ktg.sort_unstable();
        Ok(Wire {
            ping_us: ping.median.as_nanos() as f64 / 1e3,
            server_p50_us: stats.get("p50_ns").copied().unwrap_or(0) as f64 / 1e3,
            misses_per_distinct: stats.get("result_misses").copied().unwrap_or(0) as f64
                / distinct.len().max(1) as f64,
            ktg_p50_ms: if ktg.is_empty() {
                0.0
            } else {
                percentile(&ktg, 50.0) as f64 / 1e6
            },
        })
    })();
    handle.shutdown();
    handle.join()?;
    result
}

pub fn run(
    cfg: &Config,
    net: &AttributedGraph,
    inputs: &Inputs,
    dir: &Path,
) -> Result<RunResult, Error> {
    let prefix = cfg.traced_requests.min(inputs.trace.len());
    let requests: Vec<Request> = inputs
        .warmup
        .iter()
        .chain(&inputs.trace[..prefix])
        .cloned()
        .collect();
    let measured_from = inputs.warmup.len();

    let mut on = Tracer::new(true);
    let (counts, traced_wall) = replay(cfg, net, &requests, measured_from, dir, &mut on)?;
    let mut off = Tracer::new(false);
    let (counts_off, plain_wall) = replay(cfg, net, &requests, measured_from, dir, &mut off)?;
    let wire = wire_phase(cfg, net, inputs, dir)?;

    let mut problems = Vec::new();
    if counts != counts_off {
        problems.push(format!(
            "counts differ between two replays: {counts:?} vs {counts_off:?}"
        ));
    }
    if counts.mismatches > 0 {
        problems.push(format!(
            "{} attribution solves disagree with the session's answer",
            counts.mismatches
        ));
    }
    let spans = &on.spans;
    for s in spans {
        if let Some(p) = s.parent {
            if s.start < spans[p].start || s.end > spans[p].end {
                problems.push(format!(
                    "span {} outlasts its parent {}",
                    s.name, spans[p].name
                ));
                break;
            }
        }
    }
    let own = self_times(spans);
    let med = |name: &str, tag: &str, scale: f64| -> f64 {
        let mut v: Vec<u64> = spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name && (tag.is_empty() || s.tag == tag))
            .map(|(_, &t)| t)
            .collect();
        if v.is_empty() {
            return 0.0;
        }
        v.sort_unstable();
        percentile(&v, 50.0) as f64 / scale
    };
    // Coverage of the attribution solve by its layer spans.
    let (mut covered, mut whole) = (0u64, 0u64);
    for (i, s) in spans.iter().enumerate() {
        if s.name == "attribution" {
            whole += s.end - s.start;
            covered += spans
                .iter()
                .skip(i + 1)
                .take_while(|c| c.start < s.end)
                .filter(|c| c.parent == Some(i))
                .map(|c| c.end - c.start)
                .sum::<u64>();
        }
    }
    let coverage = covered as f64 / whole.max(1) as f64;
    println!("attribution coverage by candidates + rows + bb/dktg: {coverage}");
    if whole > 0 && coverage < 0.9 {
        problems.push(format!(
            "layer spans cover only {coverage} of the attribution solves"
        ));
    }
    // bb.search_us: the `bb` span minus the kernel build it repeats.
    let mut search: Vec<u64> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if s.name == "bb" {
            let kernel = spans[i..]
                .iter()
                .take_while(|k| k.req == s.req)
                .find(|k| k.name == "bb.kernel")
                .map_or(0, |k| k.end - k.start);
            search.push((s.end - s.start).saturating_sub(kernel));
        }
    }
    search.sort_unstable();

    let [_, _, subset_hits, reclaimed] = counts.cache;
    let [row_hits, row_misses, row_evictions] = counts.rows;
    let [hits, misses] = counts.timed;
    let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
    if cfg.name == "hot_read" && hit_ratio <= 0.9 {
        problems.push(format!(
            "hot_read cache hit ratio {hit_ratio} is not above 0.9"
        ));
    }
    println!(
        "wire: /health round trip {} us against a KTG p50 of {} ms over the wire",
        wire.ping_us, wire.ktg_p50_ms
    );
    let per = |sum: u64, n: u64| sum as f64 / n.max(1) as f64;
    let bb_s = &counts.bb;
    let metrics = vec![
        Metric {
            name: "wire.ping_rtt_us",
            value: wire.ping_us,
            unit: "us",
        },
        Metric {
            name: "server.p50_us",
            value: wire.server_p50_us,
            unit: "us",
        },
        Metric {
            name: "workload.parse_ns",
            value: med("workload.parse", "", 1.0),
            unit: "ns",
        },
        Metric {
            name: "cache.hit_ratio",
            value: hit_ratio,
            unit: "ratio",
        },
        Metric {
            name: "cache.hit_us",
            value: med("session.answer", "hit", 1e3),
            unit: "us",
        },
        Metric {
            name: "cache.misses_per_distinct",
            value: wire.misses_per_distinct,
            unit: "ratio",
        },
        Metric {
            name: "cache.subset_hits",
            value: subset_hits as f64,
            unit: "count",
        },
        Metric {
            name: "cache.reclaimed",
            value: reclaimed as f64,
            unit: "count",
        },
        Metric {
            name: "session.miss_us",
            value: med("session.answer", "miss", 1e3),
            unit: "us",
        },
        Metric {
            name: "session.apply_us",
            value: med("session.apply", "", 1e3),
            unit: "us",
        },
        Metric {
            name: "candidates.collect_us",
            value: med("candidates", "", 1e3),
            unit: "us",
        },
        Metric {
            name: "candidates.per_query",
            value: per(counts.candidates, counts.ktg_solves),
            unit: "count",
        },
        Metric {
            name: "rows.build_us",
            value: med("rows", "", 1e3),
            unit: "us",
        },
        Metric {
            name: "rows.memo_hit_ratio",
            value: row_hits as f64 / (row_hits + row_misses).max(1) as f64,
            unit: "ratio",
        },
        Metric {
            name: "rows.bfs_misses",
            value: row_misses as f64,
            unit: "count",
        },
        Metric {
            name: "rows.evictions",
            value: row_evictions as f64,
            unit: "count",
        },
        Metric {
            name: "rows.bitmap_share",
            value: per(counts.bitmap_solves, counts.ktg_solves),
            unit: "ratio",
        },
        Metric {
            name: "bb.search_us",
            value: if search.is_empty() {
                0.0
            } else {
                percentile(&search, 50.0) as f64 / 1e3
            },
            unit: "us",
        },
        Metric {
            name: "bb.nodes",
            value: per(bb_s.nodes, counts.ktg_solves),
            unit: "count",
        },
        Metric {
            name: "bb.keyword_pruned",
            value: per(bb_s.keyword_pruned, counts.ktg_solves),
            unit: "count",
        },
        Metric {
            name: "bb.kline_filtered",
            value: per(bb_s.kline_filtered, counts.ktg_solves),
            unit: "count",
        },
        Metric {
            name: "bb.distance_checks",
            value: per(bb_s.distance_checks, counts.ktg_solves),
            unit: "count",
        },
        Metric {
            name: "bb.pruned_share",
            value: (bb_s.keyword_pruned + bb_s.feasibility_cuts) as f64 / bb_s.nodes.max(1) as f64,
            unit: "ratio",
        },
        Metric {
            name: "dktg.solve_us",
            value: med("dktg", "", 1e3),
            unit: "us",
        },
        Metric {
            name: "dktg.nodes",
            value: per(counts.dktg.nodes, counts.dktg_solves),
            unit: "count",
        },
        Metric {
            name: "dktg.distance_checks",
            value: per(counts.dktg.distance_checks, counts.dktg_solves),
            unit: "count",
        },
        Metric {
            name: "index.build_ms",
            value: med("index.build", "", 1e6),
            unit: "ms",
        },
        Metric {
            name: "index.update_us",
            value: med("index.update", "", 1e3),
            unit: "us",
        },
        Metric {
            name: "graph.rebuild_us",
            value: med("graph.rebuild", "", 1e3),
            unit: "us",
        },
        Metric {
            name: "persist.load_ms",
            value: med("persist.load", "", 1e6),
            unit: "ms",
        },
        Metric {
            name: "persist.checkpoint_ms",
            value: med("persist.checkpoint", "", 1e6),
            unit: "ms",
        },
        Metric {
            name: "wal.append_us",
            value: med("wal.append", "", 1e3),
            unit: "us",
        },
        Metric {
            name: "wal.sync_us",
            value: med("wal.sync", "", 1e3),
            unit: "us",
        },
        Metric {
            name: "trace.overhead_ratio",
            value: traced_wall.as_secs_f64() / plain_wall.as_secs_f64(),
            unit: "ratio",
        },
    ];
    write_spans(cfg, dir, spans)?;
    Ok(RunResult {
        metrics,
        problems,
        attempted: requests.len(),
        failed: counts.failed as usize,
    })
}

/// Writes the spans as TSV next to the run's other outputs.
fn write_spans(cfg: &Config, dir: &Path, spans: &[Span]) -> Result<(), Error> {
    let out = dir
        .parent()
        .ok_or("no output directory")?
        .join(format!("{}.spans.tsv", cfg.name));
    let mut w = std::io::BufWriter::new(std::fs::File::create(out)?);
    writeln!(w, "id\treq\tparent\tname\ttag\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
        writeln!(
            w,
            "{i}\t{}\t{parent}\t{}\t{}\t{}\t{}",
            s.req, s.name, s.tag, s.start, s.end
        )?;
    }
    w.flush()?;
    Ok(())
}
