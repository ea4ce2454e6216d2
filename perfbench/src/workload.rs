//! Workload definitions and seeded input generation.
//!
//! Every workload is an SBM `modular` graph with Zipf keyword profiles
//! and queries at the paper's Table I midpoints (`p=3, k=2, |W_Q|=6,
//! N=5, γ=0.5`). The server only ever sees the generated text files and
//! request lines.

use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;

use ktg_common::{Result, SeededRng, VertexId};
use ktg_core::AttributedGraph;
use ktg_datasets::keywords::{assign_zipf, KeywordModel};
use ktg_datasets::sbm::{planted_partition, SbmParams};
use ktg_datasets::{zipf_indices, QueryGen};
use ktg_graph::{Adjacency, DynamicGraph};

const P: usize = 3;
const K: u32 = 2;
const WQ: usize = 6;
const N: usize = 5;
const GAMMA: &str = "0.5";
/// Vertices of every workload's graph.
const VERTICES: usize = 400;
/// Skew of every Zipf-drawn query stream.
const ZIPF_S: f64 = 1.1;
/// Seed of the dataset: the graph, the keyword profiles, and
/// `cold_solve`'s update edges and query pools. It is fixed, so every
/// run of a workload serves the same network; `--seed` draws
/// `hot_read`'s queries and the order of every trace. Per-seed networks
/// made solve costs differ by up to 2x between seeds.
const DATASET_SEED: u64 = 2023;
/// `hot_read`'s trace runs in segments of this many requests: five
/// KTG-only segments, then one of DKTG lines in its first half and
/// idempotent updates in its second, and again.
const SEGMENT: usize = 1000;
/// `hot_read` trace requests per second of the run: more than the
/// closed loop completes, so the trace outlasts the timed window.
const HOT_PER_SECOND: usize = 120_000;
/// `cold_solve`'s KTG and DKTG pools. A run cycles through each several
/// times, so every run solves nearly the same queries: with a fresh
/// query per request, per-seed query sets moved the KTG CPU median by
/// up to 0.35 between seeds.
const COLD_KTG: usize = 128;
const COLD_DKTG: usize = 32;
/// `cold_solve` rewires this many edge pairs, then undoes them in
/// reverse order, and again: a run sees the same updates whatever its
/// length. A rewire sequence that ran on as long as the run did moved
/// the update CPU median with the run's length, by up to 0.2.
const COLD_REWIRES: usize = 16;

/// What a request line asks the server to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    Ktg,
    Dktg,
    Update,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Ktg, Kind::Dktg, Kind::Update];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Ktg => "ktg",
            Kind::Dktg => "dktg",
            Kind::Update => "update",
        }
    }
}

/// One request of the trace.
#[derive(Clone, Debug)]
pub struct Request {
    /// Connection index (0 or 1) in the warm-up; the timed trace runs
    /// on one connection.
    pub conn: usize,
    pub kind: Kind,
    /// Shared: the pools' lines recur throughout a trace.
    pub line: Arc<str>,
}

/// A workload's fixed configuration: server flags and trace.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    pub name: &'static str,
    /// Whether the trace's updates change the topology. When they do
    /// not, every request line has one answer whatever precedes it.
    pub rewires: bool,
    pub cache_entries: usize,
    /// Whether the server runs with `--wal` (sync policy `always`).
    pub wal: bool,
    pub checkpoint_every: u64,
    /// Requests the traced run replays after the warm-up (a fixed
    /// prefix of the trace, so its counts repeat exactly for one seed).
    pub traced_requests: usize,
    /// The longest run of same-kind requests whose server CPU time the
    /// timed loop reads as one: long where a request costs microseconds
    /// (each read waits for the server to go idle), 1 where it costs
    /// milliseconds and costs differ from query to query.
    pub cpu_block: usize,
    /// Requests the timed loop writes at once before it reads their
    /// replies. Where a request costs microseconds, one at a time would
    /// make the server sleep and wake for each, and the wake-ups, not
    /// the request path, would set its CPU time (the per-block values
    /// of one run then ranged over 2.5x).
    pub pipeline: usize,
}

pub const WORKLOADS: [Config; 2] = [
    Config {
        name: "hot_read",
        rewires: false,
        cache_entries: 8192,
        wal: false,
        checkpoint_every: 0,
        traced_requests: 20_000,
        cpu_block: 250,
        pipeline: 50,
    },
    Config {
        name: "cold_solve",
        rewires: true,
        cache_entries: 64,
        wal: true,
        checkpoint_every: 25,
        traced_requests: 240,
        cpu_block: 1,
        pipeline: 1,
    },
];

pub fn config(name: &str) -> Option<Config> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Everything generated from one seed.
pub struct Inputs {
    /// Untimed requests sent before the timed window: a closed loop per
    /// connection, the two running at the same time.
    pub warmup: Vec<Request>,
    /// The timed trace, one closed loop: a list longer than any run
    /// consumes.
    pub trace: Vec<Request>,
}

/// Writes the network as the text files `ktg index` reads.
pub fn write_network(dir: &Path) -> Result<()> {
    let graph = planted_partition(&SbmParams::modular(VERTICES, 8), DATASET_SEED);
    let (vocab, vk) = assign_zipf(VERTICES, &KeywordModel::default(), DATASET_SEED ^ 0x515F);
    ktg_graph::io::write_edge_list(&graph, std::fs::File::create(dir.join("edges.txt"))?)?;
    ktg_keywords::io::write_keywords(
        &vocab,
        &vk,
        std::fs::File::create(dir.join("keywords.txt"))?,
    )?;
    Ok(())
}

/// Reads the network back exactly as the server's loader does, so term
/// ids and vertex ids agree with the server's.
pub fn read_network(dir: &Path) -> Result<AttributedGraph> {
    let loaded = ktg_graph::io::read_edge_list(std::fs::File::open(dir.join("edges.txt"))?)?;
    let n = loaded.graph.num_vertices();
    let (vocab, vk) =
        ktg_keywords::io::read_keywords(n, std::fs::File::open(dir.join("keywords.txt"))?)?;
    Ok(AttributedGraph::new(loaded.graph, vocab, vk))
}

/// `count` query lines of one kind with distinct keyword sets.
fn distinct_pool(
    net: &AttributedGraph,
    gen: &mut QueryGen,
    count: usize,
    kind: Kind,
) -> Result<Vec<Arc<str>>> {
    let mut seen = HashSet::new();
    let mut pool = Vec::with_capacity(count);
    while pool.len() < count {
        let q = gen.query(WQ)?;
        let mut key: Vec<u32> = q.ids().iter().map(|k| k.0).collect();
        key.sort_unstable();
        if seen.insert(key) {
            let terms: Vec<&str> = q.ids().iter().map(|&id| net.vocab().term(id)).collect();
            let terms = terms.join(",");
            let line = match kind {
                Kind::Dktg => format!("dktg terms={terms} p={P} k={K} n={N} gamma={GAMMA}"),
                _ => format!("ktg terms={terms} p={P} k={K} n={N}"),
            };
            pool.push(line.into());
        }
    }
    Ok(pool)
}

/// A rewire pair of topology-changing updates: remove an existing edge
/// `{u, v}`, then insert a missing edge `{u, w}`. `mirror` tracks the
/// graph so every update really changes it.
fn rewire_pair(mirror: &mut DynamicGraph, rng: &mut SeededRng) -> [String; 2] {
    let n = mirror.num_vertices();
    loop {
        let u = VertexId::new(rng.gen_range(0..n));
        let deg = mirror.degree(u);
        if deg < 2 {
            continue;
        }
        let v = mirror.neighbors(u)[rng.gen_range(0..deg)];
        let w = VertexId::new(rng.gen_range(0..n));
        if w == u || mirror.has_edge(u, w) {
            continue;
        }
        mirror.remove_edge(u, v).expect("edge of the mirror");
        mirror.insert_edge(u, w).expect("valid vertex pair");
        return [
            format!("remove {} {}", u.0, v.0),
            format!("insert {} {}", u.0, w.0),
        ];
    }
}

/// An update that leaves the topology as it is: re-inserting an
/// existing edge or removing an absent one. The server answers `no-op`,
/// bumps no epoch and keeps its caches.
fn idempotent_update(graph: &impl Adjacency, rng: &mut SeededRng, insert: bool) -> String {
    let n = graph.num_vertices();
    loop {
        let u = VertexId::new(rng.gen_range(0..n));
        let mut nbrs = Vec::new();
        graph.for_each_neighbor(u, |v| nbrs.push(v));
        if insert {
            if let Some(&v) = nbrs.get(rng.gen_range(0..nbrs.len().max(1))) {
                return format!("insert {} {}", u.0, v.0);
            }
        } else {
            let w = VertexId::new(rng.gen_range(0..n));
            if w != u && !nbrs.contains(&w) {
                return format!("remove {} {}", u.0, w.0);
            }
        }
    }
}

fn req(conn: usize, kind: Kind, line: impl Into<Arc<str>>) -> Request {
    Request {
        conn,
        kind,
        line: line.into(),
    }
}

/// Generates the warm-up and timed trace of `cfg` for `seed`.
pub fn generate(cfg: &Config, net: &AttributedGraph, seed: u64, seconds: u64) -> Result<Inputs> {
    if cfg.rewires {
        cold_trace(net, seed, seconds)
    } else {
        hot_trace(net, seed, seconds)
    }
}

/// The warm-up sends the whole KTG pool on both connections at once, so
/// every first sighting arrives twice together (the duplicate-miss
/// race), then the DKTG pool on one. The timed window draws only from
/// the warmed pools, so every request hits the result cache, and its
/// updates leave the topology as it is.
fn hot_trace(net: &AttributedGraph, seed: u64, seconds: u64) -> Result<Inputs> {
    let total = HOT_PER_SECOND * seconds as usize;
    let mut gen = QueryGen::new(net, seed ^ 0xBEEF);
    let ktg = distinct_pool(net, &mut gen, 2000, Kind::Ktg)?;
    let dktg = distinct_pool(net, &mut gen, 24, Kind::Dktg)?;
    let ktg_draws = zipf_indices(ktg.len(), total, ZIPF_S, seed ^ 1);
    let dktg_draws = zipf_indices(dktg.len(), total, ZIPF_S, seed ^ 2);
    let mut rng = SeededRng::seed_from_u64(seed ^ 0x7EA5_E0FF);
    let mut warmup = Vec::with_capacity(2 * ktg.len() + dktg.len());
    for conn in 0..2 {
        warmup.extend(ktg.iter().map(|l| req(conn, Kind::Ktg, l.clone())));
    }
    warmup.extend(dktg.iter().map(|l| req(0, Kind::Dktg, l.clone())));
    let (mut ki, mut di, mut ui) = (0, 0, 0);
    let trace = (0..total)
        .map(|i| {
            let (kind, line) = if (i / SEGMENT) % 6 != 5 {
                ki += 1;
                (Kind::Ktg, ktg[ktg_draws[ki - 1]].clone())
            } else if i % SEGMENT < SEGMENT / 2 {
                di += 1;
                (Kind::Dktg, dktg[dktg_draws[di - 1]].clone())
            } else {
                ui += 1;
                let insert = ui % 2 == 1;
                (
                    Kind::Update,
                    idempotent_update(net.graph(), &mut rng, insert).into(),
                )
            };
            req(0, kind, line)
        })
        .collect();
    Ok(Inputs { warmup, trace })
}

/// KTG:DKTG 3:1 from fixed pools in a per-seed order, cycled, one
/// rewire pair (or the undoing of one) after every 12 queries. No query
/// repeats before its pool runs out, and by then the rewires have moved
/// the epoch, so every query is solved. The trace holds more than any
/// run sends.
fn cold_trace(net: &AttributedGraph, seed: u64, seconds: u64) -> Result<Inputs> {
    // The rewire sequence is part of the dataset, the same for every
    // seed: per-seed edges made the update latency tail spread 0.3.
    let mut rng = SeededRng::seed_from_u64(DATASET_SEED ^ 0x7EA5_E0FF);
    let mut mirror = DynamicGraph::from_graph(net.graph());
    let forward: Vec<[String; 2]> = (0..COLD_REWIRES)
        .map(|_| rewire_pair(&mut mirror, &mut rng))
        .collect();
    // Undoing in reverse order restores the graph each pair found, so
    // every undo changes the topology too.
    let undo = forward.iter().rev().map(|[remove, insert]| {
        let flip = |line: &str, from: &str, to: &str| line.replacen(from, to, 1);
        [
            flip(insert, "insert", "remove"),
            flip(remove, "remove", "insert"),
        ]
    });
    let rewires: Vec<[String; 2]> = forward.iter().cloned().chain(undo).collect();
    let total = 400 * seconds as usize;
    let mut fixed = QueryGen::new(net, DATASET_SEED);
    let mut ktg = distinct_pool(net, &mut fixed, COLD_KTG, Kind::Ktg)?;
    let mut dktg = distinct_pool(net, &mut fixed, COLD_DKTG, Kind::Dktg)?;
    let mut order = SeededRng::seed_from_u64(seed ^ 0x0DE2);
    order.shuffle(&mut ktg);
    order.shuffle(&mut dktg);
    let (mut ki, mut di) = (0, 0);
    let mut next = |i: usize| -> Request {
        if i % 4 == 3 {
            di += 1;
            req(0, Kind::Dktg, dktg[(di - 1) % dktg.len()].clone())
        } else {
            ki += 1;
            req(0, Kind::Ktg, ktg[(ki - 1) % ktg.len()].clone())
        }
    };
    let warmup: Vec<Request> = (0..8).map(&mut next).collect();
    let mut trace = Vec::with_capacity(total);
    let mut queries = 0;
    while trace.len() < total {
        trace.push(next(queries));
        queries += 1;
        if queries % 12 == 0 {
            let pair = &rewires[(queries / 12 - 1) % rewires.len()];
            for line in pair {
                trace.push(req(0, Kind::Update, line.as_str()));
            }
        }
    }
    Ok(Inputs { warmup, trace })
}

/// FNV-1a over the input files and every request, in order.
pub fn digest(dir: &Path, inputs: &Inputs) -> Result<u64> {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    feed(&std::fs::read(dir.join("edges.txt"))?);
    feed(&std::fs::read(dir.join("keywords.txt"))?);
    for r in inputs.warmup.iter().chain(&inputs.trace) {
        feed(format!("{} {}\n", r.conn, r.line).as_bytes());
    }
    Ok(h)
}
