//! Scaling bench for the parallel conflict-bitmap branch-and-bound.
//!
//! Sweeps worker count ∈ {1, 2, 4, 8} × conflict kernel {bitmap, oracle}
//! over a seeded planted-partition (SBM) graph with Zipf keywords, plus a
//! single-thread DKTG-Greedy series on both kernels, and emits one JSON
//! line per configuration into
//! `bench_results/bb_scaling.jsonl` (override the directory with
//! `KTG_BENCH_OUT`). Thread counts are set directly on [`bb::BbOptions`]
//! so every record is self-describing — the sweep does not depend on the
//! `KTG_THREADS` environment of the invoking shell.
//!
//! Unlike the figure benches, the JSON sink stays on in quick mode
//! (`--test` / `KTG_BENCH_FAST=1`): CI's smoke run is exactly what seeds
//! the perf trajectory, so a smoke run that writes nothing would be
//! useless. Quick mode only drops the sample count to one and shrinks the
//! instance.
//!
//! Besides timing, each record carries the run's [`SearchStats`] (from
//! the first sample; every sample solves the same batch) and its item
//! count, so the summary's `ops_per_sec` is queries per second. The
//! binary asserts the properties the harness relies on:
//!
//! * every KTG configuration returns byte-identical groups, and so do
//!   the two DKTG kernels (determinism);
//! * at one thread, the bitmap kernel issues fewer `distance_checks`
//!   than the oracle path on the same queries (the kernel replaces
//!   per-pair probes with precomputed bitsets);
//! * the DKTG bitmap series issues no `distance_checks` at all, and
//!   solved at least one query (an empty series proves nothing).

use ktg_core::dktg::{self, DktgQuery};
use ktg_core::{bb, AttributedGraph, Group, KtgQuery, SearchStats};
use ktg_datasets::keywords::{assign_zipf, KeywordModel};
use ktg_datasets::sbm::{planted_partition, SbmParams};
use ktg_datasets::QueryGen;
use ktg_index::NlrnlIndex;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const SEED: u64 = 0xB0B5_CA1E;
const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];
/// Per-round node budget of the DKTG series: a safety valve against an
/// exponential greedy round, far above what the seeded batch needs.
const DKTG_NODE_BUDGET: u64 = 2_000_000;

/// One (threads, kernel) configuration's aggregate over the query batch.
struct Record {
    kernel: &'static str,
    threads: usize,
    samples: usize,
    queries: usize,
    solved: usize,
    mean: Duration,
    min: Duration,
    stats: SearchStats,
}

impl Record {
    fn new(kernel: &'static str, threads: usize, queries: usize, run: &Sampled) -> Self {
        let total: Duration = run.times.iter().sum();
        Record {
            kernel,
            threads,
            samples: run.times.len(),
            queries,
            solved: run.solved,
            mean: total / run.times.len().max(1) as u32,
            min: run.times.first().copied().unwrap_or_default(),
            stats: run.stats,
        }
    }

    /// Queries per second over the fastest sample.
    fn ops_per_sec(&self) -> f64 {
        self.queries as f64 * 1e9 / (self.min.as_nanos() as u64).max(1) as f64
    }

    fn to_json_line(&self) -> String {
        format!(
            "{{\"group\":\"bb_scaling\",\"bench\":\"{}\",\"param\":\"{}\",\"samples\":{},\
             \"queries\":{},\"items\":{},\"ops_per_sec\":{:.3},\"solved\":{},\"mean_ns\":{},\
             \"min_ns\":{},\"nodes\":{},\
             \"distance_checks\":{},\"kline_filtered\":{},\"keyword_pruned\":{},\
             \"groups_evaluated\":{},\"truncated\":{}}}",
            self.kernel,
            self.threads,
            self.samples,
            self.queries,
            self.queries,
            self.ops_per_sec(),
            self.solved,
            self.mean.as_nanos(),
            self.min.as_nanos(),
            self.stats.nodes,
            self.stats.distance_checks,
            self.stats.kline_filtered,
            self.stats.keyword_pruned,
            self.stats.groups_evaluated,
            self.stats.truncated,
        )
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--test")
        || std::env::var("KTG_BENCH_FAST").is_ok_and(|v| v != "0");
    let (n, query_count, samples) = if quick { (500, 2, 1) } else { (1500, 5, 5) };

    let params = SbmParams::modular(n, 8);
    let graph = planted_partition(&params, SEED);
    let (vocab, vk) = assign_zipf(n, &KeywordModel::default(), SEED ^ 0x515F);
    let net = AttributedGraph::new(graph, vocab, vk);
    let nlrnl = NlrnlIndex::build(net.graph());
    let batch = QueryGen::new(&net, SEED ^ 0xBEEF).batch(query_count, 6).expect("bench workload");
    let queries: Vec<KtgQuery> = batch
        .iter()
        .map(|q| KtgQuery::new(q.clone(), 3, 2, 5).expect("valid params"))
        .collect();

    let mut baseline: Option<Vec<Vec<ktg_core::Group>>> = None;
    let mut seq_checks: Vec<(&'static str, u64)> = Vec::new();
    let mut records = Vec::new();

    for (kernel, bitmap_threshold) in [("bitmap", bb::DEFAULT_BITMAP_THRESHOLD), ("oracle", 0)] {
        for threads in THREAD_SWEEP {
            let opts = bb::BbOptions::vkc_deg()
                .with_threads(threads)
                .with_bitmap_threshold(bitmap_threshold);
            let run = sample(samples, &queries, |query| {
                let out = bb::solve(&net, query, &nlrnl, &opts);
                (out.groups, out.stats)
            });

            // Determinism gate: every configuration must return the exact
            // groups the first configuration (bitmap, 1 thread) returned.
            match &baseline {
                None => baseline = Some(run.groups.clone()),
                Some(expected) => assert_eq!(
                    expected, &run.groups,
                    "{kernel}/{threads} threads diverged from the baseline groups"
                ),
            }
            if threads == 1 {
                seq_checks.push((kernel, run.stats.distance_checks));
            }

            let record = Record::new(kernel, threads, batch.len(), &run);
            println!("{}", record.to_json_line());
            records.push(record);
        }
    }

    // DKTG-Greedy on both kernels at one thread: the bitmap rows are
    // built once per query and shared by every greedy round.
    let dktg_queries: Vec<DktgQuery> = queries
        .iter()
        .map(|q| DktgQuery::new(q.clone(), 0.5).expect("valid gamma"))
        .collect();
    let dktg_series = |bitmap_threshold| {
        let opts = bb::BbOptions {
            node_budget: Some(DKTG_NODE_BUDGET),
            ..bb::BbOptions::vkc_deg().with_bitmap_threshold(bitmap_threshold)
        };
        sample(samples, &dktg_queries, |query| {
            let out = dktg::solve_with_options(&net, query, &nlrnl, &opts);
            (out.groups, out.stats)
        })
    };
    let dktg_bitmap = dktg_series(bb::DEFAULT_BITMAP_THRESHOLD);
    let dktg_oracle = dktg_series(0);
    for (kernel, run) in [("dktg_bitmap", &dktg_bitmap), ("dktg_oracle", &dktg_oracle)] {
        let record = Record::new(kernel, 1, batch.len(), run);
        println!("{}", record.to_json_line());
        records.push(record);
    }
    assert!(dktg_bitmap.solved > 0, "the DKTG bitmap series solved no query");
    assert_eq!(
        dktg_bitmap.groups, dktg_oracle.groups,
        "DKTG bitmap and oracle kernels diverged"
    );
    assert_eq!(
        dktg_bitmap.stats.distance_checks, 0,
        "the DKTG bitmap series should answer every distance question from its rows"
    );

    // The kernel's point: precomputed bitsets replace per-pair oracle
    // probes, so a single-thread bitmap run must issue strictly fewer
    // distance checks than the oracle path on the same queries.
    let bitmap = seq_checks.iter().find(|(k, _)| *k == "bitmap").expect("bitmap run present").1;
    let oracle_checks =
        seq_checks.iter().find(|(k, _)| *k == "oracle").expect("oracle run present").1;
    assert!(
        bitmap < oracle_checks,
        "bitmap kernel should probe less than the oracle path ({bitmap} vs {oracle_checks})"
    );

    let dir = PathBuf::from(std::env::var("KTG_BENCH_OUT").unwrap_or_else(|_| "bench_results".into()));
    if let Err(e) = write_records(&dir, &records) {
        eprintln!("warning: could not write {}/bb_scaling.jsonl: {e}", dir.display());
        std::process::exit(1);
    }
    eprintln!(
        "bb_scaling: wrote {} records to {}/bb_scaling.jsonl (quick={quick})",
        records.len(),
        dir.display()
    );
}

/// One configuration's measurement over the query batch: the wall time
/// of every sample, ascending, plus the stats, solved count and groups
/// of the first sample. Every sample solves the same batch, so one
/// designated sample describes them all.
struct Sampled {
    times: Vec<Duration>,
    stats: SearchStats,
    solved: usize,
    groups: Vec<Vec<Group>>,
}

/// Solves every query of `queries` once per sample, timing each sample.
fn sample<Q>(
    samples: usize,
    queries: &[Q],
    mut solve: impl FnMut(&Q) -> (Vec<Group>, SearchStats),
) -> Sampled {
    let mut run = Sampled {
        times: Vec::with_capacity(samples),
        stats: SearchStats::default(),
        solved: 0,
        groups: Vec::with_capacity(queries.len()),
    };
    for s in 0..samples {
        let start = Instant::now();
        for query in queries {
            let (groups, stats) = solve(query);
            if s == 0 {
                run.stats.merge(&stats);
                run.solved += usize::from(!groups.is_empty());
                run.groups.push(groups);
            }
        }
        run.times.push(start.elapsed());
    }
    run.times.sort_unstable();
    run
}

fn write_records(dir: &PathBuf, records: &[Record]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("bb_scaling.jsonl"))?;
    for record in records {
        writeln!(file, "{}", record.to_json_line())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktg_common::VertexId;

    #[test]
    fn every_sample_after_the_first_keeps_its_records() {
        let queries = [1u32, 2, 3];
        let mut calls = 0;
        let run = sample(4, &queries, |&q| {
            calls += 1;
            let groups = if q == 2 { Vec::new() } else { vec![Group::new(vec![VertexId(q)], 1)] };
            (groups, SearchStats { nodes: u64::from(q), distance_checks: 1, ..Default::default() })
        });
        assert_eq!(calls, 12, "every sample solves the whole batch");
        assert_eq!(run.times.len(), 4);
        assert!(run.times.windows(2).all(|w| w[0] <= w[1]), "times ascend");
        assert_eq!(run.stats.nodes, 6, "stats describe one sample, not zero or four");
        assert_eq!(run.stats.distance_checks, 3);
        assert_eq!(run.solved, 2);
        assert_eq!(run.groups.len(), 3);

        let record = Record::new("bitmap", 1, queries.len(), &run);
        let line = record.to_json_line();
        assert!(line.contains("\"samples\":4,"), "{line}");
        assert!(line.contains("\"items\":3,"), "{line}");
        assert!(line.contains("\"solved\":2,"), "{line}");
        assert!(line.contains("\"nodes\":6,"), "{line}");
        assert!(record.ops_per_sec() > 0.0, "{line}");
    }
}
