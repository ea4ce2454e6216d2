//! `perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hot_read --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the root of a checkout. With `--trace 0` it generates the
//! workload's inputs from the seed, builds a bundle with the release
//! `ktg index`, starts the release `ktg serve` as a child process,
//! drives it over loopback TCP in a closed loop, checks every answer
//! and the server's own counters, and prints the end-to-end metrics:
//! CPU times, which hold still while the host takes CPU time away from
//! this machine, where wall-clock latencies do not. With `--trace 1` it
//! replays the same trace in process, calling each layer's public
//! functions under spans, and prints the per-layer metrics. The last
//! stdout line is one JSON object; the exit code is non-zero on any
//! wrong answer, empty request type or accounting mismatch.
//! `perfbench/README.md` lists the workloads and what each metric means.

mod loadgen;
mod reference;
mod server;
mod traced;
mod workload;

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::Duration;

use loadgen::Reply;
use server::Server;
use workload::{Config, Inputs, Kind, Request};

type Error = Box<dyn std::error::Error>;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;

struct Args {
    workload: Config,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, Error> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, Error> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| {
                format!("missing {flag} (usage: --workload NAME --seed N --seconds S --trace 0|1)")
                    .into()
            })
    };
    let name = get("--workload")?;
    let workload = workload::config(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`").into()),
    };
    let seconds: u64 = get("--seconds")?.parse()?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: get("--seed")?.parse()?,
        seconds,
        trace,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports: its metrics, its checks, and how many requests
/// it attempted and lost.
pub struct RunResult {
    pub metrics: Vec<Metric>,
    pub problems: Vec<String>,
    pub attempted: usize,
    pub failed: usize,
}

/// Nearest-rank percentile of sorted samples.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    let n = sorted.len();
    let rank = ((n as f64 * p / 100.0).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Removes the scratch directory on every exit path.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let code = match run() {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn run() -> Result<bool, Error> {
    let args = parse_args()?;
    // Solves in this process (the reference, the traced run) are
    // single-threaded, like the server's.
    std::env::set_var("KTG_THREADS", "1");
    let root = std::env::current_dir()?;
    if !root.join("crates").is_dir() || !root.join("Cargo.toml").is_file() {
        return Err("run from the root of a ktg checkout".into());
    }
    let cfg = args.workload;
    let work = WorkDir(root.join(".perfbench").join(format!(
        "{}-{}-{}",
        cfg.name,
        args.seed,
        std::process::id()
    )));
    std::fs::create_dir_all(&work.0)?;
    let dir = work.0.as_path();
    workload::write_network(dir)?;
    let net = workload::read_network(dir)?;
    let inputs = workload::generate(&cfg, &net, args.seed, args.seconds)?;

    println!(
        "workload: {} (seed {}, {} s, trace {})",
        cfg.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("inputs digest: {:016x}", workload::digest(dir, &inputs)?);
    println!(
        "graph: {} vertices, {} edges; {} warm-up + {} trace requests",
        net.num_vertices(),
        ktg_graph::Adjacency::num_edges(net.graph()),
        inputs.warmup.len(),
        inputs.trace.len()
    );
    println!(
        "nproc: {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("commit: {}", commit(&root));
    println!("wal filesystem: {}", filesystem(dir));
    println!(
        "server flags: {}",
        server::serve_flags(&cfg, Path::new("<dir>")).join(" ")
    );
    println!("index flags: --threads {}", server::INDEX_THREADS);

    let result = if args.trace {
        traced::run(&cfg, &net, &inputs, dir)?
    } else {
        end_to_end(&root, &cfg, &net, &inputs, args.seconds, dir)?
    };
    for m in &result.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    for p in &result.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let correct = result.problems.is_empty();
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.attempted.max(1),
        result.failed,
        metrics.join(", ")
    );
    Ok(correct)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The checkout's commit: `.git/HEAD` when present, else `unknown`
/// (the benchmark may run in an export without git metadata).
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (no .git)".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("unknown ({r})")),
        None => head.to_string(),
    }
}

/// The filesystem type holding `dir`, from `/proc/self/mounts`.
fn filesystem(dir: &Path) -> String {
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".to_string();
    };
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    mounts
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() >= 3 && dir.starts_with(f[1]))
                .then(|| (f[1].len(), format!("{} on {}", f[2], f[1])))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// The aggregate `cpu` line of `/proc/stat` (empty when unreadable).
fn cpu_ticks() -> Vec<u64> {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines().next().map(|l| {
                l.split_whitespace()
                    .skip(1)
                    .filter_map(|v| v.parse().ok())
                    .collect()
            })
        })
        .unwrap_or_default()
}

/// How a reply block is classified for the accounting check.
#[derive(Default)]
struct Tally {
    served: u64,
    failed: u64,
    overloaded: u64,
    degraded: u64,
    errors: u64,
    lost: u64,
}

impl Tally {
    fn add(&mut self, reply: &Reply) {
        if reply.latency_ns.is_none() {
            self.lost += 1;
            return;
        }
        let head = reply.block.lines().next().unwrap_or("");
        let body = reference::normalize(head);
        if body.starts_with("error:") {
            self.errors += 1;
            return;
        }
        self.served += 1;
        if body.starts_with("failed:") {
            self.failed += 1;
        } else if body.contains("overloaded") {
            self.overloaded += 1;
        } else if (body.starts_with("ktg:") || body.starts_with("dktg:")) && body.contains(" [") {
            self.degraded += 1;
        }
    }

    /// Replies that were not a full answer.
    fn bad(&self) -> u64 {
        self.failed + self.overloaded + self.degraded + self.lost + self.errors
    }
}

/// Compares replies with the cache-off reference: as they arrive where
/// every line has one answer (the updates leave the topology as it is),
/// else after the run, by replaying the lines in the order they applied.
struct Checker<'a> {
    /// The answer to every line of the inputs, where each has one.
    answers: Option<HashMap<&'a str, String>>,
    /// Otherwise the replies, in order, for the replay.
    kept: Vec<(&'a Request, Reply)>,
    wrong: usize,
    problems: Vec<String>,
}

impl<'a> Checker<'a> {
    fn new(cfg: &Config, net: &ktg_core::AttributedGraph, inputs: &'a Inputs) -> Self {
        let answers = (!cfg.rewires).then(|| {
            let mut distinct: Vec<&str> = inputs
                .warmup
                .iter()
                .chain(&inputs.trace)
                .map(|r| &*r.line)
                .collect::<HashSet<_>>()
                .into_iter()
                .collect();
            distinct.sort_unstable();
            let expected = reference::replay(net, &distinct);
            distinct.into_iter().zip(expected).collect()
        });
        Checker {
            answers,
            kept: Vec::new(),
            wrong: 0,
            problems: Vec::new(),
        }
    }

    fn check(&mut self, r: &'a Request, reply: Reply) {
        match &self.answers {
            Some(answers) => {
                let want = &answers[&*r.line];
                compare(r, &reply, want, &mut self.wrong, &mut self.problems);
            }
            None => self.kept.push((r, reply)),
        }
    }

    /// Checks the kept replies. Returns the number of wrong answers and
    /// the problems found; the first few wrong answers are among them.
    fn finish(mut self, net: &ktg_core::AttributedGraph) -> (usize, Vec<String>) {
        let lines: Vec<&str> = self.kept.iter().map(|(r, _)| &*r.line).collect();
        let expected = reference::replay(net, &lines);
        for ((r, reply), want) in self.kept.iter().zip(&expected) {
            compare(r, reply, want, &mut self.wrong, &mut self.problems);
        }
        (self.wrong, self.problems)
    }
}

fn compare(r: &Request, reply: &Reply, want: &str, wrong: &mut usize, problems: &mut Vec<String>) {
    if reply.latency_ns.is_some() && reference::normalize(&reply.block) != want {
        *wrong += 1;
        if *wrong <= 20 {
            problems.push(format!(
                "wrong reply to `{}`: `{}` (expected `{want}`)",
                r.line, reply.block
            ));
        }
    }
}

/// Set-up, warm-up and the timed closed loop against the release
/// server, checking every reply and the server's counters.
fn end_to_end(
    root: &Path,
    cfg: &Config,
    net: &ktg_core::AttributedGraph,
    inputs: &Inputs,
    seconds: u64,
    dir: &Path,
) -> Result<RunResult, Error> {
    let ktg = server::build_ktg(root)?;
    let mut checker = Checker::new(cfg, net, inputs);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut server = None;
    for _ in 0..SETUPS {
        if let Some(previous) = server.take() {
            Server::stop(previous)?;
        }
        let (s, took) = Server::set_up(&ktg, cfg, dir)?;
        setups.push(took);
        server = Some(s);
    }
    let mut server = server.expect("at least one set-up");
    let median = |f: fn(&server::SetUp) -> Duration| {
        let mut v: Vec<u64> = setups.iter().map(|s| f(s).as_nanos() as u64).collect();
        v.sort_unstable();
        percentile(&v, 50.0) as f64 / 1e9
    };
    let setup_s = median(|s| s.cpu());
    println!(
        "set-up medians over {SETUPS}: cpu {setup_s} s (ktg index {} s, ktg serve to ready {} s), wall {} s",
        median(|s| s.index_cpu),
        median(|s| s.serve_cpu),
        median(|s| s.wall)
    );

    // Accounting: every reply is tallied, the timed window's also on
    // its own.
    let mut tally = Tally::default();
    let mut timed_tally = Tally::default();
    server::pin_client()?;
    let warm = loadgen::warm_up(server.addr, &inputs.warmup)?;
    for (r, reply) in inputs.warmup.iter().zip(warm) {
        tally.add(&reply);
        checker.check(r, reply);
    }
    let before = server.stats()?;
    let cpu_before = cpu_ticks();
    let mut wall: HashMap<Kind, Vec<u64>> = HashMap::new();
    let timed = loadgen::closed_loop(
        server.addr,
        &inputs.trace,
        Some(Duration::from_secs(seconds)),
        server.cpu.as_mut(),
        cfg.cpu_block,
        cfg.pipeline,
        &mut |i, reply| {
            let r = &inputs.trace[i];
            tally.add(&reply);
            timed_tally.add(&reply);
            if let Some(ns) = reply.latency_ns {
                wall.entry(r.kind).or_default().push(ns);
            }
            checker.check(r, reply);
        },
    )?;
    let after = server.stats()?;
    let cpu = cpu_ticks()
        .iter()
        .zip(cpu_before)
        .map(|(a, b)| a - b)
        .collect::<Vec<u64>>();
    // Field 8 of the `cpu` line is time the host ran something else
    // while this machine's CPUs wanted to run. It stretches the
    // wall-clock figures below, and contention for the host's cores
    // and caches, which comes with it, raises CPU times too.
    let steal =
        100.0 * cpu.get(7).copied().unwrap_or(0) as f64 / cpu.iter().sum::<u64>().max(1) as f64;
    println!("host cpu steal during the timed window: {steal:.1}%");
    let window = |field: &str| {
        after.get(field).copied().unwrap_or(0) - before.get(field).copied().unwrap_or(0)
    };
    println!(
        "timed window: {} result-cache hits, {} misses, {} row-memo misses, {} evictions, epoch +{}",
        window("result_hits"),
        window("result_misses"),
        window("row_misses"),
        window("row_evictions"),
        window("epoch")
    );
    if timed.sent == inputs.trace.len() {
        println!("the trace ran out before the timed window ended");
    }
    let stats = server.stats()?;
    let rss_kb = server.peak_rss_kb()?;
    server.stop()?;

    let (wrong, mut problems) = checker.finish(net);
    for (field, client) in [
        ("requests", tally.served),
        ("failed", tally.failed),
        ("overloaded", tally.overloaded),
        ("degraded", tally.degraded),
        ("write_failures", tally.lost),
    ] {
        let server = stats.get(field).copied().unwrap_or(u64::MAX);
        if server != client {
            problems.push(format!(
                "/stats {field} = {server} but the client counted {client}"
            ));
        }
    }
    // Every request must be answered in full, whatever the server
    // counted: a run with any error, failure, refusal, degraded answer
    // or missing reply is not a correct run.
    for (count, what) in [
        (tally.errors, "got an error reply"),
        (tally.failed, "failed"),
        (tally.overloaded, "were refused as overloaded"),
        (tally.degraded, "came back degraded"),
        (tally.lost, "got no reply"),
    ] {
        if count > 0 {
            problems.push(format!("{count} requests {what}"));
        }
    }

    // Per request kind over the timed window: the server CPU time per
    // request, the median over the kind's blocks (the metric), and the
    // wall-clock latency the client saw (printed only).
    let mut metrics = vec![Metric {
        name: "setup_s",
        value: setup_s,
        unit: "s",
    }];
    let names = ["ktg_cpu_us", "dktg_cpu_us", "update_cpu_us"];
    for (kind, name) in Kind::ALL.iter().zip(names) {
        let mut cpu: Vec<u64> = timed
            .blocks
            .iter()
            .filter(|b| b.kind == *kind)
            .map(|b| b.cpu_ns / b.requests as u64)
            .collect();
        let mut wall = wall.remove(kind).unwrap_or_default();
        if cpu.is_empty() || wall.is_empty() {
            problems.push(format!(
                "no {} request completed in the timed window",
                kind.name()
            ));
            continue;
        }
        cpu.sort_unstable();
        wall.sort_unstable();
        println!(
            "{}: {} requests in {} blocks; server cpu per request over blocks p10 {} us, p50 {} us, p90 {} us; wall latency p50 {} ms, p90 {} ms",
            kind.name(),
            wall.len(),
            cpu.len(),
            percentile(&cpu, 10.0) as f64 / 1e3,
            percentile(&cpu, 50.0) as f64 / 1e3,
            percentile(&cpu, 90.0) as f64 / 1e3,
            percentile(&wall, 50.0) as f64 / 1e6,
            percentile(&wall, 90.0) as f64 / 1e6
        );
        metrics.push(Metric {
            name,
            value: percentile(&cpu, 50.0) as f64 / 1e3,
            unit: "us",
        });
    }
    metrics.push(Metric {
        name: "peak_rss_mb",
        value: rss_kb as f64 / 1024.0,
        unit: "MB",
    });
    println!(
        "throughput = {} req/s (wall clock, {} requests)",
        timed.sent as f64 / timed.elapsed.as_secs_f64(),
        timed.sent
    );

    let failed = timed_tally.bad() as usize + wrong;
    let attempted = timed.sent;
    println!(
        "error_rate = {} ratio ({failed} of {attempted})",
        failed as f64 / attempted.max(1) as f64
    );
    println!("server /stats: {}", stats_summary(&stats));
    Ok(RunResult {
        metrics,
        problems,
        attempted,
        failed,
    })
}

fn stats_summary(stats: &BTreeMap<String, u64>) -> String {
    stats
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}
