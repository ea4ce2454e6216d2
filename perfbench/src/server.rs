//! Building and running the release `ktg` binary: `ktg index --bundle`
//! and `ktg serve --bundle` as a child process.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::os::unix::process::CommandExt;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::loadgen::{connect, round_trip, CpuClock};
use crate::workload::Config;

/// Worker and thread counts, pinned so every host runs one
/// configuration whatever its core count.
pub const WORKERS: usize = 2;
pub const THREADS: usize = 1;
pub const INDEX_THREADS: usize = 2;
pub const WAL_SYNC: &str = "always";

type Error = Box<dyn std::error::Error>;

/// Builds the release `ktg` binary from the checkout at `root` and
/// returns its path (honouring `CARGO_TARGET_DIR`).
pub fn build_ktg(root: &Path) -> Result<PathBuf, Error> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "ktg-cli",
            "--bin",
            "ktg",
        ])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err("building the release ktg binary failed".into());
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| root.join("target"), |d| root.join(PathBuf::from(d)));
    Ok(target.join("release").join("ktg"))
}

/// The `ktg serve` flags of a workload, in command-line order.
pub fn serve_flags(cfg: &Config, dir: &Path) -> Vec<String> {
    let mut flags = vec![
        "--workers".to_string(),
        WORKERS.to_string(),
        "--threads".into(),
        THREADS.to_string(),
        "--cache-entries".into(),
        cfg.cache_entries.to_string(),
    ];
    if cfg.wal {
        flags.extend([
            "--wal".to_string(),
            dir.join("wal.log").display().to_string(),
            "--wal-sync".into(),
            WAL_SYNC.into(),
            "--checkpoint-every".into(),
            cfg.checkpoint_every.to_string(),
        ]);
    }
    flags
}

/// What one set-up cost: the CPU time of `ktg index` and of `ktg
/// serve` up to ready, and the wall time of the whole.
pub struct SetUp {
    pub index_cpu: Duration,
    pub serve_cpu: Duration,
    pub wall: Duration,
}

impl SetUp {
    pub fn cpu(&self) -> Duration {
        self.index_cpu + self.serve_cpu
    }
}

/// `struct rusage`: two `timeval`s, then fourteen `long` counters.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    _rest: [i64; 14],
}

const RUSAGE_CHILDREN: i32 = -1;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User plus system CPU time of every child reaped so far.
fn children_cpu() -> Result<Duration, Error> {
    let mut u = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        _rest: [0; 14],
    };
    // SAFETY: `u` is a live, writable `struct rusage` laid out as the C
    // struct on 64-bit Linux; the call only writes it.
    if unsafe { getrusage(RUSAGE_CHILDREN, &mut u) } != 0 {
        return Err(std::io::Error::last_os_error().into());
    }
    let us = |tv: [i64; 2]| tv[0] as u64 * 1_000_000 + tv[1] as u64;
    Ok(Duration::from_micros(us(u.utime) + us(u.stime)))
}

/// A `cpu_set_t`: one bit per CPU, 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Two CPUs this process could run on when first asked, or `None` when
/// it had only one.
fn two_cpus() -> Option<(usize, usize)> {
    static PAIR: OnceLock<Option<(usize, usize)>> = OnceLock::new();
    *PAIR.get_or_init(|| {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a live, writable `cpu_set_t` of the size
        // passed; the call only writes it.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
            return None;
        }
        let mut cpus = (0..1024).filter(|&c| set[c / 64] >> (c % 64) & 1 == 1);
        Some((cpus.next()?, cpus.next()?))
    })
}

fn only(cpu: usize) -> CpuSet {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] = 1 << (cpu % 64);
    set
}

/// Pins this process, the load generator, to the first of two CPUs; the
/// server goes on the second (see [`Server::set_up`]). Left to the
/// scheduler, the two moved between sharing a CPU and not, and the
/// server's CPU time per cached request between two levels 1.5x apart.
pub fn pin_client() -> Result<(), Error> {
    if let Some((client, _)) = two_cpus() {
        // SAFETY: the mask is a live `cpu_set_t` of the size passed.
        if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &only(client)) } != 0 {
            return Err(std::io::Error::last_os_error().into());
        }
    }
    Ok(())
}

/// A running `ktg serve` child, stopped and reaped on drop.
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    /// The child's CPU-time clock, made once it is ready.
    pub cpu: Option<CpuClock>,
}

impl Server {
    /// One full set-up from the text inputs in `dir`: `ktg index
    /// --bundle`, then `ktg serve --bundle` up to its first ready
    /// `/health` reply. Returns the server and what the set-up cost.
    pub fn set_up(ktg: &Path, cfg: &Config, dir: &Path) -> Result<(Server, SetUp), Error> {
        // Clean slate: a previous set-up's bundle and log must not be
        // recovered from.
        for stale in ["bundle.bin", "bundle.bin.tmp", "wal.log"] {
            let _ = std::fs::remove_file(dir.join(stale));
        }
        let start = Instant::now();
        let reaped = children_cpu()?;
        let out = Command::new(ktg)
            .arg("index")
            .arg("--edges")
            .arg(dir.join("edges.txt"))
            .arg("--keywords")
            .arg(dir.join("keywords.txt"))
            .arg("--bundle")
            .arg(dir.join("bundle.bin"))
            .args(["--threads", &INDEX_THREADS.to_string()])
            .env("KTG_THREADS", INDEX_THREADS.to_string())
            .stdout(Stdio::null())
            .status()?;
        if !out.success() {
            return Err("ktg index failed".into());
        }
        let index_cpu = children_cpu()? - reaped;
        let mut serve = Command::new(ktg);
        if let Some((_, cpu)) = two_cpus() {
            let set = only(cpu);
            // SAFETY: the closure runs in the forked child before exec
            // and makes one system call, which is async-signal-safe.
            unsafe {
                serve.pre_exec(move || {
                    if sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) != 0 {
                        return Err(std::io::Error::last_os_error());
                    }
                    Ok(())
                });
            }
        }
        let mut child = serve
            .arg("serve")
            .arg("--bundle")
            .arg(dir.join("bundle.bin"))
            .args(["--bind", "127.0.0.1:0"])
            .args(serve_flags(cfg, dir))
            .env("KTG_THREADS", WORKERS.to_string())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().ok_or("no server stdout")?);
        let addr = loop {
            let mut line = String::new();
            if stdout.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("ktg serve exited before listening".into());
            }
            if let Some(rest) = line.strip_prefix("serving on ") {
                let addr = rest.split_whitespace().next().ok_or("no address")?;
                break addr.parse::<SocketAddr>()?;
            }
        };
        let mut server = Server {
            child,
            _stdout: stdout,
            addr,
            cpu: None,
        };
        // Poll without a sleep: one round trip is tens of microseconds,
        // a sleep's wake-up would be coarser than that.
        while !server.control("/health")?.contains("\"state\":\"serving\"") {
            std::thread::yield_now();
        }
        let wall = start.elapsed();
        let cpu = server.cpu.insert(CpuClock::of(server.child.id())?);
        let took = SetUp {
            index_cpu,
            serve_cpu: Duration::from_nanos(cpu.read()?),
            wall,
        };
        Ok((server, took))
    }

    /// Sends one control line on a fresh connection; returns the reply.
    pub fn control(&self, line: &str) -> Result<String, Error> {
        let (mut w, mut r) = connect(self.addr)?;
        Ok(round_trip(&mut w, &mut r, line)?)
    }

    /// The `/stats` counters.
    pub fn stats(&self) -> Result<BTreeMap<String, u64>, Error> {
        parse_stats(&self.control("/stats")?)
    }

    /// The server's peak resident set (`VmHWM`) in kB.
    pub fn peak_rss_kb(&self) -> Result<u64, Error> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| "no VmHWM in /proc status".into())
    }

    /// Asks the server to stop and reaps it.
    pub fn stop(mut self) -> Result<(), Error> {
        let _ = self.control("/shutdown");
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err("ktg serve failed".into())
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("ktg serve did not stop on /shutdown".into())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Parses a `stats: {"name":value,...}` line (every value an integer).
pub fn parse_stats(line: &str) -> Result<BTreeMap<String, u64>, Error> {
    let body = line
        .strip_prefix("stats: {")
        .and_then(|b| b.strip_suffix('}'))
        .ok_or_else(|| format!("unexpected /stats reply `{line}`"))?;
    body.split(',')
        .map(|field| {
            let (k, v) = field.split_once(':').ok_or("bad /stats field")?;
            Ok((k.trim_matches('"').to_string(), v.parse()?))
        })
        .collect()
}
