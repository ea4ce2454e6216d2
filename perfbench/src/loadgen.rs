//! The load generator: one process, closed loops only.
//!
//! A closed loop sends a request on its connection, reads the reply
//! block, and only then sends the next. The timed window runs one
//! closed loop on one connection; the warm-up runs one per connection
//! named in its requests, at the same time.
//!
//! The timed loop cuts its requests into blocks: runs of one request
//! kind, of a bounded length. At the end of each block, once the
//! server has gone idle, it reads the server process's CPU clock, so
//! every CPU nanosecond the server spends is charged to one block. That
//! clock counts only time the server's threads ran: time the host took
//! the machine's CPUs away (host CPU steal), which stretches every
//! wall-clock latency on a shared host, does not enter it.

use std::fs::File;
use std::io::{ErrorKind, Read, Seek, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use ktg_common::net::{Frame, LineReader};

use crate::workload::{Kind, Request};

/// One reply as the client saw it.
#[derive(Clone, Debug, Default)]
pub struct Reply {
    /// Nanoseconds from the send of the request's batch to the end of
    /// its reply block.
    pub latency_ns: Option<u64>,
    /// The reply block without its `.` terminator.
    pub block: String,
}

/// A run of requests of one kind and the server CPU time it cost.
pub struct Block {
    pub kind: Kind,
    pub requests: usize,
    pub cpu_ns: u64,
}

/// What one closed loop produced besides its replies.
pub struct Outcome {
    /// How many requests were sent: a prefix of the trace.
    pub sent: usize,
    /// The blocks, in order, when the server's CPU clock was read.
    pub blocks: Vec<Block>,
    /// From the first send to the last reply.
    pub elapsed: Duration,
}

pub fn connect(addr: SocketAddr) -> std::io::Result<(TcpStream, LineReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let writer = stream.try_clone()?;
    Ok((writer, LineReader::new(stream, 1 << 20)))
}

/// Reads one `.`-terminated block (blocking socket).
pub fn read_block(reader: &mut LineReader<TcpStream>) -> std::io::Result<String> {
    let mut block = String::new();
    loop {
        match reader.read_frame()? {
            Frame::Line(l) if l == "." => return Ok(block),
            Frame::Line(l) => {
                if !block.is_empty() {
                    block.push('\n');
                }
                block.push_str(&l);
            }
            other => {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    format!("unexpected frame {other:?}"),
                ))
            }
        }
    }
}

/// Sends one line and returns its reply block.
pub fn round_trip(
    writer: &mut TcpStream,
    reader: &mut LineReader<TcpStream>,
    line: &str,
) -> std::io::Result<String> {
    writer.write_all(format!("{line}\n").as_bytes())?;
    read_block(reader)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_getcpuclockid(pid: i32, clock: *mut i32) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// How long [`CpuClock::read`] waits for the server to go idle before
/// it reads the clock anyway.
const SETTLE_LIMIT: Duration = Duration::from_millis(100);

/// The CPU-time clock of another process: the summed run time of all
/// its threads, live and exited, to the nanosecond.
///
/// The kernel brings a thread's run time up to date when the thread
/// stops running, and otherwise only at scheduler ticks, so a thread
/// still running reads up to a tick behind. [`CpuClock::read`] therefore
/// waits until none of the threads that existed when the clock was made
/// is running.
pub struct CpuClock {
    id: i32,
    /// `/proc/<pid>/task/<tid>/stat` of each thread.
    tasks: Vec<File>,
    buf: Vec<u8>,
}

impl CpuClock {
    pub fn of(pid: u32) -> std::io::Result<CpuClock> {
        let mut id = 0;
        // SAFETY: `id` is a live, writable `clockid_t`; the call only
        // writes it.
        let err = unsafe { clock_getcpuclockid(pid as i32, &mut id) };
        if err != 0 {
            return Err(std::io::Error::from_raw_os_error(err));
        }
        let tasks = std::fs::read_dir(format!("/proc/{pid}/task"))?
            .map(|t| File::open(t?.path().join("stat")))
            .collect::<std::io::Result<_>>()?;
        Ok(CpuClock {
            id,
            tasks,
            buf: Vec::new(),
        })
    }

    /// Whether any thread is in state `R` (running or runnable).
    fn busy(&mut self) -> std::io::Result<bool> {
        for task in &mut self.tasks {
            self.buf.clear();
            task.rewind()?;
            task.read_to_end(&mut self.buf)?;
            // `tid (comm) S ...`: the state follows the last `)`.
            let state = self
                .buf
                .iter()
                .rposition(|&b| b == b')')
                .and_then(|i| self.buf.get(i + 2));
            if state == Some(&b'R') {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// The process's CPU time so far, in nanoseconds, read once no
    /// thread is running (or after [`SETTLE_LIMIT`]).
    pub fn read(&mut self) -> std::io::Result<u64> {
        let deadline = Instant::now() + SETTLE_LIMIT;
        while self.busy()? && Instant::now() < deadline {
            std::thread::yield_now();
        }
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `struct timespec` (two
        // 64-bit fields on the 64-bit Linux targets this runs on); the
        // call only writes it.
        if unsafe { clock_gettime(self.id, &mut ts) } != 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
    }
}

/// Closed loop over one connection: sends `requests` in order until
/// they run out or `limit` has passed since the first send, in batches
/// of up to `depth` same-kind requests written at once; the next batch
/// goes out when the last reply of this one has come back. Each reply
/// goes to `on_reply` with the request's trace position. With `cpu`, it
/// reads the server's CPU time at the end of every block of at most
/// `block` requests.
pub fn closed_loop(
    addr: SocketAddr,
    requests: &[Request],
    limit: Option<Duration>,
    mut cpu: Option<&mut CpuClock>,
    block: usize,
    depth: usize,
    on_reply: &mut dyn FnMut(usize, Reply),
) -> std::io::Result<Outcome> {
    let (mut writer, mut reader) = connect(addr)?;
    let start = Instant::now();
    let mut blocks = Vec::new();
    let mut cpu_before = cpu.as_mut().map(|c| c.read()).transpose()?;
    let mut in_block = 0;
    let mut i = 0;
    let mut batch = String::new();
    while i < requests.len() {
        let kind = requests[i].kind;
        let room = (block - in_block).min(depth);
        let end = requests[i..]
            .iter()
            .take(room)
            .position(|r| r.kind != kind)
            .map_or((i + room).min(requests.len()), |n| i + n);
        batch.clear();
        for r in &requests[i..end] {
            batch.push_str(&r.line);
            batch.push('\n');
        }
        let sent = Instant::now();
        writer.write_all(batch.as_bytes())?;
        for n in i..end {
            let block = read_block(&mut reader)?;
            let latency_ns = Some(sent.elapsed().as_nanos() as u64);
            on_reply(n, Reply { latency_ns, block });
        }
        in_block += end - i;
        i = end;
        let last = limit.is_some_and(|l| start.elapsed() >= l);
        let ends_block = last
            || in_block == block
            || requests.get(i).is_none_or(|next| next.kind != kind);
        if let (Some(clock), Some(before), true) = (cpu.as_mut(), cpu_before, ends_block) {
            let now = clock.read()?;
            blocks.push(Block {
                kind,
                requests: in_block,
                cpu_ns: now.saturating_sub(before),
            });
            cpu_before = Some(now);
        }
        if ends_block {
            in_block = 0;
        }
        if last {
            break;
        }
    }
    Ok(Outcome {
        sent: i,
        blocks,
        elapsed: start.elapsed(),
    })
}

/// A closed loop over all of `requests`, one at a time, that returns
/// their replies.
pub fn collect(addr: SocketAddr, requests: &[Request]) -> std::io::Result<Vec<Reply>> {
    let mut replies = Vec::with_capacity(requests.len());
    closed_loop(addr, requests, None, None, 1, 1, &mut |_, r| {
        replies.push(r)
    })?;
    Ok(replies)
}

/// Untimed warm-up: one closed loop per connection named in
/// `requests`, all running at the same time. Replies come back in
/// request order.
pub fn warm_up(addr: SocketAddr, requests: &[Request]) -> std::io::Result<Vec<Reply>> {
    let conns = requests.iter().map(|r| r.conn + 1).max().unwrap_or(0);
    let parts = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let mine: Vec<Request> = requests.iter().filter(|r| r.conn == c).cloned().collect();
                scope.spawn(move || collect(addr, &mine))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| std::io::Error::other("warm-up thread panicked"))?
            })
            .collect::<std::io::Result<Vec<Vec<Reply>>>>()
    })?;
    let mut per_conn: Vec<std::vec::IntoIter<Reply>> =
        parts.into_iter().map(Vec::into_iter).collect();
    Ok(requests
        .iter()
        .map(|r| per_conn[r.conn].next().unwrap_or_default())
        .collect())
}
