//! The load generator: runs a workload's clients through a sequence of
//! phases on one continuous clock and hands back what each request and each
//! phase boundary looked like.

use crate::stats;
use crate::sut::{Client, Fixture};
use crate::sys;
use crate::trace::Record;
use crate::workloads::{poisson_schedule, Load};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// Lets caches fill and connections settle; discarded.
    WarmUp,
    /// Tracing off: the end-to-end numbers come from these.
    Measured,
    /// Full spans kept, allocations counted.
    Traced,
}

#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub kind: PhaseKind,
    pub seconds: f64,
}

/// What is kept of every request, traced or not (24 bytes, so the log does
/// not show in `peak_rss_mb`).
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the reply was in hand, ns on the run clock.
    pub replied: u64,
    pub latency_ns: u64,
    pub lateness_ns: u32,
    pub ok: bool,
}

/// One phase, after the fact. A request belongs to the phase its reply
/// arrived in.
#[derive(Debug, Clone)]
pub struct PhaseResult {
    pub kind: PhaseKind,
    pub seconds: f64,
    pub attempted: u64,
    pub verified: u64,
    /// Latencies of the phase's requests, ms, sorted.
    pub latencies_ms: Vec<f64>,
    pub lateness_ms: Vec<f64>,
    pub cpu_ms: f64,
    pub ctx_switches: u64,
    pub allocations: u64,
    pub allocated_bytes: u64,
    /// Live threads at the phase's end.
    pub threads: u64,
    /// `VmHWM` at the phase's end, kB: read while the system is still
    /// serving, before the harness's own post-processing allocates.
    pub vm_hwm_kb: u64,
}

pub struct LoadResult {
    pub phases: Vec<PhaseResult>,
    /// Full spans of the requests that ran while tracing was on.
    pub records: Vec<Record>,
    /// Requests sent over the whole run, warm-up included.
    pub attempted: u64,
    /// Replies that matched the oracle over the whole run, warm-up
    /// included: what the server-side counters are checked against.
    pub verified: u64,
    /// The first error or mismatch any client saw.
    pub first_failure: Option<String>,
}

/// Whether the current phase keeps full spans. Read once per request.
static TRACING: AtomicBool = AtomicBool::new(false);

struct Clock(Instant);

impl Clock {
    fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn sleep_until(&self, t: u64) {
        let now = self.now();
        if t > now {
            std::thread::sleep(Duration::from_nanos(t - now));
        }
    }
}

/// A client thread's log.
#[derive(Default)]
struct Log {
    samples: Vec<Sample>,
    records: Vec<Record>,
    first_failure: Option<String>,
}

impl Log {
    fn push(&mut self, r: Record, tracing: bool, outcome: Result<bool, String>) {
        let ok = matches!(outcome, Ok(true));
        if !ok && self.first_failure.is_none() {
            self.first_failure = Some(match outcome {
                Err(e) => format!("request {}: {e}", r.id),
                Ok(_) => format!("request {}: reply differs from the oracle", r.id),
            });
        }
        self.samples.push(Sample {
            replied: r.replied,
            latency_ns: r.latency_ns(),
            lateness_ns: r.lateness_ns().min(u64::from(u32::MAX)) as u32,
            ok,
        });
        if tracing {
            self.records.push(Record { ok, ..r });
        }
    }
}

struct Shared<'a> {
    fx: &'a Fixture,
    clock: Clock,
    next: AtomicU64,
    end: u64,
}

/// One request on a kept or per-request connection, `due` at the given
/// time; returns when the thread is free again.
fn one_request(
    sh: &Shared,
    client: &mut Client,
    log: &mut Log,
    thread: u32,
    id: u64,
    due: u64,
    free: u64,
) -> u64 {
    let tracing = TRACING.load(Ordering::Relaxed);
    let start = sh.clock.now();
    let mut r = Record {
        id,
        thread,
        due,
        free,
        start,
        connected: start,
        ..Record::default()
    };
    let reply = client.connect().and_then(|()| {
        if tracing {
            r.connected = sh.clock.now();
        }
        client.infer(sh.fx, id)
    });
    r.replied = sh.clock.now();
    let outcome = reply.map(|reply| sh.fx.verify(id as usize, &reply));
    r.verified = if tracing { sh.clock.now() } else { r.replied };
    client.disconnect();
    log.push(r, tracing, outcome);
    sh.clock.now()
}

fn closed_loop(sh: &Shared, client: &mut Client, thread: u32, log: &mut Log) {
    let mut free = sh.clock.now();
    while free < sh.end {
        let id = sh.next.fetch_add(1, Ordering::Relaxed);
        // A closed-loop request is due the moment its caller is free.
        free = one_request(sh, client, log, thread, id, free, free);
    }
}

fn open_loop(sh: &Shared, client: &mut Client, thread: u32, log: &mut Log, schedule: &[u64]) {
    loop {
        let id = sh.next.fetch_add(1, Ordering::Relaxed);
        let Some(&due) = schedule.get(id as usize) else {
            return;
        };
        let free = sh.clock.now();
        sh.clock.sleep_until(due);
        one_request(sh, client, log, thread, id, due, free);
    }
}

fn burst_loop(sh: &Shared, client: &mut Client, log: &mut Log, size: usize) {
    let mut flight = Vec::with_capacity(size);
    loop {
        let due = sh.clock.now();
        if due >= sh.end {
            return;
        }
        let tracing = TRACING.load(Ordering::Relaxed);
        for _ in 0..size {
            let id = sh.next.fetch_add(1, Ordering::Relaxed);
            let start = sh.clock.now();
            let r = Record {
                id,
                due,
                free: due,
                start,
                connected: start,
                ..Record::default()
            };
            flight.push((r, client.submit(sh.fx, id)));
        }
        for (mut r, pending) in flight.drain(..) {
            let reply = pending.and_then(|p| p.wait());
            r.replied = sh.clock.now();
            let outcome = reply.map(|reply| sh.fx.verify(r.id as usize, &reply));
            r.verified = if tracing { sh.clock.now() } else { r.replied };
            log.push(r, tracing, outcome);
        }
    }
}

/// What the main thread reads at a phase boundary.
struct Mark {
    t: u64,
    usage: sys::Usage,
    allocations: (u64, u64),
    /// Zeroes if `/proc` hiccups, which fails an end-to-end run's last slice
    /// only.
    status: sys::ProcStatus,
}

fn mark(clock: &Clock) -> Mark {
    Mark {
        t: clock.now(),
        usage: sys::usage(),
        allocations: sys::allocations(),
        status: sys::status().unwrap_or(sys::ProcStatus {
            vm_hwm_kb: 0,
            threads: 0,
        }),
    }
}

/// Runs `load` through `phases` back to back: the clients never pause at a
/// boundary, so no phase sees a start-up or drain transient.
pub fn drive(
    fx: &Fixture,
    clients: &mut [Client],
    load: Load,
    phases: &[Phase],
    seed: u64,
) -> LoadResult {
    assert_eq!(clients.len(), load.clients(), "one client per thread");
    let total: f64 = phases.iter().map(|p| p.seconds).sum();
    let end = (total * 1e9) as u64;
    let schedule = match load {
        Load::Open { lambda, .. } => poisson_schedule(seed, lambda, end),
        _ => Vec::new(),
    };
    let sh = Shared {
        fx,
        clock: Clock(Instant::now()),
        next: AtomicU64::new(0),
        end,
    };

    let mut marks = vec![mark(&sh.clock)];
    let logs: Vec<Log> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(k, client)| {
                let (sh, schedule) = (&sh, &schedule);
                s.spawn(move || {
                    let mut log = Log::default();
                    // Room for 20k req/s: the log must not reallocate (and
                    // copy) while the clock runs. Untouched pages cost
                    // nothing.
                    log.samples.reserve((total * 20_000.0) as usize);
                    match load {
                        Load::Burst { size } => burst_loop(sh, client, &mut log, size),
                        Load::Closed { .. } => closed_loop(sh, client, k as u32, &mut log),
                        Load::Open { .. } => open_loop(sh, client, k as u32, &mut log, schedule),
                    }
                    log
                })
            })
            .collect();
        let mut boundary = 0.0;
        for phase in phases {
            let traced = phase.kind == PhaseKind::Traced;
            TRACING.store(traced, Ordering::Relaxed);
            sys::count_allocations(traced);
            boundary += phase.seconds;
            sh.clock.sleep_until((boundary * 1e9) as u64);
            marks.push(mark(&sh.clock));
        }
        TRACING.store(false, Ordering::Relaxed);
        sys::count_allocations(false);
        handles
            .into_iter()
            .map(|h| h.join().expect("load-generator thread panicked"))
            .collect()
    });

    let mut samples: Vec<Sample> = logs
        .iter()
        .flat_map(|l| l.samples.iter().copied())
        .collect();
    samples.sort_unstable_by_key(|s| s.replied);
    let mut rest = samples.as_slice();
    let results = phases
        .iter()
        .zip(marks.windows(2))
        .map(|(phase, m)| {
            let n = rest.partition_point(|s| s.replied <= m[1].t);
            let (mine, later) = rest.split_at(n);
            rest = later;
            let ms = |f: fn(&Sample) -> u64| {
                let mut v: Vec<f64> = mine.iter().map(|s| f(s) as f64 / 1e6).collect();
                stats::sort(&mut v);
                v
            };
            PhaseResult {
                kind: phase.kind,
                seconds: (m[1].t - m[0].t) as f64 / 1e9,
                attempted: mine.len() as u64,
                verified: mine.iter().filter(|s| s.ok).count() as u64,
                latencies_ms: ms(|s| s.latency_ns),
                lateness_ms: ms(|s| u64::from(s.lateness_ns)),
                cpu_ms: m[1].usage.cpu_ms - m[0].usage.cpu_ms,
                ctx_switches: m[1].usage.ctx_switches - m[0].usage.ctx_switches,
                allocations: m[1].allocations.0 - m[0].allocations.0,
                allocated_bytes: m[1].allocations.1 - m[0].allocations.1,
                threads: m[1].status.threads,
                vm_hwm_kb: m[1].status.vm_hwm_kb,
            }
        })
        .collect();

    let mut records: Vec<Record> = logs
        .iter()
        .flat_map(|l| l.records.iter().copied())
        .collect();
    records.sort_unstable_by_key(|r| r.replied);
    LoadResult {
        phases: results,
        records,
        attempted: samples.len() as u64,
        verified: samples.iter().filter(|s| s.ok).count() as u64,
        first_failure: logs.into_iter().find_map(|l| l.first_failure),
    }
}
