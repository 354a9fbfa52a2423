//! What the benchmark asks of the operating system: a counting global
//! allocator, CPU affinity, process CPU time and context switches
//! (`getrusage`), and the `/proc/self/status` fields for peak memory and
//! thread count.
//!
//! This is the crate's only unsafe code: the allocator shim and three
//! calls into the libc that `std` already links.

#![allow(unsafe_code)]

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("fluidbench reads /proc and calls getrusage with the 64-bit Linux struct layout");

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Forwards to the system allocator; counts calls and bytes while
/// [`count_allocations`] is on. Off, it costs one relaxed load per call.
pub struct CountingAllocator;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain statistics.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn note(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Switches allocation counting on or off (traced segments only).
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` counted so far.
pub fn allocations() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

/// Process-wide resource use since start, threads that have exited included
/// (which `/proc/self/task/*` would lose on the reconnect workload).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// User + system CPU time, milliseconds (µs resolution;
    /// `/proc/self/stat` ticks are 10 ms, too coarse for the 20 req/s
    /// workload).
    pub cpu_ms: f64,
    /// Voluntary + involuntary context switches.
    pub ctx_switches: u64,
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

/// `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

const CPU_SET_BYTES: usize = std::mem::size_of::<CpuSet>();

/// The CPUs the calling thread may run on, ascending.
fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of the size passed; pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, CPU_SET_BYTES, &mut set) } != 0 {
        return Vec::new();
    }
    (0..CPU_SET_BYTES * 8)
        .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Pins the calling thread, and so every thread and child process started
/// after it, to the highest-numbered CPU it may run on; returns that CPU.
/// `None` where the kernel refuses: the run goes on unpinned, the host meta
/// block says so, and its numbers compare only with their own kind.
///
/// On the reference host (a two-vCPU microVM) a wake-up across vCPUs costs
/// a VM exit, and the kernel keeps a caller and its worker stacked on one
/// vCPU or spread over two for seconds at a time: unpinned, `pair_ha` reads
/// 5 800 or 7 700 req/s depending on the placement it happened to get.
/// Pinning callers and system to one CPU each fixes the placement but not
/// the spread: run alternately, ten runs each, `cluster_closed_b1` moved by
/// 2.4% between runs on one CPU and by 8.7% on two, and `pair_ha`'s p50
/// fell into two camps (0.114 and 0.155 ms). On one CPU every workload
/// measures the length of its code path, which is what most changes to the
/// code move; what it cannot show is a gain from two threads running at
/// once, and `BENCHMARK.json` says so on every workload.
pub fn pin_to_one_cpu() -> Option<usize> {
    let cpu = *allowed_cpus().last()?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of the size passed, read only.
    (unsafe { sched_setaffinity(0, CPU_SET_BYTES, &one) } == 0).then_some(cpu)
}

/// Reads `getrusage(RUSAGE_SELF)`.
pub fn usage() -> Usage {
    const RUSAGE_SELF: i32 = 0;
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout the
    // 64-bit Linux ABI defines; the call writes it and nothing else.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let ms = |t: &Timeval| t.sec as f64 * 1e3 + t.usec as f64 / 1e3;
    Usage {
        cpu_ms: ms(&ru.utime) + ms(&ru.stime),
        ctx_switches: (ru.nvcsw + ru.nivcsw) as u64,
    }
}

/// The fields of `/proc/self/status` the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcStatus {
    /// `VmHWM`: peak resident set size, kB.
    pub vm_hwm_kb: u64,
    /// `Threads`: live threads right now.
    pub threads: u64,
}

/// Parses the text of `/proc/<pid>/status`.
pub fn parse_status(text: &str) -> Result<ProcStatus, String> {
    let field = |key: &str| -> Result<u64, String> {
        let line = text
            .lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
            .ok_or_else(|| format!("no {key} line in /proc status"))?;
        let number = line.split_whitespace().next().unwrap_or("");
        number
            .parse()
            .map_err(|_| format!("{key} value {number:?} is not a number"))
    };
    Ok(ProcStatus {
        vm_hwm_kb: field("VmHWM")?,
        threads: field("Threads")?,
    })
}

/// Reads and parses `/proc/self/status`.
pub fn status() -> Result<ProcStatus, String> {
    let text = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    parse_status(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Captured from a live `fluidbench` child on the reference host.
    const STATUS: &str = "Name:\tfluidbench\nUmask:\t0022\nState:\tR (running)\nTgid:\t4242\n\
Pid:\t4242\nPPid:\t4200\nFDSize:\t64\nVmPeak:\t  301540 kB\nVmSize:\t  235964 kB\n\
VmHWM:\t   18432 kB\nVmRSS:\t   17920 kB\nRssAnon:\t   12288 kB\nThreads:\t9\n\
SigQ:\t0/62703\nvoluntary_ctxt_switches:\t1391\nnonvoluntary_ctxt_switches:\t17\n";

    #[test]
    fn status_fixture_parses() {
        assert_eq!(
            parse_status(STATUS),
            Ok(ProcStatus {
                vm_hwm_kb: 18432,
                threads: 9
            })
        );
    }

    #[test]
    fn status_without_a_field_is_an_error() {
        let err = parse_status("Name:\tx\nThreads:\t3\n").unwrap_err();
        assert!(err.contains("VmHWM"), "{err}");
        let err = parse_status("VmHWM:\tlots kB\nThreads:\t3\n").unwrap_err();
        assert!(err.contains("not a number"), "{err}");
    }

    #[test]
    fn live_readings_are_sane() {
        let s = status().expect("status");
        assert!(s.vm_hwm_kb > 0 && s.threads >= 1);
        let before = usage();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(usage().cpu_ms > before.cpu_ms);
    }

    #[test]
    fn pinning_leaves_one_cpu_and_its_threads_inherit_it() {
        // Runs on a thread of its own, so the other tests keep their CPUs.
        std::thread::spawn(|| {
            let before = allowed_cpus();
            match pin_to_one_cpu() {
                Some(cpu) => {
                    assert_eq!(Some(&cpu), before.last());
                    assert_eq!(allowed_cpus(), [cpu]);
                    let child = std::thread::spawn(allowed_cpus).join();
                    assert_eq!(child.expect("spawned thread"), [cpu]);
                    assert_eq!(pin_to_one_cpu(), Some(cpu));
                }
                // Refused: nothing moved.
                None => assert_eq!(allowed_cpus(), before),
            }
        })
        .join()
        .expect("pinning thread");
    }

    #[test]
    fn allocations_count_only_while_on() {
        // The test binary runs under the counting allocator too (it is the
        // crate's global allocator). Other tests allocate concurrently, so
        // only lower bounds hold.
        let (a0, b0) = allocations();
        count_allocations(true);
        let v = std::hint::black_box(vec![0u8; 4096]);
        count_allocations(false);
        drop(v);
        let (a1, b1) = allocations();
        assert!(
            a1 > a0 && b1 >= b0 + 4096,
            "{a0}->{a1} calls, {b0}->{b1} bytes"
        );
    }
}
