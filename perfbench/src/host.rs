//! The host side of a run: CPU pinning, peak memory, and a fixed reference
//! kernel that tracks the host's speed while a run measures.

use std::hint::black_box;

/// `cpu_set_t` as glibc lays it out: 1024 bits.
type CpuSet = [u64; 16];

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn getppid() -> i32;
}

/// Pin the calling thread to the highest-numbered CPU it may run on and
/// return that CPU. Call before any other thread exists: threads inherit
/// the mask, so the client, session and executor threads then share one
/// CPU and never pay a cross-CPU wake-up.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| allowed[c / 64] & (1 << (c % 64)) != 0)
        .ok_or("empty affinity mask")?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed and is only
    // read; pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// CPU time this thread has run, in µs: unlike wall time, it does not grow
/// while other threads of the process hold the CPU.
fn thread_cpu_us() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec`; the clock id is a
    // constant Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as f64 * 1e6 + ts.nsec as f64 / 1e3
}

/// System calls per host reference probe.
const REF_SYSCALLS: u32 = 1000;

/// The mean [`reference_probe`] on the calibration host (see README) at its
/// usual speed. Gated timings are scaled to it: a run whose reference reads twice
/// this reports half the latency it measured, and twice the throughput.
pub const REF_NOMINAL_US: f64 = 110.0;

/// One host reference probe: µs of this thread's CPU time for
/// [`REF_SYSCALLS`] `getppid` calls. The engine's operations are made of
/// kernel entries, thread hand-offs and memory traffic, and on a shared
/// host a system call's cost swings with the host's load about as much as
/// they do, while a pure integer loop swings a third as much; see README.
/// The probe shares no code or data with the engine, and CPU time does not
/// count time an engine thread holds the CPU, so no change to the engine
/// moves it.
pub fn reference_probe() -> f64 {
    let t = thread_cpu_us();
    let mut acc = 0i32;
    for _ in 0..REF_SYSCALLS {
        // SAFETY: `getppid` takes no arguments and cannot fail.
        acc = acc.wrapping_add(unsafe { getppid() });
    }
    black_box(acc);
    thread_cpu_us() - t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_probe_takes_cpu_time() {
        let p = reference_probe();
        assert!(p > 0.0 && p.is_finite(), "probe read {p} µs");
    }
}
