//! CPU placement of the benchmark's own threads (Linux).
//!
//! On a 2-CPU host a single-shard run keeps the generator and observer on
//! one CPU and the shard on the other, so the scheduler cannot stack the
//! shard onto the busy generator's CPU for part of a run and not for
//! another. Threads inherit the mask of the thread that spawns them, so
//! setting the calling thread's mask around `ShardedRuntime` construction
//! places the shard threads without touching the runtime.

use std::os::raw::c_int;

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
}

/// CPUs the calling thread may run on, ascending.
fn allowed() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: pid 0 names the calling thread; `set` is a writable buffer
    // of exactly the size passed.
    let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } == 0;
    if !ok {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| set[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

/// Restrict the calling thread to `cpus` (best effort: a refused mask
/// leaves the thread where it was).
pub fn restrict(cpus: &[usize]) {
    let mut set: CpuSet = [0; 16];
    for &c in cpus.iter().filter(|&&c| c < 1024) {
        set[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: pid 0 names the calling thread; `set` is a readable buffer
    // of exactly the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
}

/// The CPUs the process could use when the benchmark started (before any
/// restriction of the main thread).
pub fn allowed_at_start() -> &'static [usize] {
    static CPUS: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    CPUS.get_or_init(allowed)
}
