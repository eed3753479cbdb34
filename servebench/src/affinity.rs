//! Runs the cluster's strictly sequential round trips on one CPU.
//!
//! `LocalCluster` is six threads (caller, coordinator, four sites) of
//! which only one is busy at a time. Left to the scheduler on a
//! two-vCPU guest, each hand-off may wake the other vCPU, and what that
//! costs depends on the host's load, not on the program: `cluster_k4`
//! throughput then swung by a quarter from run to run, with single
//! repetitions falling to a third of the rest. On one CPU every hand-off
//! is a same-CPU context switch, and the figure is the protocol's own.

/// The CPUs the calling thread may run on (none where the mask cannot
/// be read).
pub fn allowed() -> Vec<usize> {
    sys::get().map_or_else(Vec::new, |mask| cpus(&mask))
}

/// Call `f` with the calling thread, and every thread it spawns, bound
/// to the last CPU it may run on; the thread's own mask is restored
/// afterwards. Where the mask cannot be read or set, `f` runs unbound.
pub fn on_one_cpu<T>(f: impl FnOnce() -> T) -> T {
    let Some(mask) = sys::get() else {
        return f();
    };
    let Some(&cpu) = cpus(&mask).last() else {
        return f();
    };
    let mut one = [0u64; sys::WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    let bound = sys::set(&one);
    let out = f();
    if bound {
        sys::set(&mask);
    }
    out
}

fn cpus(mask: &[u64; sys::WORDS]) -> Vec<usize> {
    (0..sys::BITS)
        .filter(|&i| mask[i / 64] >> (i % 64) & 1 == 1)
        .collect()
}

#[cfg(target_os = "linux")]
mod sys {
    /// Words in the kernel's default `cpu_set_t` (1024 CPUs).
    pub const WORDS: usize = 16;
    pub const BITS: usize = WORDS * 64;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// The calling thread's CPU mask.
    pub fn get() -> Option<[u64; WORDS]> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    /// Bind the calling thread to `mask`; false if the kernel refused.
    pub fn set(mask: &[u64; WORDS]) -> bool {
        // SAFETY: `mask` is a readable buffer of exactly the size passed.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub const WORDS: usize = 16;
    pub const BITS: usize = WORDS * 64;

    pub fn get() -> Option<[u64; WORDS]> {
        None
    }

    pub fn set(_: &[u64; WORDS]) -> bool {
        false
    }
}
