//! Pins the benchmark to one CPU.
//!
//! On the two-core guest this was written on, what the second core does
//! decides the numbers: a halted core costs about 40 µs to wake, so the
//! same hit reads 90 µs or 200 µs depending on what ran before, and
//! when both cores are busy at once the pair runs up to 35 % slower for
//! minutes at a time (the host's doing). The work itself is a ping-pong
//! between the load generator and the daemon, which one core serves as
//! fast as two — `warm_4x4` takes 1.07 s a pass pinned and 1.09–1.57 s
//! not — so the benchmark gives the second core up for steadiness.

// The two calls std has no wrapper for; std already links the C
// library they live in.
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Room for 1024 CPUs, the size of glibc's `cpu_set_t`.
const WORDS: usize = 16;

/// Restricts the calling thread to the lowest-numbered CPU it may run
/// on and returns that CPU. Threads and processes started afterwards
/// inherit the restriction, so calling this first thing in `main` pins
/// the load generator and every daemon it boots. `None` if the kernel
/// refuses; the run then goes on unpinned.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `size` bytes,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().position(|&w| w != 0)?;
    let bit = mask[word].trailing_zeros() as usize;
    let mut one = [0u64; WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of exactly `size` bytes that the
    // call only reads.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(word * 64 + bit)
}
