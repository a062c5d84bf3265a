//! Facts about the process and the machine that go into the output.

use std::path::Path;
use std::process::Command;

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// HEAD of the checkout the benchmark runs in, read from `.git` directly so
/// nothing outside the checkout is touched; `unknown` in a plain directory.
pub fn git_sha(root: &Path) -> String {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => std::fs::read_to_string(git.join(r))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
                packed
                    .lines()
                    .find_map(|l| l.strip_suffix(r).map(|sha| sha.trim().to_string()))
            })
            .unwrap_or_default(),
    };
    match sha.trim() {
        "" => "unknown".to_string(),
        s => s.to_string(),
    }
}

pub fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Restricts this process — and every thread it later spawns — to one CPU,
/// the highest-numbered one it is allowed to run on. Returns that CPU, or
/// `None` where the call is unavailable or refused (the run then goes ahead
/// unpinned and says so).
///
/// Why: with 2 cores and 4–6 runnable, yield-polling threads, which threads
/// share a core is the scheduler's choice per attach, and throughput follows
/// it (README, "Thread budget"). On one CPU the threads hand over by
/// `sched_yield` in a fixed rotation and the figure measures CPU work per
/// batch across all of them.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    // `cpu_set_t` is 1024 bits.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; WORDS];
    // SAFETY: `allowed` is a live, writable buffer of exactly the byte
    // length passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, WORDS * 8, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..WORDS * 64)
        .rev()
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the byte length passed and
    // is only read; pid 0 names the calling thread.
    (unsafe { sched_setaffinity(0, WORDS * 8, one.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}
