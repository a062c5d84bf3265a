//! The shared monotonic clock: every span timestamp in the process is
//! nanoseconds since one lazily-anchored [`Instant`], so timestamps taken on
//! different threads (GPU doorbell writer, CPU poller, workers, device
//! service threads) are directly comparable.
//!
//! It also owns [`exact_sleeps`], the one place a thread opts out of Linux
//! timer slack, so a thread that sleeps to model time sleeps for the time
//! it asks for.

use std::path::PathBuf;
#[cfg(debug_assertions)]
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

#[cfg(debug_assertions)]
static READS: AtomicU64 = AtomicU64::new(0);

/// The process-wide telemetry epoch. Anchored on first use.
pub fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since [`epoch`].
pub fn now_ns() -> u64 {
    #[cfg(debug_assertions)]
    READS.fetch_add(1, Ordering::Relaxed);
    epoch().elapsed().as_nanos() as u64
}

/// Process-wide number of [`now_ns`] calls so far. Exists only in debug
/// builds (release builds compile no counter), for tests that hold a hot
/// path to a clock-read budget (`crates/nvme/tests/clock_budget.rs`).
#[cfg(debug_assertions)]
pub fn reads() -> u64 {
    READS.load(Ordering::Relaxed)
}

/// Makes the calling thread's sleeps end when they are due: sets its Linux
/// timer slack to 1 ns.
///
/// The kernel may defer a sleeping thread's wake-up by its timer slack
/// (50 µs by default) to coalesce timers, so under the default a
/// `std::thread::sleep(100 µs)` takes about 154 µs; after this call it
/// takes about 104 µs. The setting is per thread and lasts for the
/// thread's life. It needs no privilege, because a thread may always set
/// its own slack.
///
/// Writes `1` to `/proc/<tid>/timerslack_ns`, with the thread id read from
/// the `/proc/thread-self` link. A silent no-op where `/proc` is absent or
/// refuses the write. One call costs tens of µs, so make it once, before a
/// thread's loop, and only on threads whose sleeps model time.
pub fn exact_sleeps() {
    if let Some(path) = own_slack_path() {
        let _ = std::fs::write(path, "1");
    }
}

/// `/proc/<tid>/timerslack_ns` of the calling thread. The file lives only
/// at the top level of `/proc`, not under `/proc/<pid>/task/<tid>/`, so the
/// path is built from the tid that `/proc/thread-self` (`<pid>/task/<tid>`)
/// names.
fn own_slack_path() -> Option<PathBuf> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    Some(
        PathBuf::from("/proc")
            .join(link.file_name()?)
            .join("timerslack_ns"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_sleeps_sets_the_calling_threads_slack_to_one_ns() {
        std::thread::spawn(|| {
            let Some(path) = own_slack_path() else {
                return; // no /proc/thread-self: nothing to set
            };
            exact_sleeps();
            let slack = std::fs::read_to_string(path).expect("read timerslack_ns");
            assert_eq!(slack.trim(), "1");
        })
        .join()
        .expect("probe thread");
    }

    #[test]
    fn clock_is_monotone() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn epoch_is_stable() {
        assert_eq!(epoch(), epoch());
    }
}
