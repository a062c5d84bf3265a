//! Fault-triggered post-mortem dumps.
//!
//! When something goes wrong — `FaultyStore` injects an error into a batch,
//! or a batch blows through a configured deadline — aggregate metrics tell
//! you *that* it happened, not *what led up to it*. The [`PostmortemDumper`]
//! pairs a [`FlightRecorder`] with a [`MetricsRegistry`]: on `trigger`, it
//! snapshots the last N events plus the full registry to a JSON file for
//! offline diagnosis, exactly like pulling the flight recorder after an
//! incident.
//!
//! Dumps are capped (`max_dumps`) so a fault storm cannot fill the disk;
//! each dump gets a distinct `-<n>` suffixed path after the first.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::event::Event;
use crate::json::Json;
use crate::recorder::FlightRecorder;
use crate::{obj, MetricsRegistry};

/// Where and how much to dump. See [`PostmortemDumper`].
#[derive(Clone, Debug)]
pub struct PostmortemConfig {
    /// Path of the first dump; later dumps insert `-<n>` before the
    /// extension.
    pub path: PathBuf,
    /// How many trailing events to include.
    pub last_events: usize,
    /// Hard cap on dumps written over the process lifetime.
    pub max_dumps: u64,
}

impl PostmortemConfig {
    /// Defaults: 512 trailing events, at most 4 dumps.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        PostmortemConfig {
            path: path.into(),
            last_events: 512,
            max_dumps: 4,
        }
    }
}

/// Snapshots recorder + registry state to a JSON file when triggered.
pub struct PostmortemDumper {
    recorder: Arc<FlightRecorder>,
    registry: Arc<MetricsRegistry>,
    cfg: PostmortemConfig,
    dumps: AtomicU64,
}

impl PostmortemDumper {
    /// A dumper wired to `recorder` and `registry`.
    pub fn new(
        recorder: Arc<FlightRecorder>,
        registry: Arc<MetricsRegistry>,
        cfg: PostmortemConfig,
    ) -> Self {
        PostmortemDumper {
            recorder,
            registry,
            cfg,
            dumps: AtomicU64::new(0),
        }
    }

    /// Dumps written so far.
    pub fn dumps(&self) -> u64 {
        self.dumps.load(Ordering::Relaxed)
    }

    /// The recorder this dumper snapshots.
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    fn dump_path(&self, n: u64) -> PathBuf {
        if n == 0 {
            return self.cfg.path.clone();
        }
        let stem = self
            .cfg
            .path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("postmortem");
        let ext = self
            .cfg
            .path
            .extension()
            .and_then(|s| s.to_str())
            .unwrap_or("json");
        self.cfg.path.with_file_name(format!("{stem}-{n}.{ext}"))
    }

    /// Renders the dump body.
    pub fn render(&self, reason: &str) -> String {
        let events = self.recorder.last_n(self.cfg.last_events);
        let threads = self.recorder.thread_names();
        let dump = obj! {
            "reason" => reason,
            "triggered_at_ns" => crate::clock::now_ns(),
            "events_emitted" => self.recorder.emitted(),
            "events_dropped" => self.recorder.dropped(),
            "threads" => Json::obj(threads.into_iter().map(|(tid, name)| (tid.to_string(), name.into()))),
            "events" => Json::arr(events.iter().map(Event::to_json)),
            "metrics" => self.registry.snapshot().to_json(),
        };
        format!("{dump:#}")
    }

    /// Writes a dump unless the cap is reached. Returns the path written,
    /// or `None` if capped or the write failed (a post-mortem must never
    /// take the process down with it).
    pub fn trigger(&self, reason: &str) -> Option<PathBuf> {
        let n = self.dumps.fetch_add(1, Ordering::Relaxed);
        if n >= self.cfg.max_dumps {
            return None;
        }
        let path = self.dump_path(n);
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                let _ = std::fs::create_dir_all(parent);
            }
        }
        match std::fs::write(&path, self.render(reason)) {
            Ok(()) => Some(path),
            Err(_) => None,
        }
    }
}

impl std::fmt::Debug for PostmortemDumper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PostmortemDumper")
            .field("path", &self.cfg.path)
            .field("dumps", &self.dumps())
            .finish()
    }
}

/// Joins a base path with a test-scoped unique name under the target tmp dir.
#[cfg(test)]
fn tmp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("cam-postmortem-{}-{name}", std::process::id()));
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::json::{parse, Json};

    fn dumper(last_events: usize, max_dumps: u64, tag: &str) -> PostmortemDumper {
        let rec = Arc::new(FlightRecorder::new());
        let reg = Arc::new(MetricsRegistry::new());
        reg.counter("cam_fault_injected_total").inc();
        let mut cfg = PostmortemConfig::new(tmp_path(tag));
        cfg.last_events = last_events;
        cfg.max_dumps = max_dumps;
        PostmortemDumper::new(rec, reg, cfg)
    }

    #[test]
    fn render_is_valid_json_with_window_and_metrics() {
        let d = dumper(4, 4, "render.json");
        for i in 0..10u64 {
            d.recorder()
                .emit_at(i, EventKind::FaultInjected { lba: i, read: true });
        }
        // Reasons are arbitrary caller text: control characters and quotes
        // must survive the trip through the file.
        for reason in ["fault injected: lba 9", "line\nbreak\t\"q\""] {
            let parsed = parse(&d.render(reason)).expect("dump parses");
            assert_eq!(parsed.get("reason").and_then(Json::as_str), Some(reason));
        }
        let parsed = parse(&d.render("fault injected: lba 9")).expect("dump parses");
        let events = parsed.get("events").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 4, "window is last N");
        // The window holds the most recent events.
        assert_eq!(events[3].get("lba").and_then(Json::as_f64), Some(9.0));
        let metrics = parsed.get("metrics").expect("registry embedded");
        assert_eq!(
            metrics
                .get("counters")
                .and_then(|c| c.get("cam_fault_injected_total"))
                .and_then(Json::as_f64),
            Some(1.0)
        );
    }

    #[test]
    fn trigger_writes_capped_distinct_files() {
        let d = dumper(8, 2, "cap.json");
        d.recorder().emit(EventKind::FaultInjected {
            lba: 1,
            read: false,
        });
        let p0 = d.trigger("first").expect("dump 0 written");
        let p1 = d.trigger("second").expect("dump 1 written");
        assert!(d.trigger("third").is_none(), "cap enforced");
        assert_ne!(p0, p1);
        assert!(p0.exists() && p1.exists());
        assert_eq!(d.dumps(), 3); // attempts counted, writes capped
        let _ = std::fs::remove_file(p0);
        let _ = std::fs::remove_file(p1);
    }
}
