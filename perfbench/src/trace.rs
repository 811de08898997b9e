//! Spans the benchmark records around its own calls into each layer.
//!
//! Nothing inside the crates is traced: a span opens right before the
//! benchmark calls a layer's public function and closes when it returns.
//! Spans stay in memory and are written out once, as a Chrome trace, when
//! the run ends. Layer self time comes from the collapsed-stack logic of
//! `lvf2_obs::trace_export`.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use lvf2::obs::trace_export::{to_chrome_trace, to_collapsed, SpanEvent};

/// Layer names a span may carry, besides the per-operation root `op`.
pub const LAYERS: [&str; 6] = ["cells", "fit", "liberty", "binning", "ssta", "serve"];

thread_local! {
    static PARENT: Cell<u64> = const { Cell::new(0) };
    static TRACK: Cell<u64> = const { Cell::new(0) };
}

/// An in-memory span recorder; a disabled one only runs the closures.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanEvent>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Names the calling thread's track in the written trace.
    pub fn set_track(track: u64) {
        TRACK.with(|t| t.set(track));
    }

    /// Runs `f` inside a span named `name`, a child of the calling
    /// thread's innermost open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let parent = PARENT.with(|p| p.replace(id));
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        PARENT.with(|p| p.set(parent));
        let event = SpanEvent {
            name: name.to_string(),
            start_us: start.duration_since(self.epoch).as_micros() as u64,
            dur_us: end.duration_since(start).as_micros() as u64,
            worker: TRACK.with(Cell::get),
            span_id: id,
            parent_id: parent,
            trace_id: String::new(),
        };
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking span")
            .push(event);
        out
    }

    /// Self time per span name, in microseconds: each span's duration
    /// minus the part its direct children cover.
    pub fn self_time_us(&self) -> BTreeMap<String, u64> {
        let spans = self.spans.lock().expect("span list lock poisoned");
        let mut by_name = BTreeMap::new();
        for line in to_collapsed(&spans).lines() {
            let Some((stack, us)) = line.rsplit_once(' ') else {
                continue;
            };
            let leaf = stack.rsplit(';').next().unwrap_or(stack);
            *by_name.entry(leaf.to_string()).or_insert(0) += us.parse::<u64>().unwrap_or(0);
        }
        by_name
    }

    /// Writes every recorded span as a Chrome trace.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list lock poisoned");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, to_chrome_trace(&spans).to_json())
    }
}

/// The trace-derived metrics of one traced pass: `share.<layer>` (self
/// time ÷ (wall × tracks)) for every layer, and `coverage`, their sum.
pub fn shares(tracer: &Tracer, wall_s: f64, tracks: usize) -> Vec<(String, f64)> {
    let self_us = tracer.self_time_us();
    let budget_us = wall_s * 1e6 * tracks.max(1) as f64;
    let mut out = Vec::new();
    let mut covered = 0.0;
    for layer in LAYERS {
        let share = self_us.get(layer).copied().unwrap_or(0) as f64 / budget_us;
        covered += share;
        out.push((format!("share.{layer}"), share));
    }
    out.push(("coverage".to_string(), covered));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        t.span("op", || {
            t.span("fit", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let st = t.self_time_us();
        assert!(st["fit"] >= 20_000);
        assert!(
            st["op"] >= 5_000 && st["op"] < 20_000,
            "op self {}",
            st["op"]
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("fit", || 7), 7);
        assert!(t.self_time_us().is_empty());
    }
}
