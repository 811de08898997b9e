//! `lvf2-obs` — structured tracing, metrics, and convergence telemetry for
//! the LVF² characterization→fit→SSTA pipeline.
//!
//! The pipeline's accuracy claims rest on EM fits that actually converge and
//! on Monte-Carlo runs large enough to resolve bimodal tails; this crate
//! makes both observable without perturbing them:
//!
//! - **Spans** ([`Obs::span`]): hierarchically named, monotonic wall-clock
//!   timings emitted as JSONL events and aggregated into `time.*`
//!   histograms.
//! - **Metrics** ([`Obs::inc`] / [`Obs::observe`]): a sharded
//!   counter/histogram registry whose aggregates are **bit-identical at any
//!   thread count** (see [`metrics`]) — the observability layer obeys the
//!   same determinism contract as `lvf2-parallel` itself.
//! - **Typed fit telemetry** ([`Obs::fit_event`]): every EM run reports
//!   iterations, restarts, final log-likelihood, degenerate components, and
//!   convergence; non-convergence becomes a warning event and a counter
//!   instead of vanishing.
//!
//! # Wiring
//!
//! One [`Obs`] handle is *installed* per process (usually by the CLI or a
//! bench binary) and the instrumented crates pick it up with
//! [`Obs::current`]. When nothing is installed every instrumentation call is
//! a single relaxed atomic load — the pipeline's hot paths are unaffected.
//!
//! ```
//! use lvf2_obs::{Obs, ObsConfig};
//!
//! let cfg = ObsConfig { metrics: true, ..ObsConfig::off() };
//! let guard = Obs::install(&cfg).unwrap();
//! let obs = Obs::current();
//! obs.inc("mc.samples", 4096);
//! let snap = obs.snapshot().unwrap();
//! assert_eq!(snap.counters["mc.samples"], 4096);
//! drop(guard); // uninstalls; writes the metrics file if one was configured
//! ```
//!
//! The crate is dependency-free (the build environment is offline); it
//! carries its own small JSON reader/writer in [`json`] and documents its
//! emitted schemas in `docs/OBSERVABILITY.md`, which [`schema`] validates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell as StdCell;
use std::cell::RefCell;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub mod compare;
pub mod json;
pub mod metrics;
pub mod schema;
pub mod trace_export;

pub use compare::{compare_bench, BenchComparison, CompareConfig};
use json::Value;
pub use metrics::{HistSummary, Registry, Snapshot};

// ---------------------------------------------------------------------------
// Worker identity (set by lvf2-parallel)

thread_local! {
    static WORKER_INDEX: StdCell<usize> = const { StdCell::new(0) };
}

/// Tags the current thread with its worker slot. `lvf2-parallel` calls this
/// with `1 + slot` in each scoped worker; the orchestrating thread keeps
/// index 0. The index routes metric writes to per-worker shards.
pub fn set_worker_index(index: usize) {
    WORKER_INDEX.with(|w| w.set(index));
}

/// The current thread's worker slot (0 outside a worker pool).
pub fn worker_index() -> usize {
    WORKER_INDEX.with(|w| w.get())
}

// ---------------------------------------------------------------------------
// Trace context (request-scoped trace id + active span id)

/// The ambient trace position of the current thread: which request trace it
/// belongs to and which span is currently open. [`Obs::span`] saves and
/// restores it automatically, so nested spans form a tree; `lvf2-parallel`
/// copies it onto its scoped workers so pool spans stay parented to the
/// submitting span; the serve worker loop installs the client's trace id
/// before executing a job. A zero field means "none".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceContext {
    /// The end-to-end request trace this thread is working for (0 = none).
    pub trace_id: u64,
    /// The innermost open span on this logical call path (0 = root).
    pub span_id: u64,
}

thread_local! {
    static SPAN_CONTEXT: StdCell<TraceContext> = const { StdCell::new(TraceContext { trace_id: 0, span_id: 0 }) };
    static SPAN_COLLECTOR: RefCell<Option<Vec<CollectedSpan>>> = const { RefCell::new(None) };
}

/// Process-wide span id allocator (ids start at 1; 0 means "no span").
/// Global rather than per-session so ids stay unique across nested
/// [`Obs::install`] scopes.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// The current thread's [`TraceContext`].
pub fn span_context() -> TraceContext {
    SPAN_CONTEXT.with(|c| c.get())
}

/// Replaces the current thread's [`TraceContext`]. Used by `lvf2-parallel`
/// (propagating the submitter's context onto pool workers) and by the serve
/// worker loop (installing the client's trace id); plain nesting should go
/// through [`Obs::span`], which saves and restores around itself.
pub fn set_span_context(ctx: TraceContext) {
    SPAN_CONTEXT.with(|c| c.set(ctx));
}

/// Formats a trace id as the 16-digit hex string used on the wire and in
/// JSONL records (`u64` doesn't survive a round-trip through f64 JSON
/// numbers, a fixed-width string does).
pub fn trace_id_hex(id: u64) -> String {
    format!("{id:016x}")
}

/// Parses a hex trace id as emitted by [`trace_id_hex`] (leading zeros
/// optional). Returns `None` for empty or non-hex input.
pub fn parse_trace_id(s: &str) -> Option<u64> {
    if s.is_empty() || s.len() > 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// One finished span captured by the thread-local collector; see
/// [`begin_span_collection`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectedSpan {
    /// Span name (e.g. `serve.job.characterize`).
    pub name: String,
    /// Wall-clock duration in microseconds.
    pub us: u64,
    /// This span's id.
    pub span_id: u64,
    /// The enclosing span's id (0 = root of the collection).
    pub parent_id: u64,
}

/// Starts capturing finished spans on the *current thread* (clearing any
/// previous capture). The serve worker loop uses this to echo server-side
/// span timings back to the client. Spans that close on other threads —
/// e.g. inside a `lvf2-parallel` scope — are not captured; they still reach
/// the JSONL trace with the propagated trace id.
pub fn begin_span_collection() {
    SPAN_COLLECTOR.with(|c| *c.borrow_mut() = Some(Vec::new()));
}

/// Stops the current thread's span capture and returns everything collected
/// since [`begin_span_collection`] (empty if capture was never started).
pub fn take_collected_spans() -> Vec<CollectedSpan> {
    SPAN_COLLECTOR.with(|c| c.borrow_mut().take().unwrap_or_default())
}

// ---------------------------------------------------------------------------
// Levels and configuration

/// Log/event severity, ordered. `verbosity = Info` emits Error..=Info.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Nothing is emitted to stderr.
    Silent,
    /// Errors only (`-q`).
    Error,
    /// Errors and warnings.
    Warn,
    /// Normal operational chatter (the default).
    Info,
    /// Per-iteration diagnostics such as EM trajectories (`-v`).
    Debug,
}

impl Level {
    /// Lower-case name used in JSONL events.
    pub fn name(self) -> &'static str {
        match self {
            Level::Silent => "silent",
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// Configuration for one installed observability session.
///
/// The default ([`ObsConfig::off`]) disables everything; the pipeline then
/// runs exactly as before (a single atomic load per instrumentation point).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsConfig {
    /// stderr verbosity.
    pub verbosity: Level,
    /// Collect metrics in memory (implied by `metrics_path`).
    pub metrics: bool,
    /// Write JSONL span/event/log records here.
    pub trace_path: Option<String>,
    /// Write the metrics snapshot here on uninstall.
    pub metrics_path: Option<String>,
    /// Emit coarse progress lines to stderr.
    pub progress: bool,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig::off()
    }
}

impl ObsConfig {
    /// Everything disabled — the zero-overhead default.
    pub fn off() -> Self {
        ObsConfig {
            verbosity: Level::Silent,
            metrics: false,
            trace_path: None,
            metrics_path: None,
            progress: false,
        }
    }

    /// Standard CLI defaults: `Info` verbosity, no sinks.
    pub fn stderr() -> Self {
        ObsConfig {
            verbosity: Level::Info,
            ..ObsConfig::off()
        }
    }

    /// Whether installing this configuration would observe anything at all.
    pub fn enabled(&self) -> bool {
        self.verbosity > Level::Silent
            || self.metrics
            || self.progress
            || self.trace_path.is_some()
            || self.metrics_path.is_some()
    }

    /// Extracts the shared observability flags from a raw argument list,
    /// returning the config and the remaining arguments.
    ///
    /// Recognized: `--trace-json PATH`, `--metrics-json PATH`, `--metrics`,
    /// `--progress`, `-v`/`--verbose`, `-q`/`--quiet`. Both the CLI and the
    /// bench binaries parse with this, so the flags behave identically
    /// everywhere.
    ///
    /// # Errors
    ///
    /// A message when a `PATH`-taking flag is missing its value.
    pub fn from_args(args: &[String]) -> Result<(ObsConfig, Vec<String>), String> {
        let mut cfg = ObsConfig::stderr();
        let mut rest = Vec::with_capacity(args.len());
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--trace-json" => {
                    cfg.trace_path =
                        Some(it.next().ok_or("--trace-json requires a path")?.to_string());
                }
                "--metrics-json" => {
                    cfg.metrics_path = Some(
                        it.next()
                            .ok_or("--metrics-json requires a path")?
                            .to_string(),
                    );
                    cfg.metrics = true;
                }
                "--metrics" => cfg.metrics = true,
                "--progress" => cfg.progress = true,
                "-v" | "--verbose" => cfg.verbosity = Level::Debug,
                "-q" | "--quiet" => cfg.verbosity = Level::Error,
                _ => rest.push(a.clone()),
            }
        }
        Ok((cfg, rest))
    }
}

// ---------------------------------------------------------------------------
// The installed sink

#[derive(Debug)]
struct Inner {
    verbosity: Level,
    progress: bool,
    start: Instant,
    seq: AtomicU64,
    trace: Option<Mutex<BufWriter<File>>>,
    metrics_path: Option<String>,
    registry: Option<Registry>,
}

impl Inner {
    fn emit(&self, mut pairs: Vec<(String, Value)>) {
        let Some(trace) = &self.trace else { return };
        let mut head = vec![
            (
                "t_us".to_string(),
                Value::from(self.start.elapsed().as_micros() as u64),
            ),
            (
                "seq".to_string(),
                Value::from(self.seq.fetch_add(1, Ordering::Relaxed)),
            ),
        ];
        head.append(&mut pairs);
        let line = Value::Obj(head).to_json();
        let mut w = trace.lock().expect("trace sink poisoned");
        let _ = writeln!(w, "{line}");
    }

    fn finish(&self) {
        if let Some(trace) = &self.trace {
            let _ = trace.lock().expect("trace sink poisoned").flush();
        }
        if let (Some(path), Some(reg)) = (&self.metrics_path, &self.registry) {
            let doc = reg.snapshot().to_json().to_json();
            if let Err(e) = std::fs::write(path, doc + "\n") {
                eprintln!("error: failed to write metrics to {path}: {e}");
            }
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static CURRENT: Mutex<Option<Arc<Inner>>> = Mutex::new(None);

/// Uninstalls the [`Obs`] it guards on drop: flushes the trace sink, writes
/// the metrics file, and restores whatever was installed before.
#[derive(Debug)]
pub struct ObsGuard {
    installed: Option<Arc<Inner>>,
    previous: Option<Arc<Inner>>,
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        if let Some(inner) = self.installed.take() {
            let mut cur = CURRENT.lock().expect("obs registry poisoned");
            // Only restore if we are still the installed sink (guards are
            // expected to nest, but tolerate out-of-order drops).
            if cur.as_ref().is_some_and(|c| Arc::ptr_eq(c, &inner)) {
                *cur = self.previous.take();
                ENABLED.store(cur.is_some(), Ordering::Release);
            }
            drop(cur);
            inner.finish();
        }
    }
}

/// A cheap handle to the installed observability session (possibly a no-op).
#[derive(Debug, Clone)]
pub struct Obs {
    inner: Option<Arc<Inner>>,
}

impl Obs {
    /// The currently installed session, or a no-op handle. The disabled
    /// path is one relaxed atomic load.
    pub fn current() -> Obs {
        if !ENABLED.load(Ordering::Acquire) {
            return Obs { inner: None };
        }
        Obs {
            inner: CURRENT.lock().expect("obs registry poisoned").clone(),
        }
    }

    /// A handle that observes nothing.
    pub fn noop() -> Obs {
        Obs { inner: None }
    }

    /// Installs `cfg` as the process-wide session. The previous session (if
    /// any) is suspended until the returned guard drops. A fully disabled
    /// config installs nothing and returns an inert guard.
    ///
    /// # Errors
    ///
    /// I/O errors opening the trace sink.
    pub fn install(cfg: &ObsConfig) -> std::io::Result<ObsGuard> {
        if !cfg.enabled() {
            return Ok(ObsGuard {
                installed: None,
                previous: None,
            });
        }
        let trace = match &cfg.trace_path {
            Some(path) => Some(Mutex::new(BufWriter::new(File::create(path)?))),
            None => None,
        };
        let inner = Arc::new(Inner {
            verbosity: cfg.verbosity,
            progress: cfg.progress,
            start: Instant::now(),
            seq: AtomicU64::new(0),
            trace,
            metrics_path: cfg.metrics_path.clone(),
            registry: (cfg.metrics || cfg.metrics_path.is_some()).then(Registry::new),
        });
        let mut cur = CURRENT.lock().expect("obs registry poisoned");
        let previous = cur.replace(Arc::clone(&inner));
        ENABLED.store(true, Ordering::Release);
        drop(cur);
        Ok(ObsGuard {
            installed: Some(inner),
            previous,
        })
    }

    /// Installs `cfg` only when no session is active — how library entry
    /// points (e.g. `lvf2::flow`) honor an [`ObsConfig`] threaded through
    /// their options without fighting a CLI-installed session. I/O failures
    /// are reported to stderr and degrade to "not installed".
    pub fn ensure(cfg: &ObsConfig) -> Option<ObsGuard> {
        if !cfg.enabled() || ENABLED.load(Ordering::Acquire) {
            return None;
        }
        match Obs::install(cfg) {
            Ok(guard) => Some(guard),
            Err(e) => {
                eprintln!("error: failed to install observability sinks: {e}");
                None
            }
        }
    }

    /// Whether any session is attached to this handle.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether stderr logging at `level` would print.
    pub fn log_enabled(&self, level: Level) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| level <= i.verbosity && level > Level::Silent)
    }

    /// Whether expensive debug-only captures (e.g. per-iteration EM
    /// log-likelihood trajectories) should be collected: `-v` or an active
    /// trace sink.
    pub fn debug_data_enabled(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| i.verbosity >= Level::Debug || i.trace.is_some())
    }

    // -- logging ------------------------------------------------------------

    /// Logs a preformatted line to stderr (gated on verbosity) and mirrors
    /// it into the trace sink. Prefer the [`info!`]/[`warn!`] macros, which
    /// skip formatting when the level is off.
    pub fn log_str(&self, level: Level, msg: &str) {
        let Some(inner) = &self.inner else { return };
        if self.log_enabled(level) {
            eprintln!("{}: {msg}", level.name());
        }
        inner.emit(vec![
            ("type".to_string(), Value::from("log")),
            ("level".to_string(), Value::from(level.name())),
            ("msg".to_string(), Value::from(msg)),
        ]);
    }

    /// Emits a coarse progress line to stderr when `--progress` is active.
    pub fn progress_str(&self, msg: &str) {
        let Some(inner) = &self.inner else { return };
        if inner.progress {
            eprintln!("[progress] {msg}");
        }
        inner.emit(vec![
            ("type".to_string(), Value::from("progress")),
            ("msg".to_string(), Value::from(msg)),
        ]);
    }

    /// Whether progress reporting is active (to skip building messages).
    pub fn progress_enabled(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| i.progress || i.trace.is_some())
    }

    // -- events -------------------------------------------------------------

    /// Emits a structured event into the trace sink (all levels are traced;
    /// verbosity only gates stderr logging).
    pub fn event(&self, level: Level, name: &str, fields: &[(&str, Value)]) {
        let Some(inner) = &self.inner else { return };
        let mut pairs = vec![
            ("type".to_string(), Value::from("event")),
            ("level".to_string(), Value::from(level.name())),
            ("name".to_string(), Value::from(name)),
        ];
        for (k, v) in fields {
            pairs.push((k.to_string(), v.clone()));
        }
        inner.emit(pairs);
    }

    // -- spans --------------------------------------------------------------

    /// Opens a monotonic wall-clock span. While open it is the current
    /// thread's [`TraceContext`] span (so nested spans parent to it); on
    /// drop it restores the previous context, records the `time.<name>.us`
    /// timing histogram, and emits a JSONL `span` record carrying span id,
    /// parent, worker index, and the ambient trace id. No-op when disabled.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        SpanGuard {
            state: self.inner.as_ref().map(|i| {
                let span_id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
                let prev = span_context();
                set_span_context(TraceContext {
                    trace_id: prev.trace_id,
                    span_id,
                });
                SpanState {
                    inner: Arc::clone(i),
                    name,
                    start: Instant::now(),
                    start_us: i.start.elapsed().as_micros() as u64,
                    span_id,
                    prev,
                }
            }),
        }
    }

    // -- metrics ------------------------------------------------------------

    /// Adds `by` to the counter `name`.
    pub fn inc(&self, name: &str, by: u64) {
        if let Some(reg) = self.registry() {
            reg.inc(name, by);
        }
    }

    /// Records a *deterministic* value into the histogram `name` — one that
    /// is a pure function of inputs and seeds, never of the clock.
    pub fn observe(&self, name: &str, value: f64) {
        if let Some(reg) = self.registry() {
            reg.observe(name, value, false);
        }
    }

    /// Records a wall-clock observation (excluded from the deterministic
    /// fingerprint).
    pub fn observe_time(&self, name: &str, value: f64) {
        if let Some(reg) = self.registry() {
            reg.observe(name, value, true);
        }
    }

    /// A point-in-time snapshot of the metrics registry, if one is active.
    pub fn snapshot(&self) -> Option<Snapshot> {
        self.registry().map(Registry::snapshot)
    }

    fn registry(&self) -> Option<&Registry> {
        self.inner.as_ref().and_then(|i| i.registry.as_ref())
    }

    // -- typed telemetry ----------------------------------------------------

    /// Reports one EM fit through the typed telemetry channel: updates the
    /// `fit.em.*` metrics, warns on non-convergence, and (at debug level)
    /// traces the log-likelihood trajectory.
    pub fn fit_event(&self, e: &FitEvent<'_>) {
        if self.inner.is_none() {
            return;
        }
        self.inc("fit.em.runs", 1);
        self.inc("fit.em.restarts", e.restarts as u64);
        self.inc("fit.em.restarts_abandoned", e.restarts_abandoned as u64);
        self.inc("fit.em.iterations_all", e.iterations_all as u64);
        self.observe("fit.em.iterations", e.iterations as f64);
        self.observe("fit.em.final_ll", e.log_likelihood);
        if e.degenerate_components > 0 {
            self.inc(
                "fit.em.degenerate_components",
                e.degenerate_components as u64,
            );
        }
        if !e.converged {
            self.inc("fit.em.nonconverged", 1);
            self.event(
                Level::Warn,
                "fit.em.nonconverged",
                &[
                    ("fitter", Value::from(e.fitter)),
                    ("iterations", Value::from(e.iterations)),
                    ("log_likelihood", Value::Num(e.log_likelihood)),
                ],
            );
        }
        if self.debug_data_enabled() {
            self.event(
                Level::Debug,
                "fit.em.report",
                &[
                    ("fitter", Value::from(e.fitter)),
                    ("iterations", Value::from(e.iterations)),
                    ("iterations_all", Value::from(e.iterations_all)),
                    ("converged", Value::from(e.converged)),
                    ("restarts", Value::from(e.restarts)),
                    ("restarts_abandoned", Value::from(e.restarts_abandoned)),
                    ("log_likelihood", Value::Num(e.log_likelihood)),
                    (
                        "degenerate_components",
                        Value::from(e.degenerate_components),
                    ),
                    (
                        "ll_trajectory",
                        Value::Arr(e.trajectory.iter().map(|&v| Value::Num(v)).collect()),
                    ),
                ],
            );
        }
    }

    /// Reports a failed fit (degenerate input, etc.).
    pub fn fit_error(&self, fitter: &'static str, error: &dyn std::fmt::Display) {
        if self.inner.is_none() {
            return;
        }
        self.inc("fit.errors", 1);
        self.event(
            Level::Warn,
            "fit.error",
            &[
                ("fitter", Value::from(fitter)),
                ("error", Value::from(error.to_string())),
            ],
        );
    }
}

/// Quality telemetry for one EM fit; see [`Obs::fit_event`].
#[derive(Debug, Clone)]
pub struct FitEvent<'a> {
    /// Which fitter ran (`"lvf2.em"`, `"sn_mixture.em"`, …).
    pub fitter: &'static str,
    /// Outer EM iterations of the winning run.
    pub iterations: usize,
    /// Outer EM iterations summed over every restart, abandoned ones
    /// included: the EM work the fit actually did.
    pub iterations_all: usize,
    /// Whether the tolerance was met within the iteration budget.
    pub converged: bool,
    /// Initialization candidates attempted (≥ 1).
    pub restarts: usize,
    /// Restarts cut short because they provably trailed a finished one.
    pub restarts_abandoned: usize,
    /// Final total log-likelihood of the samples.
    pub log_likelihood: f64,
    /// Per-iteration log-likelihood of the winning run, over the points
    /// its EM ran on (pair means for large moment-matching fits; empty
    /// unless [`Obs::debug_data_enabled`]).
    pub trajectory: &'a [f64],
    /// Components that had to be seeded from the global fallback.
    pub degenerate_components: usize,
}

#[derive(Debug)]
struct SpanState {
    inner: Arc<Inner>,
    name: &'static str,
    start: Instant,
    start_us: u64,
    span_id: u64,
    prev: TraceContext,
}

/// Ends a span on drop; see [`Obs::span`].
#[derive(Debug)]
pub struct SpanGuard {
    state: Option<SpanState>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(s) = self.state.take() else {
            return;
        };
        let us = s.start.elapsed().as_micros() as u64;
        set_span_context(s.prev);
        if let Some(reg) = &s.inner.registry {
            reg.observe(&format!("time.{}.us", s.name), us as f64, true);
        }
        SPAN_COLLECTOR.with(|c| {
            if let Some(collected) = c.borrow_mut().as_mut() {
                collected.push(CollectedSpan {
                    name: s.name.to_string(),
                    us,
                    span_id: s.span_id,
                    parent_id: s.prev.span_id,
                });
            }
        });
        let mut pairs = vec![
            ("type".to_string(), Value::from("span")),
            ("name".to_string(), Value::from(s.name)),
            ("us".to_string(), Value::from(us)),
            ("start_us".to_string(), Value::from(s.start_us)),
            ("span_id".to_string(), Value::from(s.span_id)),
            ("worker".to_string(), Value::from(worker_index() as u64)),
        ];
        if s.prev.span_id != 0 {
            pairs.push(("parent".to_string(), Value::from(s.prev.span_id)));
        }
        if s.prev.trace_id != 0 {
            pairs.push((
                "trace".to_string(),
                Value::from(trace_id_hex(s.prev.trace_id)),
            ));
        }
        s.inner.emit(pairs);
    }
}

/// Logs at a level through an [`Obs`] handle, formatting lazily.
#[macro_export]
macro_rules! log_at {
    ($obs:expr, $lvl:expr, $($arg:tt)*) => {{
        let obs = &$obs;
        if obs.enabled() {
            obs.log_str($lvl, &format!($($arg)*));
        }
    }};
}

/// Logs an error line (always traced; printed unless `Silent`).
#[macro_export]
macro_rules! error {
    ($obs:expr, $($arg:tt)*) => { $crate::log_at!($obs, $crate::Level::Error, $($arg)*) };
}

/// Logs a warning line.
#[macro_export]
macro_rules! warn {
    ($obs:expr, $($arg:tt)*) => { $crate::log_at!($obs, $crate::Level::Warn, $($arg)*) };
}

/// Logs an informational line.
#[macro_export]
macro_rules! info {
    ($obs:expr, $($arg:tt)*) => { $crate::log_at!($obs, $crate::Level::Info, $($arg)*) };
}

/// Logs a debug line.
#[macro_export]
macro_rules! debug {
    ($obs:expr, $($arg:tt)*) => { $crate::log_at!($obs, $crate::Level::Debug, $($arg)*) };
}

/// Emits a progress line, formatting lazily.
#[macro_export]
macro_rules! progress {
    ($obs:expr, $($arg:tt)*) => {{
        let obs = &$obs;
        if obs.progress_enabled() {
            obs.progress_str(&format!($($arg)*));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    // The install slot is process-global; serialize tests that touch it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_handle_is_inert() {
        let _l = lock();
        let obs = Obs::noop();
        assert!(!obs.enabled());
        obs.inc("x", 1);
        obs.observe("y", 2.0);
        let _span = obs.span("z");
        assert!(obs.snapshot().is_none());
        // off() config installs nothing.
        let _g = Obs::install(&ObsConfig::off()).unwrap();
        assert!(!Obs::current().enabled());
    }

    #[test]
    fn install_uninstall_restores_previous() {
        let _l = lock();
        let outer = Obs::install(&ObsConfig {
            metrics: true,
            ..ObsConfig::off()
        })
        .unwrap();
        Obs::current().inc("outer", 1);
        {
            let _inner = Obs::install(&ObsConfig {
                metrics: true,
                ..ObsConfig::off()
            })
            .unwrap();
            Obs::current().inc("inner", 1);
            let snap = Obs::current().snapshot().unwrap();
            assert!(snap.counters.contains_key("inner"));
            assert!(!snap.counters.contains_key("outer"));
        }
        let snap = Obs::current().snapshot().unwrap();
        assert_eq!(snap.counters["outer"], 1);
        assert!(!snap.counters.contains_key("inner"));
        drop(outer);
        assert!(!Obs::current().enabled());
    }

    #[test]
    fn ensure_respects_installed_session() {
        let _l = lock();
        let cfg = ObsConfig {
            metrics: true,
            ..ObsConfig::off()
        };
        let outer = Obs::ensure(&cfg).expect("nothing installed yet");
        assert!(Obs::ensure(&cfg).is_none(), "must not double-install");
        drop(outer);
        assert!(!Obs::current().enabled());
    }

    #[test]
    fn trace_sink_writes_parseable_jsonl() {
        let _l = lock();
        let dir = std::env::temp_dir().join(format!("lvf2_obs_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.jsonl");
        let metrics = dir.join("metrics.json");
        {
            let _g = Obs::install(&ObsConfig {
                verbosity: Level::Silent,
                metrics: true,
                trace_path: Some(trace.to_str().unwrap().to_string()),
                metrics_path: Some(metrics.to_str().unwrap().to_string()),
                progress: false,
            })
            .unwrap();
            let obs = Obs::current();
            {
                let _s = obs.span("unit.test");
            }
            obs.event(Level::Info, "unit.event", &[("k", Value::from(3u64))]);
            obs.fit_event(&FitEvent {
                fitter: "unit.em",
                iterations: 7,
                iterations_all: 10,
                converged: false,
                restarts: 2,
                restarts_abandoned: 1,
                log_likelihood: -12.5,
                trajectory: &[-20.0, -13.0, -12.5],
                degenerate_components: 1,
            });
        }
        let text = std::fs::read_to_string(&trace).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert!(lines.len() >= 3, "got {} trace lines", lines.len());
        for line in &lines {
            let v = json::parse(line).expect("valid JSONL");
            assert!(v.get("t_us").is_some());
            assert!(v.get("seq").is_some());
            schema::check_trace_line(&v).expect("schema-valid trace line");
        }
        assert!(text.contains("fit.em.nonconverged"));
        assert!(text.contains("ll_trajectory"));

        let mdoc = json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        schema::check_metrics(&mdoc).expect("schema-valid metrics document");
        let nonconv = mdoc
            .get("counters")
            .unwrap()
            .get("fit.em.nonconverged")
            .unwrap()
            .as_f64();
        assert_eq!(nonconv, Some(1.0));
    }

    #[test]
    fn spans_nest_and_restore_trace_context() {
        let _l = lock();
        let _g = Obs::install(&ObsConfig {
            metrics: true,
            ..ObsConfig::off()
        })
        .unwrap();
        let obs = Obs::current();
        set_span_context(TraceContext {
            trace_id: 0xabcd,
            span_id: 0,
        });
        begin_span_collection();
        let (outer_id, inner_id, inner_parent);
        {
            let outer = obs.span("ctx.outer");
            outer_id = outer.state.as_ref().unwrap().span_id;
            assert_eq!(span_context().span_id, outer_id);
            assert_eq!(span_context().trace_id, 0xabcd, "trace id is inherited");
            {
                let inner = obs.span("ctx.inner");
                inner_id = inner.state.as_ref().unwrap().span_id;
                inner_parent = inner.state.as_ref().unwrap().prev.span_id;
                assert_eq!(span_context().span_id, inner_id);
            }
            assert_eq!(span_context().span_id, outer_id, "inner drop restores");
        }
        assert_eq!(span_context().span_id, 0, "outer drop restores");
        assert_eq!(inner_parent, outer_id, "nesting parents correctly");
        assert_ne!(outer_id, inner_id);

        let spans = take_collected_spans();
        assert_eq!(spans.len(), 2, "both spans collected");
        assert_eq!(spans[0].name, "ctx.inner");
        assert_eq!(spans[0].parent_id, outer_id);
        assert_eq!(spans[1].name, "ctx.outer");
        assert_eq!(spans[1].parent_id, 0);
        assert!(take_collected_spans().is_empty(), "collector is one-shot");
        set_span_context(TraceContext::default());
    }

    #[test]
    fn trace_id_hex_round_trips() {
        for id in [1u64, 0xdead_beef, u64::MAX] {
            assert_eq!(parse_trace_id(&trace_id_hex(id)), Some(id));
        }
        assert_eq!(trace_id_hex(0xab).len(), 16);
        assert_eq!(parse_trace_id("ab"), Some(0xab), "leading zeros optional");
        assert_eq!(parse_trace_id(""), None);
        assert_eq!(parse_trace_id("not-hex"), None);
        assert_eq!(parse_trace_id("00112233445566778899"), None, "too long");
    }

    #[test]
    fn span_records_carry_trace_fields() {
        let _l = lock();
        let dir = std::env::temp_dir().join(format!("lvf2_obs_span_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("spans.jsonl");
        {
            let _g = Obs::install(&ObsConfig {
                verbosity: Level::Silent,
                metrics: false,
                trace_path: Some(trace.to_str().unwrap().to_string()),
                metrics_path: None,
                progress: false,
            })
            .unwrap();
            set_span_context(TraceContext {
                trace_id: 0x1234_5678_9abc_def0,
                span_id: 0,
            });
            let obs = Obs::current();
            {
                let _outer = obs.span("rec.outer");
                let _inner = obs.span("rec.inner");
            }
            set_span_context(TraceContext::default());
        }
        let text = std::fs::read_to_string(&trace).unwrap();
        let lines: Vec<Value> = text.lines().map(|l| json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            schema::check_trace_line(line).unwrap();
            assert_eq!(
                line.get("trace").and_then(Value::as_str),
                Some("123456789abcdef0")
            );
            assert!(line.get("span_id").and_then(Value::as_f64).unwrap() >= 1.0);
            assert!(line.get("start_us").is_some());
            assert_eq!(line.get("worker").and_then(Value::as_f64), Some(0.0));
        }
        // Inner closes first and must be parented to the outer span.
        assert_eq!(
            lines[0].get("name").and_then(Value::as_str),
            Some("rec.inner")
        );
        assert_eq!(
            lines[0].get("parent").and_then(Value::as_f64),
            lines[1].get("span_id").and_then(Value::as_f64)
        );
        assert!(lines[1].get("parent").is_none(), "root span has no parent");
    }

    #[test]
    fn from_args_strips_obs_flags() {
        let args: Vec<String> = [
            "fit",
            "s.txt",
            "--metrics-json",
            "m.json",
            "-v",
            "--progress",
            "--fast",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (cfg, rest) = ObsConfig::from_args(&args).unwrap();
        assert_eq!(cfg.verbosity, Level::Debug);
        assert!(cfg.metrics && cfg.progress);
        assert_eq!(cfg.metrics_path.as_deref(), Some("m.json"));
        assert_eq!(rest, vec!["fit", "s.txt", "--fast"]);
        assert!(ObsConfig::from_args(&["--trace-json".to_string()]).is_err());
    }

    #[test]
    fn log_levels_gate_correctly() {
        let _l = lock();
        let _g = Obs::install(&ObsConfig {
            verbosity: Level::Warn,
            ..ObsConfig::off()
        })
        .unwrap();
        let obs = Obs::current();
        assert!(obs.log_enabled(Level::Error));
        assert!(obs.log_enabled(Level::Warn));
        assert!(!obs.log_enabled(Level::Info));
        assert!(!obs.debug_data_enabled());
    }
}
