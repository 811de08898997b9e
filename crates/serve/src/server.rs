//! The daemon: accept loop, bounded job queue, worker threads.
//!
//! Each connection is serviced by a reader thread that decodes envelopes
//! and enqueues jobs into a bounded queue (one in-flight request per
//! connection; concurrency comes from multiple clients). Worker threads
//! drain the queue and execute on the shared [`Service`], whose inner
//! fan-out runs on the deterministic `lvf2-parallel` pool.
//!
//! # Robustness (see `docs/ROBUSTNESS.md`)
//!
//! - **Load shedding**: a full queue answers a typed `overloaded` error
//!   carrying `retry_after_ms` instead of blocking the accept loop.
//! - **Deadlines**: a request's `deadline_ms` budget is checked at dequeue
//!   and between arcs; late jobs fail `deadline_exceeded`.
//! - **Socket timeouts**: reads and writes time out instead of stalling a
//!   connection thread forever on a dead peer.
//! - **Panic isolation**: a panicking job is caught at the worker's job
//!   boundary, requeued once, then failed with a typed `worker_panic`
//!   error — the worker pool and queue stay alive.
//! - **Persistence**: with a store configured, cache misses append to the
//!   crash-safe segment log and a restart replays them (warm caches with
//!   zero recompute).
//!
//! Shutdown is a job: `{"type":"shutdown"}` acknowledges, closes the queue,
//! and stops the accept loop; in-flight jobs finish first, then the store
//! is flushed and fsynced.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lvf2_obs::json::Value;
use lvf2_obs::{info, warn, Obs, TraceContext};
use lvf2_parallel::Parallelism;

use crate::fault::{self, FaultAction};
use crate::proto::{
    encode_err, encode_err_with, encode_ok, read_frame, write_frame, Envelope, ProtoError,
    TraceInfo,
};
use crate::request::JobRequest;
use crate::service::{Deadline, Service};
use crate::store::{Store, StoreConfig};

/// Daemon configuration; see `lvf2 serve` for the CLI flags.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address. Port 0 picks an ephemeral port (pair with
    /// `port_file` so clients can find it).
    pub addr: String,
    /// Worker threads draining the job queue.
    pub workers: usize,
    /// Bounded queue capacity; jobs beyond it are rejected `overloaded`.
    pub queue_capacity: usize,
    /// Completed arc entries each cache retains.
    pub cache_capacity: usize,
    /// Thread/chunk configuration for job execution.
    pub parallelism: Parallelism,
    /// When set, the bound address (`host:port`) is written here after
    /// listening starts — how scripts discover an ephemeral port.
    pub port_file: Option<String>,
    /// When set, the persistent arc-cache store directory: misses append
    /// to it, restarts replay it (warm caches, zero recompute).
    pub store_dir: Option<String>,
    /// Socket read/write timeout per connection, in milliseconds (0
    /// disables). Generous by default: it exists to reap dead peers, not
    /// to race healthy jobs.
    pub io_timeout_ms: u64,
    /// Default `deadline_ms` applied to requests that carry none (`None`
    /// = unlimited).
    pub default_deadline_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7272".to_string(),
            workers: 2,
            queue_capacity: 16,
            cache_capacity: 4096,
            parallelism: Parallelism::auto(),
            port_file: None,
            store_dir: None,
            io_timeout_ms: 300_000,
            default_deadline_ms: None,
        }
    }
}

impl ServerConfig {
    /// Sets the bind address.
    pub fn with_addr(mut self, addr: &str) -> Self {
        self.addr = addr.to_string();
        self
    }

    /// Sets the worker-thread count (clamped to ≥ 1).
    pub fn with_workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Sets the queue capacity (clamped to ≥ 1).
    pub fn with_queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n.max(1);
        self
    }

    /// Sets the per-cache arc capacity (clamped to ≥ 1).
    pub fn with_cache_capacity(mut self, n: usize) -> Self {
        self.cache_capacity = n.max(1);
        self
    }

    /// Sets the execution parallelism.
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.parallelism = par;
        self
    }

    /// Sets the port file path.
    pub fn with_port_file(mut self, path: &str) -> Self {
        self.port_file = Some(path.to_string());
        self
    }

    /// Sets the persistent store directory.
    pub fn with_store_dir(mut self, dir: &str) -> Self {
        self.store_dir = Some(dir.to_string());
        self
    }

    /// Sets the per-connection socket I/O timeout (0 disables).
    pub fn with_io_timeout_ms(mut self, ms: u64) -> Self {
        self.io_timeout_ms = ms;
        self
    }

    /// Sets the default request deadline (applied when a request carries
    /// no `deadline_ms` of its own).
    pub fn with_default_deadline_ms(mut self, ms: u64) -> Self {
        self.default_deadline_ms = Some(ms);
        self
    }
}

struct QueuedJob {
    id: u64,
    req: JobRequest,
    trace: Option<TraceInfo>,
    reply: mpsc::Sender<Vec<u8>>,
    /// When the job entered the queue — the deadline epoch.
    enqueued: Instant,
    /// The request's `deadline_ms` budget (or the server default).
    deadline_ms: Option<u64>,
    /// Execution attempts so far; a panicking job is requeued once.
    attempts: u32,
}

struct QueueInner {
    jobs: VecDeque<QueuedJob>,
    closed: bool,
}

/// Bounded Mutex+Condvar job queue.
struct Queue {
    inner: Mutex<QueueInner>,
    nonempty: Condvar,
    capacity: usize,
}

impl Queue {
    fn new(capacity: usize) -> Self {
        Queue {
            inner: Mutex::new(QueueInner {
                jobs: VecDeque::new(),
                closed: false,
            }),
            nonempty: Condvar::new(),
            capacity,
        }
    }

    /// Locks the queue, recovering from poison: every mutation under the
    /// lock is a complete state transition, so a past panic elsewhere in
    /// the process says nothing about queue consistency — and a wedged
    /// queue would take the whole daemon down with it.
    fn lock(&self) -> std::sync::MutexGuard<'_, QueueInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues and returns the new depth, or `None` (dropping the job)
    /// when full or closed so the caller can shed with `overloaded`.
    fn push(&self, job: QueuedJob) -> Option<usize> {
        let mut inner = self.lock();
        if inner.closed || inner.jobs.len() >= self.capacity {
            return None;
        }
        inner.jobs.push_back(job);
        let depth = inner.jobs.len();
        drop(inner);
        self.nonempty.notify_one();
        Some(depth)
    }

    /// Requeues a job at the *front* (panic-retry path): it already waited
    /// its turn once, and its client is still blocked on the reply.
    /// Bypasses the capacity check — the job's original slot was freed by
    /// its own dequeue. Fails only once the queue is closed.
    fn push_front(&self, job: QueuedJob) -> Option<()> {
        let mut inner = self.lock();
        if inner.closed {
            return None;
        }
        inner.jobs.push_front(job);
        drop(inner);
        self.nonempty.notify_one();
        Some(())
    }

    /// Blocks for the next job; `None` once closed and drained.
    fn pop(&self) -> Option<QueuedJob> {
        let mut inner = self.lock();
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .nonempty
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close(&self) {
        self.lock().closed = true;
        self.nonempty.notify_all();
    }
}

struct Shared {
    service: Service,
    queue: Queue,
    shutdown: AtomicBool,
    addr: SocketAddr,
    io_timeout: Option<Duration>,
    default_deadline_ms: Option<u64>,
    /// Backoff floor suggested on `overloaded` responses.
    retry_after_ms: u64,
    /// Read-half clones of every live connection, so shutdown can unblock
    /// idle readers without cutting replies still being written.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn_id: AtomicU64,
    /// Handles of spawned connection threads, drained by [`Server::join`].
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn trigger_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue.close();
        // Unblock the accept loop with a throwaway connection to ourselves.
        let _ = TcpStream::connect(self.addr);
    }

    fn track_conn(&self, stream: &TcpStream) -> u64 {
        let id = self.next_conn_id.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            self.conns
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(id, clone);
        }
        id
    }

    fn untrack_conn(&self, id: u64) {
        self.conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&id);
    }

    /// Shuts the *read* side of every live connection: a connection idle
    /// in `read_frame` sees EOF and exits cleanly, while one still
    /// writing a drained job's reply finishes the write untouched.
    fn close_connection_reads(&self) {
        let conns = self.conns.lock().unwrap_or_else(PoisonError::into_inner);
        for stream in conns.values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
}

/// A running daemon. Stop it by submitting a `shutdown` job (e.g.
/// [`crate::Client::shutdown`]), then [`Server::join`].
pub struct Server {
    addr: SocketAddr,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds, writes the port file (if configured), opens and replays the
    /// persistent store (if configured), and spawns the accept loop plus
    /// worker threads.
    ///
    /// # Errors
    ///
    /// Bind, port-file, and store-open I/O errors (store *corruption* is
    /// recovered from, not an error — see [`Store::open`]).
    pub fn spawn(cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        if let Some(path) = &cfg.port_file {
            std::fs::write(path, format!("{addr}\n"))?;
        }
        let obs = Obs::current();
        let mut service = Service::new(cfg.cache_capacity, cfg.parallelism);
        if let Some(dir) = &cfg.store_dir {
            let (store, recovered) =
                Store::open(StoreConfig::new(dir)).map_err(|e| io::Error::other(e.to_string()))?;
            let report = store.recovery();
            service = service.with_store(Arc::new(store));
            let seeded = service.replay(recovered);
            info!(
                obs,
                "store {dir}: replayed {seeded} entries ({} truncated bytes, {} dropped segments)",
                report.truncated_bytes,
                report.dropped_segments
            );
        }
        let shared = Arc::new(Shared {
            service,
            queue: Queue::new(cfg.queue_capacity),
            shutdown: AtomicBool::new(false),
            addr,
            io_timeout: (cfg.io_timeout_ms > 0).then(|| Duration::from_millis(cfg.io_timeout_ms)),
            default_deadline_ms: cfg.default_deadline_ms,
            retry_after_ms: 100,
            conns: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
            conn_threads: Mutex::new(Vec::new()),
        });
        info!(
            obs,
            "lvf2-serve listening on {addr} ({} workers, queue {}, cache {} arcs)",
            cfg.workers.max(1),
            cfg.queue_capacity,
            cfg.cache_capacity
        );

        let workers = (0..cfg.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();

        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || accept_loop(listener, &accept_shared));
        Ok(Server {
            addr,
            accept,
            workers,
            shared,
        })
    }

    /// The bound address (resolves ephemeral port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the accept loop and workers to finish (i.e. for a
    /// `shutdown` job), then flushes and fsyncs the store — shutdown
    /// drains in-flight jobs and makes their results durable before exit.
    pub fn join(self) {
        let _ = self.accept.join();
        // Workers first: they drain every queued job and send its reply.
        for w in self.workers {
            let _ = w.join();
        }
        // Only then unblock idle readers — replies already in flight keep
        // their write half — and wait the connection threads out.
        self.shared.close_connection_reads();
        let threads = std::mem::take(
            &mut *self
                .shared
                .conn_threads
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for c in threads {
            let _ = c.join();
        }
        if let Err(e) = self.shared.service.sync_store() {
            warn!(Obs::current(), "store sync on shutdown failed: {e}");
        }
    }
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match stream {
            Ok(stream) => {
                let conn_id = shared.track_conn(&stream);
                let conn_shared = Arc::clone(shared);
                let handle = std::thread::spawn(move || {
                    connection_loop(stream, &conn_shared);
                    conn_shared.untrack_conn(conn_id);
                });
                let mut threads = shared
                    .conn_threads
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                // Keep the handle list bounded on long-lived daemons.
                threads.retain(|h| !h.is_finished());
                threads.push(handle);
            }
            Err(e) => {
                warn!(Obs::current(), "accept failed: {e}");
            }
        }
    }
}

/// Whether an I/O error is a socket timeout (`WouldBlock` on Unix,
/// `TimedOut` on Windows).
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Applies armed connection-level fault sites to an inbound frame:
/// `conn.frame_truncate` drops its second half, `conn.frame_corrupt` flips
/// one byte. Both must surface as `bad_request` / decode errors — never as
/// a wedged connection or a served result.
fn inject_frame_faults(frame: &mut Vec<u8>) {
    if let Some(FaultAction::Fire) = fault::check("conn.frame_truncate") {
        frame.truncate(frame.len() / 2);
    }
    if let Some(FaultAction::Fire) = fault::check("conn.frame_corrupt") {
        if !frame.is_empty() {
            // Flip the leading `{`: deterministically un-parseable, unlike
            // a mid-frame flip that may land inside a string literal.
            frame[0] ^= 0x40;
        }
    }
}

fn connection_loop(mut stream: TcpStream, shared: &Arc<Shared>) {
    let obs = Obs::current();
    obs.inc("serve.connections", 1);
    // Replies are whole frames; Nagle would hold a reply's tail segment
    // for the client's delayed ACK. Best effort, like the timeouts.
    let _ = stream.set_nodelay(true);
    if let Some(t) = shared.io_timeout {
        // Timeouts reap dead peers; failures to arm them are non-fatal.
        let _ = stream.set_read_timeout(Some(t));
        let _ = stream.set_write_timeout(Some(t));
    }
    loop {
        if let Some(FaultAction::Delay(d)) = fault::check("conn.read_delay") {
            std::thread::sleep(d);
        }
        let mut frame = match read_frame(&mut stream) {
            Ok(Some(frame)) => frame,
            Ok(None) => return, // client closed cleanly
            Err(ProtoError::Io(e)) => {
                if is_timeout(&e) {
                    // Idle longer than the I/O timeout: tell the peer (best
                    // effort — it may be gone) and reap the connection.
                    obs.inc("serve.io_timeouts", 1);
                    let ms = shared.io_timeout.map_or(0, |t| t.as_millis() as u64);
                    let _ = write_frame(
                        &mut stream,
                        &encode_err(0, "timeout", &format!("read timed out after {ms} ms")),
                    );
                }
                return;
            }
            Err(ProtoError::Malformed(m)) => {
                let _ = write_frame(&mut stream, &encode_err(0, "bad_request", &m));
                return; // framing is unrecoverable mid-stream
            }
        };
        inject_frame_faults(&mut frame);
        let env = match Envelope::decode(&frame) {
            Ok(env) => env,
            Err(e) => {
                obs.inc("serve.jobs.rejected", 1);
                let _ = write_frame(&mut stream, &encode_err(0, "bad_request", &e.to_string()));
                continue;
            }
        };
        let req = match JobRequest::from_json(&env.job) {
            Ok(req) => req,
            Err(e) => {
                obs.inc("serve.jobs.rejected", 1);
                let _ = write_frame(&mut stream, &encode_err(env.id, e.kind(), &e.to_string()));
                continue;
            }
        };
        if matches!(req, JobRequest::Shutdown) {
            info!(obs, "shutdown requested");
            let ok = encode_ok(
                env.id,
                lvf2_obs::json::Value::Obj(vec![(
                    "stopping".into(),
                    lvf2_obs::json::Value::Bool(true),
                )]),
                lvf2_obs::json::Value::Obj(vec![]),
            );
            let _ = write_frame(&mut stream, &ok);
            shared.trigger_shutdown();
            return;
        }

        let (tx, rx) = mpsc::channel();
        let queued = QueuedJob {
            id: env.id,
            req,
            trace: env.trace,
            reply: tx,
            enqueued: Instant::now(),
            deadline_ms: env.deadline_ms.or(shared.default_deadline_ms),
            attempts: 0,
        };
        let response = match shared.queue.push(queued) {
            Some(depth) => {
                obs.inc("serve.queue.enqueued", 1);
                obs.observe("serve.queue.depth", depth as f64);
                match rx.recv() {
                    Ok(bytes) => bytes,
                    Err(_) => encode_err(env.id, "shutdown", "server stopped during execution"),
                }
            }
            None => {
                // Shed instead of blocking the connection: the queue bound
                // is the daemon's memory bound, and a blocked reader would
                // let one slow consumer starve every other client.
                obs.inc("serve.queue.rejected", 1);
                obs.inc("serve.shed", 1);
                encode_err_with(
                    env.id,
                    "overloaded",
                    &format!(
                        "queue at capacity ({} jobs); retry after {} ms",
                        shared.queue.capacity, shared.retry_after_ms
                    ),
                    Some(shared.retry_after_ms),
                )
            }
        };
        if write_frame(&mut stream, &response).is_err() {
            return;
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    let obs = Obs::current();
    while let Some(mut job) = shared.queue.pop() {
        obs.inc("serve.queue.dequeued", 1);
        // Deadline gate #1: a job that expired while queued is failed
        // immediately — its client has likely given up already.
        let deadline = job.deadline_ms.map(|ms| Deadline::new(job.enqueued, ms));
        if let Some(d) = deadline {
            if Instant::now() >= d.at {
                obs.inc("serve.deadline_exceeded", 1);
                obs.inc("serve.jobs.done", 1);
                let e = lvf2::Lvf2Error::DeadlineExceeded {
                    deadline_ms: d.budget_ms,
                    stage: "queue",
                };
                let _ = job.reply.send(encode_err(job.id, e.kind(), &e.to_string()));
                continue;
            }
        }
        // Install the client's trace context so every span this job opens —
        // here and on `lvf2-parallel` pool workers — carries its trace id,
        // and capture the spans that close on this thread to echo their
        // timings back in the response.
        let trace = job.trace.unwrap_or_default();
        lvf2_obs::set_span_context(TraceContext {
            trace_id: trace.trace_id,
            span_id: trace.parent_span,
        });
        lvf2_obs::begin_span_collection();
        // The job boundary: a panic inside execution (a bug, or the
        // `worker.panic` fault site) must never take the worker thread —
        // and with it the whole pool — down.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _request_span = obs.span("serve.request");
            if fault::check("worker.panic").is_some() {
                panic!("injected worker panic");
            }
            shared.service.execute_with_deadline(&job.req, deadline)
        }));
        let spans = lvf2_obs::take_collected_spans();
        lvf2_obs::set_span_context(TraceContext::default());
        let outcome = match outcome {
            Ok(result) => result,
            Err(payload) => {
                obs.inc("serve.worker_panics", 1);
                let message = panic_message(payload.as_ref());
                warn!(obs, "job {} panicked: {message}", job.id);
                if job.attempts == 0 {
                    // One retry: transient panics (e.g. a poisoned lock
                    // from an unrelated thread) deserve a second chance...
                    job.attempts += 1;
                    obs.inc("serve.requeues", 1);
                    if shared.queue.push_front(job).is_none() {
                        // ...unless the queue already closed for shutdown.
                        obs.inc("serve.jobs.done", 1);
                    }
                    continue;
                }
                // ...but a job that panics twice is deterministic poison:
                // fail it typed and move on.
                Err(lvf2::Lvf2Error::WorkerPanic { message })
            }
        };
        obs.inc("serve.jobs.done", 1);
        let bytes = match outcome {
            Ok((result, stats)) => {
                encode_ok(job.id, result, with_trace_echo(stats, job.trace, &spans))
            }
            Err(e) => encode_err(job.id, e.kind(), &e.to_string()),
        };
        // A vanished client is not a worker error; drop the reply.
        let _ = job.reply.send(bytes);
    }
}

/// Extracts a human-readable message from a panic payload (`&str` and
/// `String` payloads cover `panic!`/`assert!`/`unwrap` in practice).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Appends a `trace` block to a successful job's `stats`: the echoed trace
/// id plus the server-side spans that closed on the worker thread
/// (innermost first), so clients see where their wall time went without
/// scraping the daemon's trace file.
fn with_trace_echo(
    stats: Value,
    trace: Option<TraceInfo>,
    spans: &[lvf2_obs::CollectedSpan],
) -> Value {
    let Some(trace) = trace else { return stats };
    let mut pairs = match stats {
        Value::Obj(pairs) => pairs,
        other => vec![("stats".into(), other)],
    };
    let spans = spans
        .iter()
        .map(|s| {
            let mut p = vec![
                ("name".into(), Value::from(s.name.as_str())),
                ("us".into(), Value::from(s.us)),
                ("span_id".into(), Value::from(s.span_id)),
            ];
            if s.parent_id != 0 {
                p.push(("parent".into(), Value::from(s.parent_id)));
            }
            Value::Obj(p)
        })
        .collect();
    pairs.push((
        "trace".into(),
        Value::Obj(vec![
            (
                "id".into(),
                Value::from(lvf2_obs::trace_id_hex(trace.trace_id)),
            ),
            ("spans".into(), Value::Arr(spans)),
        ]),
    ));
    Value::Obj(pairs)
}
