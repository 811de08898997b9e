//! A blocking client for the wire protocol — used by `lvf2 submit`, the
//! serve bench, and the e2e tests.
//!
//! # Robustness
//!
//! Sockets carry read/write timeouts (default 300 s) so a stalled daemon
//! surfaces as a typed [`ClientError::Timeout`] instead of blocking the
//! caller forever. [`Client::call_with_retry`] adds a bounded retry loop:
//! exponential backoff with deterministic seeded jitter, honoring the
//! server's `retry_after_ms` floor on `overloaded`, reconnecting after
//! transport failures, and retrying **idempotent jobs only** by default
//! (`invalidate` and `shutdown` are never retried unless opted in). The
//! policy is spelled out in `docs/ROBUSTNESS.md`.

use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use lvf2_obs::json::Value;

use crate::proto::{envelope_id, read_frame, write_frame, Envelope, ProtoError, TraceInfo};

/// Default socket read/write timeout: generous — it exists to detect a
/// dead daemon, not to race healthy characterization jobs.
pub const DEFAULT_IO_TIMEOUT_MS: u64 = 300_000;

/// A decoded success response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Echoed correlation id.
    pub id: u64,
    /// The job's `result` object.
    pub result: Value,
    /// The job's `stats` object (`wall_us`, `cache_hits`, `cache_misses`).
    pub stats: Value,
}

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure.
    Proto(ProtoError),
    /// A socket read or write exceeded the configured timeout.
    Timeout {
        /// What timed out (`read`, `write`).
        what: &'static str,
        /// The configured timeout, in milliseconds.
        timeout_ms: u64,
    },
    /// The server answered `ok: false`.
    Server {
        /// Stable error tag (`invalid_config`, `fit`, `overloaded`, …).
        kind: String,
        /// Human-readable message.
        message: String,
        /// The backoff floor an `overloaded` response suggests.
        retry_after_ms: Option<u64>,
    },
}

impl ClientError {
    /// Whether a retry can reasonably succeed: transport failures and
    /// timeouts (the daemon may be back), plus the server-reported kinds
    /// [`lvf2::Lvf2Error::is_retryable`] blesses (`overloaded`,
    /// `timeout`, `deadline_exceeded`). Malformed-frame errors are not
    /// retryable — resending the same bytes reproduces them.
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Proto(ProtoError::Io(_)) | ClientError::Timeout { .. } => true,
            ClientError::Proto(ProtoError::Malformed(_)) => false,
            ClientError::Server { kind, .. } => {
                matches!(
                    kind.as_str(),
                    "overloaded" | "timeout" | "deadline_exceeded"
                )
            }
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Proto(e) => write!(f, "{e}"),
            ClientError::Timeout { what, timeout_ms } => {
                write!(f, "{what} timed out after {timeout_ms} ms")
            }
            ClientError::Server { kind, message, .. } => {
                write!(f, "server error [{kind}]: {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Proto(ProtoError::Io(e))
    }
}

/// Bounded-retry configuration for [`Client::call_with_retry`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts (first try included); 1 disables retries.
    pub max_attempts: u32,
    /// Base backoff before the first retry, in milliseconds; doubles per
    /// attempt.
    pub base_backoff_ms: u64,
    /// Backoff ceiling, in milliseconds.
    pub max_backoff_ms: u64,
    /// Seed of the deterministic jitter stream: the same seed replays the
    /// same backoff schedule (the chaos tests pin this).
    pub jitter_seed: u64,
    /// Retry `invalidate`/`shutdown` too. Off by default: those jobs
    /// mutate daemon state, and an ambiguous transport failure could mean
    /// the first attempt already applied.
    pub retry_non_idempotent: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_ms: 10,
            max_backoff_ms: 1_000,
            jitter_seed: 0,
            retry_non_idempotent: false,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `attempt` (1-based), honoring the
    /// server's `retry_after_ms` floor: exponential base doubling plus a
    /// deterministic jitter of up to half the base, capped at
    /// `max_backoff_ms`.
    pub fn backoff_ms(&self, attempt: u32, floor_ms: Option<u64>) -> u64 {
        let base = self.base_backoff_ms.saturating_mul(1u64 << attempt.min(20)) / 2;
        let jitter_range = (base / 2).max(1);
        let jitter = splitmix64(self.jitter_seed ^ u64::from(attempt)) % jitter_range;
        (base + jitter)
            .max(floor_ms.unwrap_or(0))
            .min(self.max_backoff_ms)
    }
}

fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Whether a job object may be blindly resubmitted: repeated reads and
/// repeated pure computations are safe; state mutations are not.
fn is_idempotent(job: &Value) -> bool {
    !matches!(
        job.get("type").and_then(Value::as_str),
        Some("invalidate") | Some("shutdown")
    )
}

/// Mints a fresh non-zero trace id. Uniqueness is what matters (two
/// concurrent clients must not collide), determinism doesn't — trace ids
/// never enter the metrics fingerprint — so a SplitMix64 step over
/// pid/time/counter entropy is plenty.
fn mint_trace_id() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let seed = nanos
        ^ (u64::from(std::process::id()) << 32)
        ^ COUNTER.fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed);
    // SplitMix64 finalizer.
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z = z ^ (z >> 31);
    z.max(1) // 0 means "untraced"
}

/// One connection to a daemon; requests are issued serially.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    addr: String,
    next_id: u64,
    last_trace_id: u64,
    io_timeout_ms: u64,
    deadline_ms: Option<u64>,
}

impl Client {
    /// Connects to `addr` (`host:port`) with the default I/O timeout
    /// ([`DEFAULT_IO_TIMEOUT_MS`]).
    ///
    /// # Errors
    ///
    /// Connection I/O errors.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        Client::connect_with_timeout(addr, DEFAULT_IO_TIMEOUT_MS)
    }

    /// Connects with an explicit socket read/write timeout (0 disables —
    /// only sensible in tests). The socket has Nagle off (`TCP_NODELAY`):
    /// each request is one whole frame, and holding its tail for the
    /// daemon's delayed ACK would stall every round trip.
    ///
    /// # Errors
    ///
    /// Connection I/O errors, including a failure to set the socket
    /// options.
    pub fn connect_with_timeout(addr: &str, io_timeout_ms: u64) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        if io_timeout_ms > 0 {
            let t = Some(Duration::from_millis(io_timeout_ms));
            stream.set_read_timeout(t)?;
            stream.set_write_timeout(t)?;
        }
        Ok(Client {
            stream,
            addr: addr.to_string(),
            next_id: 1,
            last_trace_id: 0,
            io_timeout_ms,
            deadline_ms: None,
        })
    }

    /// Attaches `deadline_ms` to every subsequent request (the server
    /// enforces it at dequeue and between arcs). `None` clears it.
    pub fn set_deadline_ms(&mut self, deadline_ms: Option<u64>) {
        self.deadline_ms = deadline_ms;
    }

    /// Maps socket-timeout I/O errors to the typed
    /// [`ClientError::Timeout`]; passes everything else through.
    fn map_io(&self, what: &'static str, e: ProtoError) -> ClientError {
        match e {
            ProtoError::Io(ref io)
                if matches!(
                    io.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                ClientError::Timeout {
                    what,
                    timeout_ms: self.io_timeout_ms,
                }
            }
            other => ClientError::Proto(other),
        }
    }

    /// Submits one job object and blocks for its response. Each call mints
    /// a fresh trace id (see [`Client::last_trace_id`]) and attaches the
    /// calling thread's current span as the trace parent, so server-side
    /// spans correlate back to this exact request.
    ///
    /// # Errors
    ///
    /// [`ClientError::Proto`] for transport failures (including a server
    /// that closed without answering, and a response whose `id` is not
    /// this request's — e.g. the late reply to a call that timed out),
    /// [`ClientError::Timeout`] when the socket times out,
    /// [`ClientError::Server`] when the response is `ok: false`.
    pub fn call(&mut self, job: Value) -> Result<Response, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        self.last_trace_id = mint_trace_id();
        let env = Envelope {
            id,
            job,
            trace: Some(TraceInfo {
                trace_id: self.last_trace_id,
                parent_span: lvf2_obs::span_context().span_id,
            }),
            deadline_ms: self.deadline_ms,
        };
        write_frame(&mut self.stream, &env.encode()).map_err(|e| self.map_io("write", e))?;
        let frame = read_frame(&mut self.stream)
            .map_err(|e| self.map_io("read", e))?
            .ok_or_else(|| ProtoError::Malformed("server closed before responding".into()))?;
        decode_response(&frame, id)
    }

    /// As [`Client::call`], retrying retryable failures under `policy`:
    /// bounded attempts, exponential backoff with deterministic seeded
    /// jitter, the server's `retry_after_ms` as a backoff floor, and a
    /// reconnect after transport-level failures. Non-idempotent jobs
    /// (`invalidate`, `shutdown`) are never retried unless
    /// [`RetryPolicy::retry_non_idempotent`] is set.
    ///
    /// # Errors
    ///
    /// The last attempt's error, once attempts or retryability run out.
    pub fn call_with_retry(
        &mut self,
        job: Value,
        policy: &RetryPolicy,
    ) -> Result<Response, ClientError> {
        let obs = lvf2_obs::Obs::current();
        let idempotent = is_idempotent(&job);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let err = match self.call(job.clone()) {
                Ok(resp) => return Ok(resp),
                Err(e) => e,
            };
            let out_of_attempts = attempt >= policy.max_attempts.max(1);
            let blocked = !idempotent && !policy.retry_non_idempotent;
            if out_of_attempts || blocked || !err.is_retryable() {
                return Err(err);
            }
            let floor = match &err {
                ClientError::Server { retry_after_ms, .. } => *retry_after_ms,
                _ => None,
            };
            obs.inc("serve.retries", 1);
            std::thread::sleep(Duration::from_millis(policy.backoff_ms(attempt, floor)));
            // A transport-level failure leaves the connection in an
            // unknown state (a half-written frame would desync framing);
            // reconnect before retrying.
            if matches!(
                err,
                ClientError::Proto(ProtoError::Io(_)) | ClientError::Timeout { .. }
            ) {
                if let Ok(fresh) = Client::connect_with_timeout(&self.addr, self.io_timeout_ms) {
                    let deadline = self.deadline_ms;
                    let next_id = self.next_id;
                    *self = fresh;
                    self.deadline_ms = deadline;
                    self.next_id = next_id;
                }
                // Reconnect failure: fall through and let the next call()
                // report the transport error when it strikes again.
            }
        }
    }

    /// The trace id minted for the most recent [`Client::call`] (0 before
    /// the first call). Matches the `trace` field on every server-side span
    /// that request produced.
    pub fn last_trace_id(&self) -> u64 {
        self.last_trace_id
    }

    /// `{"type":"ping"}`.
    ///
    /// # Errors
    ///
    /// As [`Client::call`].
    pub fn ping(&mut self) -> Result<Response, ClientError> {
        self.call(Value::Obj(vec![("type".into(), Value::from("ping"))]))
    }

    /// `{"type":"metrics"}`.
    ///
    /// # Errors
    ///
    /// As [`Client::call`].
    pub fn metrics(&mut self) -> Result<Response, ClientError> {
        self.call(Value::Obj(vec![("type".into(), Value::from("metrics"))]))
    }

    /// `{"type":"shutdown"}` — stops the daemon.
    ///
    /// # Errors
    ///
    /// As [`Client::call`].
    pub fn shutdown(&mut self) -> Result<Response, ClientError> {
        self.call(Value::Obj(vec![("type".into(), Value::from("shutdown"))]))
    }
}

/// Decodes the response to request `expected_id`. A response carrying any
/// other id is [`ProtoError::Malformed`], except id 0 on the
/// connection-level errors (`bad_request`, `timeout`) the server sends
/// when it cannot attribute a frame to a request.
fn decode_response(frame: &[u8], expected_id: u64) -> Result<Response, ClientError> {
    let text = std::str::from_utf8(frame)
        .map_err(|e| ProtoError::Malformed(format!("non-UTF-8 response: {e}")))?;
    let v = lvf2_obs::json::parse(text).map_err(ProtoError::Malformed)?;
    let id = v
        .get("id")
        .ok_or_else(|| ProtoError::Malformed("response missing `id`".into()))
        .and_then(envelope_id)?;
    let connection_level = id == 0
        && v.get("ok") == Some(&Value::Bool(false))
        && matches!(
            v.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Value::as_str),
            Some("bad_request" | "timeout")
        );
    if id != expected_id && !connection_level {
        return Err(ProtoError::Malformed(format!(
            "response id {id} does not answer request id {expected_id}"
        ))
        .into());
    }
    match v.get("ok") {
        Some(Value::Bool(true)) => Ok(Response {
            id,
            result: v.get("result").cloned().unwrap_or(Value::Null),
            stats: v.get("stats").cloned().unwrap_or(Value::Null),
        }),
        Some(Value::Bool(false)) => {
            let err = v.get("error").cloned().unwrap_or(Value::Null);
            Err(ClientError::Server {
                kind: err
                    .get("kind")
                    .and_then(Value::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
                message: err
                    .get("message")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
                retry_after_ms: err
                    .get("retry_after_ms")
                    .and_then(Value::as_f64)
                    .map(|n| n as u64),
            })
        }
        _ => Err(ProtoError::Malformed("response missing `ok`".into()).into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{encode_err, encode_ok};

    #[test]
    fn decodes_ok_and_error_responses() {
        let ok = encode_ok(
            3,
            Value::Obj(vec![("pong".into(), Value::from(1u64))]),
            Value::Obj(vec![]),
        );
        let r = decode_response(&ok, 3).unwrap();
        assert_eq!(r.id, 3);
        assert_eq!(r.result.get("pong").unwrap().as_f64(), Some(1.0));

        let err = encode_err(4, "fit", "degenerate data");
        match decode_response(&err, 4).unwrap_err() {
            ClientError::Server {
                kind,
                message,
                retry_after_ms,
            } => {
                assert_eq!(kind, "fit");
                assert!(message.contains("degenerate"));
                assert_eq!(retry_after_ms, None);
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn responses_must_answer_the_request_id() {
        let ok = encode_ok(7, Value::Obj(vec![]), Value::Obj(vec![]));
        assert!(matches!(
            decode_response(&ok, 8),
            Err(ClientError::Proto(ProtoError::Malformed(_)))
        ));
        // Id 0 is accepted only on the connection-level errors.
        for kind in ["bad_request", "timeout"] {
            match decode_response(&encode_err(0, kind, "x"), 8) {
                Err(ClientError::Server { kind: k, .. }) => assert_eq!(k, kind),
                other => panic!("{kind}: {other:?}"),
            }
        }
        let stray = [
            encode_err(0, "fit", "x"),
            encode_ok(0, Value::Null, Value::Null),
            br#"{"v":1,"ok":true,"result":{}}"#.to_vec(),
            br#"{"v":1,"id":-8,"ok":true,"result":{}}"#.to_vec(),
        ];
        for frame in stray {
            assert!(
                matches!(
                    decode_response(&frame, 8),
                    Err(ClientError::Proto(ProtoError::Malformed(_)))
                ),
                "{}",
                String::from_utf8_lossy(&frame)
            );
        }
    }

    #[test]
    fn late_reply_to_a_timed_out_call_is_rejected() {
        // A scripted peer that answers request 1 only after request 2 has
        // arrived: the next call on a connection whose last call timed
        // out reads that late reply first.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut next = || Envelope::decode(&read_frame(&mut s).unwrap().unwrap()).unwrap();
            let (first, second) = (next().id, next().id);
            let stale = encode_ok(
                first,
                Value::Obj(vec![("library".into(), Value::from("stale"))]),
                Value::Obj(vec![]),
            );
            write_frame(&mut s, &stale).unwrap();
            (first, second)
        });
        let mut c = Client::connect_with_timeout(&addr, 100).unwrap();
        assert!(matches!(c.ping(), Err(ClientError::Timeout { .. })));
        match c.ping() {
            Err(ClientError::Proto(ProtoError::Malformed(m))) => {
                assert!(m.contains("request id 2"), "{m}")
            }
            other => panic!("late reply must not answer the next call: {other:?}"),
        }
        assert_eq!(peer.join().unwrap(), (1, 2));
    }

    #[test]
    fn overloaded_responses_surface_retry_after() {
        let err = crate::proto::encode_err_with(5, "overloaded", "full", Some(75));
        match decode_response(&err, 5).unwrap_err() {
            e @ ClientError::Server { .. } => {
                assert!(e.is_retryable());
                let ClientError::Server { retry_after_ms, .. } = e else {
                    unreachable!()
                };
                assert_eq!(retry_after_ms, Some(75));
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn retryability_is_kind_driven() {
        let overloaded = ClientError::Server {
            kind: "overloaded".into(),
            message: String::new(),
            retry_after_ms: Some(10),
        };
        let fit = ClientError::Server {
            kind: "fit".into(),
            message: String::new(),
            retry_after_ms: None,
        };
        let timeout = ClientError::Timeout {
            what: "read",
            timeout_ms: 100,
        };
        let malformed = ClientError::Proto(ProtoError::Malformed("x".into()));
        assert!(overloaded.is_retryable());
        assert!(timeout.is_retryable());
        assert!(!fit.is_retryable());
        assert!(!malformed.is_retryable());
    }

    #[test]
    fn backoff_is_deterministic_monotone_and_floored() {
        let p = RetryPolicy::default();
        let a: Vec<u64> = (1..=4).map(|k| p.backoff_ms(k, None)).collect();
        let b: Vec<u64> = (1..=4).map(|k| p.backoff_ms(k, None)).collect();
        assert_eq!(a, b, "same seed, same schedule");
        assert!(
            a.windows(2).all(|w| w[0] <= w[1]),
            "roughly doubling: {a:?}"
        );
        assert!(p.backoff_ms(1, Some(500)) >= 500, "server floor honored");
        assert!(p.backoff_ms(30, None) <= p.max_backoff_ms, "capped");
        let other = RetryPolicy {
            jitter_seed: 99,
            ..p
        };
        assert_ne!(
            (1..=4)
                .map(|k| other.backoff_ms(k, None))
                .collect::<Vec<_>>(),
            a,
            "different seed, different jitter"
        );
    }

    #[test]
    fn idempotency_classification() {
        let parse = |t: &str| Value::Obj(vec![("type".into(), Value::from(t))]);
        for t in [
            "ping",
            "metrics",
            "characterize",
            "tail_yield",
            "fit",
            "bin",
        ] {
            assert!(is_idempotent(&parse(t)), "{t} is safe to resubmit");
        }
        for t in ["invalidate", "shutdown"] {
            assert!(!is_idempotent(&parse(t)), "{t} mutates daemon state");
        }
    }
}
