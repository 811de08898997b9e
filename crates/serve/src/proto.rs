//! The wire protocol: length-prefixed JSON frames and request/response
//! envelopes.
//!
//! Every frame is a `u32` big-endian payload length followed by that many
//! bytes of UTF-8 JSON. Requests and responses are one frame each:
//!
//! ```json
//! {"v":1,"id":7,"job":{"type":"ping"}}
//! {"v":1,"id":7,"ok":true,"result":{"pong":1},"stats":{"wall_us":12}}
//! {"v":1,"id":7,"ok":false,"error":{"kind":"invalid_config","message":"…"}}
//! ```
//!
//! `id` is chosen by the client and echoed verbatim; `error.kind` carries
//! [`lvf2::Lvf2Error::kind`]'s stable tags plus the transport-level kind
//! `bad_request`. An `overloaded` error additionally carries
//! `retry_after_ms`, the server's suggested backoff floor. Requests may
//! carry `deadline_ms`, a relative budget the server enforces at dequeue
//! and between arcs. The full schema lives in `docs/SERVER.md`; failure
//! semantics in `docs/ROBUSTNESS.md`.

use std::io::{Read, Write};

use lvf2_obs::json::{self, Value};

/// Protocol version carried in every envelope (`"v"`).
pub const PROTOCOL_VERSION: u64 = 1;

/// Upper bound on a frame payload (64 MiB) — a full 25-cell library with
/// LVF² tables is ~1 MiB of Liberty text, so this is generous without
/// letting a corrupt length prefix allocate unbounded memory.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// A protocol-level failure: transport I/O, framing, or a malformed
/// envelope.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying socket failed.
    Io(std::io::Error),
    /// The frame or envelope was malformed.
    Malformed(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "i/o error: {e}"),
            ProtoError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// Writes one `u32`-BE length-prefixed frame with a single `write_all`.
///
/// The prefix and payload go out as one buffer. Written separately, the
/// 4-byte prefix leaves the socket as its own segment and Nagle holds the
/// payload back until the peer's delayed ACK (40 ms or more on Linux) —
/// a stall on every round trip. Both ends also set `TCP_NODELAY`, so the
/// tail segment of a frame larger than one MSS is not held either.
///
/// # Errors
///
/// I/O errors, or [`ProtoError::Malformed`] when `payload` exceeds
/// [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ProtoError> {
    if payload.len() > MAX_FRAME as usize {
        return Err(ProtoError::Malformed(format!(
            "frame of {} bytes exceeds the {} byte cap",
            payload.len(),
            MAX_FRAME
        )));
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame. Returns `Ok(None)` on clean EOF at a frame boundary
/// (the peer closed the connection between requests).
///
/// # Errors
///
/// I/O errors — including `UnexpectedEof` when the peer closes inside the
/// length prefix or the payload — or [`ProtoError::Malformed`] for an
/// over-cap length prefix.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ProtoError> {
    let mut len = [0u8; 4];
    // A close before the first prefix byte is clean; one after it
    // truncates the frame.
    match r.read_exact(&mut len[..1]) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    r.read_exact(&mut len[1..])?;
    let len = u32::from_be_bytes(len);
    if len > MAX_FRAME {
        return Err(ProtoError::Malformed(format!(
            "length prefix {len} exceeds the {MAX_FRAME} byte cap"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// The trace context a client attaches to a request so server-side spans
/// can be correlated with it: the client-minted trace id plus the client's
/// submitting span (0 = none).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceInfo {
    /// Client-minted end-to-end trace id (0 = untraced request).
    pub trace_id: u64,
    /// The client-side span the request was submitted under (0 = root).
    pub parent_span: u64,
}

impl TraceInfo {
    fn to_value(self) -> Value {
        Value::Obj(vec![
            (
                "id".into(),
                Value::from(lvf2_obs::trace_id_hex(self.trace_id)),
            ),
            ("parent".into(), Value::from(self.parent_span)),
        ])
    }

    fn from_value(v: &Value) -> Result<TraceInfo, ProtoError> {
        let id = v
            .get("id")
            .and_then(Value::as_str)
            .and_then(lvf2_obs::parse_trace_id)
            .ok_or_else(|| ProtoError::Malformed("trace: missing or invalid `id`".into()))?;
        let parent = match v.get("parent") {
            None => 0,
            Some(p) => p
                .as_f64()
                .filter(|n| *n >= 0.0 && *n == n.trunc())
                .ok_or_else(|| ProtoError::Malformed("trace: invalid `parent`".into()))?
                as u64,
        };
        Ok(TraceInfo {
            trace_id: id,
            parent_span: parent,
        })
    }
}

/// A decoded request envelope: the client-chosen `id` plus the raw `job`
/// object (decoded further by [`crate::request::JobRequest::from_json`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The `job` object.
    pub job: Value,
    /// Optional trace context; the server threads it onto the worker that
    /// executes the job so server-side spans carry the client's trace id.
    pub trace: Option<TraceInfo>,
    /// Optional request budget in milliseconds, measured from enqueue. The
    /// server answers `deadline_exceeded` instead of finishing late work.
    pub deadline_ms: Option<u64>,
}

impl Envelope {
    /// Encodes a request envelope to JSON bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut pairs = vec![
            ("v".into(), Value::from(PROTOCOL_VERSION)),
            ("id".into(), Value::from(self.id)),
            ("job".into(), self.job.clone()),
        ];
        if let Some(trace) = self.trace {
            pairs.push(("trace".into(), trace.to_value()));
        }
        if let Some(deadline) = self.deadline_ms {
            pairs.push(("deadline_ms".into(), Value::from(deadline)));
        }
        Value::Obj(pairs).to_json().into_bytes()
    }

    /// Decodes a request envelope from JSON bytes.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Malformed`] for non-JSON payloads, missing fields, a
    /// version other than [`PROTOCOL_VERSION`], or a malformed `trace`
    /// object (absence is fine — tracing is optional).
    pub fn decode(payload: &[u8]) -> Result<Envelope, ProtoError> {
        let text = std::str::from_utf8(payload)
            .map_err(|e| ProtoError::Malformed(format!("non-UTF-8 payload: {e}")))?;
        let v = json::parse(text).map_err(ProtoError::Malformed)?;
        let version = v
            .get("v")
            .and_then(Value::as_f64)
            .ok_or_else(|| ProtoError::Malformed("missing `v`".into()))?;
        if version != PROTOCOL_VERSION as f64 {
            return Err(ProtoError::Malformed(format!(
                "unsupported protocol version {version} (this build speaks {PROTOCOL_VERSION})"
            )));
        }
        let id = v
            .get("id")
            .ok_or_else(|| ProtoError::Malformed("missing `id`".into()))
            .and_then(envelope_id)?;
        let job = v
            .get("job")
            .cloned()
            .ok_or_else(|| ProtoError::Malformed("missing `job`".into()))?;
        let trace = match v.get("trace") {
            None => None,
            Some(t) => Some(TraceInfo::from_value(t)?),
        };
        let deadline_ms = match v.get("deadline_ms") {
            None => None,
            Some(d) => Some(
                d.as_f64()
                    .filter(|n| *n > 0.0 && *n == n.trunc())
                    .ok_or_else(|| ProtoError::Malformed("invalid `deadline_ms`".into()))?
                    as u64,
            ),
        };
        Ok(Envelope {
            id,
            job,
            trace,
            deadline_ms,
        })
    }
}

/// Largest integer a JSON number carries exactly (2⁵³): the ceiling on
/// envelope ids.
const MAX_EXACT_ID: f64 = 9_007_199_254_740_992.0;

/// Reads an envelope `id`: a JSON integer in `0..=2⁵³`. Anything else —
/// negative, fractional, too large to be exact, or not a number — is
/// [`ProtoError::Malformed`], never silently coerced.
pub(crate) fn envelope_id(v: &Value) -> Result<u64, ProtoError> {
    v.as_f64()
        .filter(|n| (0.0..=MAX_EXACT_ID).contains(n) && *n == n.trunc())
        .map(|n| n as u64)
        .ok_or_else(|| {
            ProtoError::Malformed(format!(
                "invalid `id` {}: expected an integer in 0..=2^53",
                v.to_json()
            ))
        })
}

/// Encodes a success response.
pub fn encode_ok(id: u64, result: Value, stats: Value) -> Vec<u8> {
    Value::Obj(vec![
        ("v".into(), Value::from(PROTOCOL_VERSION)),
        ("id".into(), Value::from(id)),
        ("ok".into(), Value::Bool(true)),
        ("result".into(), result),
        ("stats".into(), stats),
    ])
    .to_json()
    .into_bytes()
}

/// Encodes an error response. `kind` is a stable machine-readable tag:
/// [`lvf2::Lvf2Error::kind`]'s values or `bad_request`.
pub fn encode_err(id: u64, kind: &str, message: &str) -> Vec<u8> {
    encode_err_with(id, kind, message, None)
}

/// As [`encode_err`], optionally attaching `retry_after_ms` — the backoff
/// floor an `overloaded` response suggests to retrying clients.
pub fn encode_err_with(id: u64, kind: &str, message: &str, retry_after_ms: Option<u64>) -> Vec<u8> {
    let mut error = vec![
        ("kind".into(), Value::from(kind)),
        ("message".into(), Value::from(message)),
    ];
    if let Some(ms) = retry_after_ms {
        error.push(("retry_after_ms".into(), Value::from(ms)));
    }
    Value::Obj(vec![
        ("v".into(), Value::from(PROTOCOL_VERSION)),
        ("id".into(), Value::from(id)),
        ("ok".into(), Value::Bool(false)),
        ("error".into(), Value::Obj(error)),
    ])
    .to_json()
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"a\":1}").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"{\"a\":1}");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let prefix = u32::MAX.to_be_bytes();
        let mut r = prefix.as_slice();
        assert!(matches!(read_frame(&mut r), Err(ProtoError::Malformed(_))));
    }

    #[test]
    fn truncated_payload_is_an_error_not_eof() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&8u32.to_be_bytes());
        buf.extend_from_slice(b"abc"); // 3 of 8 promised bytes
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(ProtoError::Io(_))
        ));
    }

    #[test]
    fn truncated_length_prefix_is_an_error_not_eof() {
        assert!(
            read_frame(&mut [0u8; 0].as_slice()).unwrap().is_none(),
            "no bytes: clean close"
        );
        for n in 1..4 {
            let prefix = vec![0u8; n];
            match read_frame(&mut prefix.as_slice()) {
                Err(ProtoError::Io(e)) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{n} bytes")
                }
                other => panic!("{n} prefix bytes: expected EOF error, got {other:?}"),
            }
        }
    }

    /// Accepts every byte offered and counts the `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_issues_one_write_per_frame() {
        // Above 64 KiB a frame spans more than one loopback segment.
        for len in [0, 7, 64 * 1024 + 1, 1 << 20] {
            let payload = vec![b'x'; len];
            let mut w = CountingWriter::default();
            write_frame(&mut w, &payload).unwrap();
            assert_eq!(w.writes, 1, "{len}-byte payload");
            assert_eq!(
                read_frame(&mut w.bytes.as_slice()).unwrap().unwrap(),
                payload
            );
        }
    }

    #[test]
    fn envelopes_round_trip() {
        let env = Envelope {
            id: 42,
            job: json::parse(r#"{"type":"ping"}"#).unwrap(),
            trace: None,
            deadline_ms: None,
        };
        assert_eq!(Envelope::decode(&env.encode()).unwrap(), env);
    }

    #[test]
    fn deadline_round_trips_and_rejects_nonsense() {
        let env = Envelope {
            id: 1,
            job: json::parse(r#"{"type":"ping"}"#).unwrap(),
            trace: None,
            deadline_ms: Some(1500),
        };
        assert_eq!(Envelope::decode(&env.encode()).unwrap(), env);
        assert!(Envelope::decode(br#"{"v":1,"id":1,"job":{},"deadline_ms":0}"#).is_err());
        assert!(Envelope::decode(br#"{"v":1,"id":1,"job":{},"deadline_ms":1.5}"#).is_err());
        assert!(Envelope::decode(br#"{"v":1,"id":1,"job":{},"deadline_ms":"x"}"#).is_err());
    }

    #[test]
    fn overloaded_errors_carry_retry_after() {
        let bytes = encode_err_with(2, "overloaded", "queue at capacity", Some(40));
        let v = json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
        let err = v.get("error").unwrap();
        assert_eq!(err.get("kind").unwrap().as_str(), Some("overloaded"));
        assert_eq!(err.get("retry_after_ms").unwrap().as_f64(), Some(40.0));
        // Plain errors omit the field entirely.
        let plain = encode_err(3, "fit", "boom");
        let v = json::parse(std::str::from_utf8(&plain).unwrap()).unwrap();
        assert!(v.get("error").unwrap().get("retry_after_ms").is_none());
    }

    #[test]
    fn traced_envelopes_round_trip() {
        let env = Envelope {
            id: 7,
            job: json::parse(r#"{"type":"ping"}"#).unwrap(),
            trace: Some(TraceInfo {
                trace_id: 0xdead_beef_0123_4567,
                parent_span: 9,
            }),
            deadline_ms: None,
        };
        let bytes = env.encode();
        let text = std::str::from_utf8(&bytes).unwrap();
        assert!(text.contains("deadbeef01234567"), "{text}");
        assert_eq!(Envelope::decode(&bytes).unwrap(), env);
        // `parent` is optional on the wire; a bad id is rejected.
        let no_parent = br#"{"v":1,"id":1,"job":{},"trace":{"id":"ab"}}"#;
        let env = Envelope::decode(no_parent).unwrap();
        assert_eq!(
            env.trace,
            Some(TraceInfo {
                trace_id: 0xab,
                parent_span: 0
            })
        );
        assert!(Envelope::decode(br#"{"v":1,"id":1,"job":{},"trace":{"id":"zz"}}"#).is_err());
        assert!(Envelope::decode(br#"{"v":1,"id":1,"job":{},"trace":{}}"#).is_err());
    }

    #[test]
    fn envelope_rejects_wrong_version_and_missing_fields() {
        assert!(Envelope::decode(br#"{"v":2,"id":1,"job":{}}"#).is_err());
        assert!(Envelope::decode(br#"{"v":1,"job":{}}"#).is_err());
        assert!(Envelope::decode(br#"{"v":1,"id":1}"#).is_err());
        assert!(Envelope::decode(b"not json").is_err());
        // Ids are integers in 0..=2^53, never coerced.
        for bad in ["-5", "1.5", "9007199254740994", "1e300", "\"7\"", "null"] {
            let env = format!(r#"{{"v":1,"id":{bad},"job":{{}}}}"#);
            assert!(
                matches!(
                    Envelope::decode(env.as_bytes()),
                    Err(ProtoError::Malformed(_))
                ),
                "id {bad}"
            );
        }
        for (good, id) in [("0", 0), ("9007199254740992", 1u64 << 53)] {
            let env = format!(r#"{{"v":1,"id":{good},"job":{{}}}}"#);
            assert_eq!(Envelope::decode(env.as_bytes()).unwrap().id, id);
        }
    }

    #[test]
    fn error_responses_carry_kind_and_message() {
        let bytes = encode_err(9, "queue_full", "queue at capacity (16 jobs)");
        let v = json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
        let err = v.get("error").unwrap();
        assert_eq!(err.get("kind").unwrap().as_str(), Some("queue_full"));
        assert!(err.get("message").unwrap().as_str().unwrap().contains("16"));
    }
}
