//! The serve JSONL protocol: request parsing and response rendering.
//!
//! One JSON object per line in both directions. A request line:
//!
//! ```json
//! {"id": "r1", "pos": ["10", "101"], "neg": ["", "0"],
//!  "priority": 1, "timeout_ms": 500, "tenant": "acme"}
//! ```
//!
//! * `pos` (required) / `neg` (optional) — example strings; `""`, `"ε"`
//!   and `"<eps>"` all denote the empty word.
//! * `id` (optional) — echoed back verbatim; defaults to the 1-based
//!   line number of the connection (or input).
//! * `priority` (optional) — higher runs earlier.
//! * `timeout_ms` (optional) — a per-request deadline; an expired request
//!   is answered with `"status": "cancelled"` without occupying a worker.
//! * `tenant` (optional) — the shard-routing key, and the admission
//!   policy key of the TCP front-end.
//!
//! A result line echoes the id with a `status` of `solved` (plus
//! `regex`, `cost`, `candidates`), a failure kind (`timeout` / `oom` /
//! `not-found` / `cancelled`), `bad-request` (with `error`), or
//! `rejected` (with `reason`, e.g. `rate_limited`) when admission
//! refused the request. A line that is not UTF-8 is answered with a
//! `bad-request` carrying its line number, and reading goes on.
//!
//! Every answered request also carries `source` (`fresh`, `cache`,
//! `coalesced` or `session`) and two times in milliseconds. `wait_ms` is
//! submission to completion, so it *includes* `run_ms`, the wall-clock
//! time of the synthesis run itself (0 when none ran: cache hits and
//! requests whose deadline expired in the queue). The queue wait is
//! `wait_ms - run_ms`. A coalesced answer shares a run that may have
//! started before it was submitted, so only there can `run_ms` exceed
//! `wait_ms`.
//!
//! A line carrying an `"op"` key is a *control verb* instead of a
//! request — see [`Verb`]. Verbs answer on the same connection, TCP or
//! stdin: `{"op": "ping"}` echoes `{"op": "ping", "status": "ok"}`,
//! `hello` returns the protocol version and capability list, `metrics`
//! returns the router snapshot as one line, `mode` switches the
//! connection's answer mode, and `shutdown` asks the whole server (on
//! stdin: the input) to drain and exit. A verb's ack is ordered like any
//! other answer (see [`serve_connection`](crate::serve_connection)).
//!
//! # Refinement sessions
//!
//! `{"op": "session.open", "name": "s1", "tenant": "acme"}` opens (or
//! resets) a named refinement session on the pool the name/tenant routes
//! to; the ack echoes the session name (server-generated when `name` is
//! omitted — interactive clients should pass their own). A line carrying
//! `"verb": "refine"` is then a synthesis request answered *through* the
//! session: `{"verb": "refine", "session": "s1", "pos": [...], "neg":
//! [...]}` re-solves the strengthened specification warm, reusing the
//! session's retained search state when sound. Refine results carry a
//! `reuse` label (`unchanged` / `warm` / `cold`, plus `reason` when
//! cold). `{"op": "session.close", "name": "s1"}` discards the state.
//!
//! Every response line is stamped with `"proto":` [`PROTO_VERSION`].

use std::io::BufRead;
use std::str::Utf8Error;
use std::time::Duration;

use rei_core::SynthesisError;
use rei_lang::Spec;
use rei_service::json::Json;
use rei_service::{SynthRequest, SynthResponse};

/// The wire protocol version stamped (as `"proto"`) on every response
/// line. Version 2 added `hello`, refinement sessions (`session.open` /
/// `session.close` / `"verb": "refine"`) and the stamp itself; version 1
/// lines carried no `proto` field.
pub const PROTO_VERSION: u64 = 2;

/// The control verbs this protocol version understands, as advertised by
/// [`hello_line`].
pub const VERBS: &[&str] = &[
    "ping",
    "hello",
    "metrics",
    "trace",
    "prometheus",
    "mode",
    "shutdown",
    "session.open",
    "session.close",
    "refine",
];

/// The capability tags advertised by [`hello_line`] — coarse feature
/// groups a client can probe without knowing individual verbs.
pub const CAPABILITIES: &[&str] = &["sessions", "refine", "stream", "trace", "prometheus"];

/// One parsed request line: the request plus the identity to echo back.
#[derive(Debug)]
pub struct ParsedRequest {
    /// The identity every answer line echoes: the client's `id` field
    /// when present, the 1-based line number otherwise.
    pub id: Json,
    /// The synthesis request described by the line.
    pub request: SynthRequest,
}

/// How a connection's answers are delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnswerMode {
    /// One answer line per input line, in input order.
    Ordered,
    /// Each answer line as soon as it is determined, tagged by id.
    Stream,
}

impl AnswerMode {
    /// The stable wire label (`ordered` / `stream`).
    pub fn as_str(&self) -> &'static str {
        match self {
            AnswerMode::Ordered => "ordered",
            AnswerMode::Stream => "stream",
        }
    }
}

/// A control verb — a line with an `"op"` key instead of examples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verb {
    /// Liveness probe; answered with `{"op": "ping", "status": "ok"}`.
    Ping,
    /// Protocol handshake; answered with the server version, the verb
    /// list and the capability tags (see [`hello_line`]).
    Hello,
    /// Opens (or resets) a refinement session. With no `name` the server
    /// generates one and echoes it in the ack.
    SessionOpen {
        /// The client-chosen session name, when one was given.
        name: Option<String>,
        /// The tenant the session belongs to (and routes by).
        tenant: Option<String>,
    },
    /// Closes a refinement session, discarding its retained state.
    SessionClose {
        /// The session name to close.
        name: String,
        /// The tenant the session was opened under.
        tenant: Option<String>,
    },
    /// Asks for the router metrics snapshot as one JSON line.
    Metrics,
    /// Asks for the retained timeline of one trace id as one JSON line.
    Trace(u64),
    /// Asks for the Prometheus text rendering of the metrics snapshot,
    /// wrapped in one JSON line (the scrape listener serves it raw).
    Prometheus,
    /// Switches this connection's [`AnswerMode`].
    Mode(AnswerMode),
    /// Asks the server to stop accepting, drain every connection and
    /// exit cleanly.
    Shutdown,
}

/// The interpretation of one input line.
#[derive(Debug)]
pub enum Input {
    /// A synthesis request.
    Request(ParsedRequest),
    /// A control verb.
    Control(Verb),
    /// A malformed line: echo a `bad-request` result and carry on.
    Bad {
        /// The identity to echo (client id or line number).
        id: Json,
        /// What was wrong with the line.
        error: String,
    },
}

fn words_of(value: &Json, key: &str) -> Result<Vec<String>, String> {
    let Some(raw) = value.get(key) else {
        return Ok(Vec::new());
    };
    let items = raw
        .as_array()
        .ok_or_else(|| format!("'{key}' must be an array of strings"))?;
    items
        .iter()
        .map(|item| {
            let word = item
                .as_str()
                .ok_or_else(|| format!("'{key}' must contain only strings"))?;
            Ok(match word {
                "ε" | "<eps>" => String::new(),
                other => other.to_string(),
            })
        })
        .collect()
}

/// Parses one input line. A malformed line yields the identity to echo —
/// the client's `id` when one was readable, the line number otherwise —
/// alongside the error message, so clients can always correlate
/// `bad-request` results with their requests.
///
/// # Errors
///
/// The `(id, message)` pair to render as a `bad-request` line.
pub fn parse_request(line: &str, line_number: usize) -> Result<ParsedRequest, (Json, String)> {
    let line_id = Json::uint(line_number as u64);
    let value = Json::parse(line).map_err(|err| (line_id.clone(), err.to_string()))?;
    if value.as_object().is_none() {
        return Err((line_id, "request must be a JSON object".into()));
    }
    let id = match value.get("id") {
        Some(id @ (Json::Str(_) | Json::Number(_))) => id.clone(),
        Some(_) => return Err((line_id, "'id' must be a string or a number".into())),
        None => line_id,
    };
    let fail = |message: String| (id.clone(), message);
    if value.get("pos").is_none() {
        return Err(fail("request needs a 'pos' array".into()));
    }
    let positives = words_of(&value, "pos").map_err(fail)?;
    let negatives = words_of(&value, "neg").map_err(fail)?;
    let spec = Spec::from_strs(
        positives.iter().map(String::as_str),
        negatives.iter().map(String::as_str),
    )
    .map_err(|err| fail(err.to_string()))?;

    let mut request = SynthRequest::new(spec);
    if let Some(priority) = value.get("priority") {
        let priority = priority
            .as_f64()
            .filter(|p| p.fract() == 0.0 && (i32::MIN as f64..=i32::MAX as f64).contains(p))
            .ok_or_else(|| fail("'priority' must be an integer".into()))?;
        request = request.with_priority(priority as i32);
    }
    if let Some(timeout) = value.get("timeout_ms") {
        // try_from rejects negative, NaN, infinite and overflowing values.
        let timeout = timeout
            .as_f64()
            .and_then(|ms| Duration::try_from_secs_f64(ms / 1e3).ok())
            .ok_or_else(|| fail("'timeout_ms' must be a non-negative number".into()))?;
        request = request.with_timeout(timeout);
    }
    if let Some(tenant) = value.get("tenant") {
        let tenant = tenant
            .as_str()
            .ok_or_else(|| fail("'tenant' must be a string".into()))?;
        request = request.with_tenant(tenant);
    }
    match value.get("verb") {
        None => {
            if value.get("session").is_some() {
                return Err(fail("'session' needs \"verb\": \"refine\"".into()));
            }
        }
        Some(verb) => match verb.as_str() {
            Some("refine") => {
                let session = value
                    .get("session")
                    .and_then(Json::as_str)
                    .ok_or_else(|| fail("'refine' needs a 'session' string".into()))?;
                request = request.with_session(session);
            }
            Some(other) => return Err(fail(format!("unknown verb '{other}'"))),
            None => return Err(fail("'verb' must be a string".into())),
        },
    }
    Ok(ParsedRequest { id, request })
}

/// Reads an optional string field, distinguishing "absent" from "present
/// but not a string".
fn optional_str(value: &Json, key: &str) -> Result<Option<String>, String> {
    match value.get(key) {
        None => Ok(None),
        Some(field) => field
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| format!("'{key}' must be a string")),
    }
}

/// Reads the next input line into `buf` as bytes and checks that it is
/// UTF-8. `buf` is cleared first, so one buffer serves every line; the
/// `\n` or `\r\n` ending is stripped. `Ok(None)` at end of input. A line
/// that is not UTF-8 comes back as `Some(Err(_))`; the caller answers it
/// with [`not_utf8_line`] and reads on.
///
/// # Errors
///
/// The underlying read error.
pub fn read_line<'b>(
    input: &mut impl BufRead,
    buf: &'b mut Vec<u8>,
) -> std::io::Result<Option<Result<&'b str, Utf8Error>>> {
    buf.clear();
    if input.read_until(b'\n', buf)? == 0 {
        return Ok(None);
    }
    let line = buf.strip_suffix(b"\n").unwrap_or(buf);
    let line = line.strip_suffix(b"\r").unwrap_or(line);
    Ok(Some(std::str::from_utf8(line)))
}

/// The `bad-request` answer to input line `line_number` when it is not
/// UTF-8 (see [`read_line`]).
pub fn not_utf8_line(line_number: usize) -> Json {
    bad_request_line(
        Json::uint(line_number as u64),
        "request line is not valid UTF-8",
    )
}

/// Interprets one input line: a control verb when the line carries an
/// `"op"` key, a synthesis request otherwise. Never fails — malformed
/// lines come back as [`Input::Bad`] for the caller to echo.
pub fn parse_line(line: &str, line_number: usize) -> Input {
    if let Ok(value) = Json::parse(line) {
        if let Some(op) = value.get("op") {
            let id = match value.get("id") {
                Some(id @ (Json::Str(_) | Json::Number(_))) => id.clone(),
                _ => Json::uint(line_number as u64),
            };
            return match op.as_str() {
                Some("ping") => Input::Control(Verb::Ping),
                Some("hello") => Input::Control(Verb::Hello),
                Some("session.open") => {
                    let fields = optional_str(&value, "name")
                        .and_then(|name| optional_str(&value, "tenant").map(|t| (name, t)));
                    match fields {
                        Ok((name, tenant)) => Input::Control(Verb::SessionOpen { name, tenant }),
                        Err(error) => Input::Bad { id, error },
                    }
                }
                Some("session.close") => {
                    let fields = optional_str(&value, "name")
                        .and_then(|name| optional_str(&value, "tenant").map(|t| (name, t)));
                    match fields {
                        Ok((Some(name), tenant)) => {
                            Input::Control(Verb::SessionClose { name, tenant })
                        }
                        Ok((None, _)) => Input::Bad {
                            id,
                            error: "'session.close' needs a 'name' string".into(),
                        },
                        Err(error) => Input::Bad { id, error },
                    }
                }
                Some("metrics") => Input::Control(Verb::Metrics),
                Some("prometheus") => Input::Control(Verb::Prometheus),
                Some("trace") => match value.get("trace").and_then(Json::as_u64) {
                    Some(trace) => Input::Control(Verb::Trace(trace)),
                    None => Input::Bad {
                        id,
                        error: "'trace' needs a numeric 'trace' id".into(),
                    },
                },
                Some("shutdown") => Input::Control(Verb::Shutdown),
                Some("mode") => match value.get("value").and_then(Json::as_str) {
                    Some("ordered") => Input::Control(Verb::Mode(AnswerMode::Ordered)),
                    Some("stream") => Input::Control(Verb::Mode(AnswerMode::Stream)),
                    _ => Input::Bad {
                        id,
                        error: "'mode' needs a 'value' of 'ordered' or 'stream'".into(),
                    },
                },
                Some(other) => Input::Bad {
                    id,
                    error: format!("unknown op '{other}'"),
                },
                None => Input::Bad {
                    id,
                    error: "'op' must be a string".into(),
                },
            };
        }
    }
    match parse_request(line, line_number) {
        Ok(parsed) => Input::Request(parsed),
        Err((id, error)) => Input::Bad { id, error },
    }
}

/// The `status` word of a failed synthesis.
pub fn error_status(err: &SynthesisError) -> &'static str {
    match err {
        SynthesisError::Timeout { .. } => "timeout",
        SynthesisError::OutOfMemory { .. } => "oom",
        SynthesisError::NotFound { .. } => "not-found",
        SynthesisError::Cancelled { .. } => "cancelled",
        // The service validates its config at start; per-request failures
        // can never be InvalidConfig.
        SynthesisError::InvalidConfig { .. } => "invalid-config",
    }
}

/// Stamps the protocol version onto a response line built elsewhere
/// (e.g. a metrics snapshot). The dedicated line builders below stamp
/// their own output.
pub fn stamped(mut line: Json) -> Json {
    line.set("proto", Json::uint(PROTO_VERSION));
    line
}

/// A `bad-request` result line.
pub fn bad_request_line(id: Json, message: &str) -> Json {
    stamped(Json::object([
        ("id", id),
        ("status", Json::str("bad-request")),
        ("error", Json::str(message)),
    ]))
}

/// A `rejected` result line — the explicit refusal admission promises
/// (`reason` is e.g. `rate_limited`, `shutting_down` or
/// `unknown_session`).
pub fn rejected_line(id: Json, reason: &str) -> Json {
    stamped(Json::object([
        ("id", id),
        ("status", Json::str("rejected")),
        ("reason", Json::str(reason)),
    ]))
}

/// The acknowledgement line of a control verb.
pub fn verb_ok_line(op: &str) -> Json {
    stamped(Json::object([
        ("op", Json::str(op)),
        ("status", Json::str("ok")),
    ]))
}

/// The error line of a control verb that was understood but could not be
/// performed (e.g. closing a session that does not exist).
pub fn verb_err_line(op: &str, error: &str) -> Json {
    stamped(Json::object([
        ("op", Json::str(op)),
        ("status", Json::str("error")),
        ("error", Json::str(error)),
    ]))
}

/// The `hello` handshake answer: the server version, the protocol
/// version, the verb list and the capability tags.
pub fn hello_line() -> Json {
    stamped(Json::object([
        ("op", Json::str("hello")),
        ("status", Json::str("ok")),
        ("version", Json::str(env!("CARGO_PKG_VERSION"))),
        (
            "verbs",
            Json::array(VERBS.iter().map(|verb| Json::str(*verb))),
        ),
        (
            "capabilities",
            Json::array(CAPABILITIES.iter().map(|cap| Json::str(*cap))),
        ),
    ]))
}

/// The timeline of one trace as a single answer line.
pub fn trace_line(trace: u64, events: &[rei_obs::TraceEvent]) -> Json {
    stamped(Json::object([
        ("op", Json::str("trace")),
        ("trace", Json::uint(trace)),
        (
            "events",
            Json::array(events.iter().map(|event| {
                Json::object([
                    (
                        "offset_ms",
                        Json::fixed(event.offset.as_secs_f64() * 1e3, 3),
                    ),
                    ("phase", Json::str(event.phase)),
                    ("detail", Json::str(&event.detail)),
                ])
            })),
        ),
    ]))
}

/// The result line of one completed request. `trace` is the request's
/// trace id, echoed so clients can query the timeline afterwards.
/// Refinement answers additionally carry `reuse` (`unchanged` / `warm` /
/// `cold`) and, when cold, the `reason`.
pub fn response_line(id: Json, response: &SynthResponse, trace: Option<u64>) -> Json {
    let ms = |d: Duration| Json::fixed(d.as_secs_f64() * 1e3, 3);
    let mut line = vec![("id".to_string(), id)];
    if let Some(trace) = trace {
        line.push(("trace".into(), Json::uint(trace)));
    }
    match &response.outcome {
        Ok(result) => {
            line.push(("status".into(), Json::str("solved")));
            line.push(("regex".into(), Json::str(result.regex.to_string())));
            line.push(("cost".into(), Json::uint(result.cost)));
        }
        Err(err) => {
            line.push(("status".into(), Json::str(error_status(err))));
        }
    }
    line.push(("source".into(), Json::str(response.source.as_str())));
    line.push(("wait_ms".into(), ms(response.waited)));
    line.push(("run_ms".into(), ms(response.ran)));
    if let Ok(result) = &response.outcome {
        line.push((
            "candidates".into(),
            Json::uint(result.stats.candidates_generated),
        ));
    }
    if let Some(reuse) = &response.reuse {
        line.push(("reuse".into(), Json::str(reuse.label())));
        if let Some(reason) = reuse.cold_reason() {
            line.push(("reason".into(), Json::str(reason.as_str())));
        }
    }
    stamped(Json::Object(line))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_parse_with_defaults_and_hints() {
        let parsed = parse_request(
            r#"{"id": "r1", "pos": ["10", "ε"], "neg": ["0"], "priority": 2, "tenant": "acme"}"#,
            3,
        )
        .unwrap();
        assert_eq!(parsed.id.as_str(), Some("r1"));
        assert_eq!(parsed.request.priority(), 2);
        assert_eq!(parsed.request.tenant(), Some("acme"));
        assert_eq!(parsed.request.spec().num_positive(), 2);

        let unnamed = parse_request(r#"{"pos": ["0"]}"#, 7).unwrap();
        assert_eq!(unnamed.id.as_u64(), Some(7));
        assert_eq!(unnamed.request.tenant(), None);
    }

    #[test]
    fn malformed_requests_keep_the_client_id_when_readable() {
        let (id, error) = parse_request(r#"{"id": "x", "neg": ["1"]}"#, 1).unwrap_err();
        assert_eq!(id.as_str(), Some("x"));
        assert!(error.contains("pos"), "{error}");
        let (id, _) = parse_request("not json", 9).unwrap_err();
        assert_eq!(id.as_u64(), Some(9));
        let (_, error) = parse_request(r#"{"pos": ["0"], "tenant": 7}"#, 1).unwrap_err();
        assert!(error.contains("tenant"), "{error}");
    }

    #[test]
    fn control_verbs_are_recognised() {
        assert!(matches!(
            parse_line(r#"{"op": "ping"}"#, 1),
            Input::Control(Verb::Ping)
        ));
        assert!(matches!(
            parse_line(r#"{"op": "metrics"}"#, 1),
            Input::Control(Verb::Metrics)
        ));
        assert!(matches!(
            parse_line(r#"{"op": "prometheus"}"#, 1),
            Input::Control(Verb::Prometheus)
        ));
        assert!(matches!(
            parse_line(r#"{"op": "trace", "trace": 12}"#, 1),
            Input::Control(Verb::Trace(12))
        ));
        assert!(matches!(
            parse_line(r#"{"op": "trace"}"#, 1),
            Input::Bad { .. }
        ));
        assert!(matches!(
            parse_line(r#"{"op": "shutdown"}"#, 1),
            Input::Control(Verb::Shutdown)
        ));
        assert!(matches!(
            parse_line(r#"{"op": "mode", "value": "stream"}"#, 1),
            Input::Control(Verb::Mode(AnswerMode::Stream))
        ));
        assert!(matches!(
            parse_line(r#"{"op": "mode", "value": "ordered"}"#, 1),
            Input::Control(Verb::Mode(AnswerMode::Ordered))
        ));
        for bad in [
            r#"{"op": "mode"}"#,
            r#"{"op": "mode", "value": "sideways"}"#,
            r#"{"op": "reboot"}"#,
            r#"{"op": 3}"#,
        ] {
            assert!(matches!(parse_line(bad, 1), Input::Bad { .. }), "{bad}");
        }
        // Plain requests and garbage still parse as before.
        assert!(matches!(
            parse_line(r#"{"pos": ["0"]}"#, 1),
            Input::Request(_)
        ));
        assert!(matches!(parse_line("not json", 1), Input::Bad { .. }));
    }

    #[test]
    fn rendered_lines_carry_the_expected_fields() {
        let bad = bad_request_line(Json::str("b"), "nope");
        assert_eq!(
            bad.get("status").and_then(Json::as_str),
            Some("bad-request")
        );
        assert_eq!(bad.get("error").and_then(Json::as_str), Some("nope"));
        let rejected = rejected_line(Json::uint(4), "rate_limited");
        assert_eq!(
            rejected.get("status").and_then(Json::as_str),
            Some("rejected")
        );
        assert_eq!(
            rejected.get("reason").and_then(Json::as_str),
            Some("rate_limited")
        );
        let ok = verb_ok_line("ping");
        assert_eq!(ok.get("op").and_then(Json::as_str), Some("ping"));
        assert_eq!(ok.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(AnswerMode::Stream.as_str(), "stream");
        assert_eq!(AnswerMode::Ordered.as_str(), "ordered");
    }

    #[test]
    fn every_rendered_line_is_stamped_with_the_protocol_version() {
        for line in [
            bad_request_line(Json::str("b"), "nope"),
            rejected_line(Json::uint(4), "rate_limited"),
            verb_ok_line("ping"),
            verb_err_line("session.close", "unknown session"),
            hello_line(),
            trace_line(3, &[]),
        ] {
            assert_eq!(
                line.get("proto").and_then(Json::as_u64),
                Some(PROTO_VERSION),
                "{line:?}"
            );
        }
    }

    #[test]
    fn hello_advertises_version_verbs_and_capabilities() {
        assert!(matches!(
            parse_line(r#"{"op": "hello"}"#, 1),
            Input::Control(Verb::Hello)
        ));
        let hello = hello_line();
        assert_eq!(
            hello.get("version").and_then(Json::as_str),
            Some(env!("CARGO_PKG_VERSION"))
        );
        let verbs = hello.get("verbs").and_then(Json::as_array).unwrap();
        for expected in ["hello", "refine", "session.open", "session.close"] {
            assert!(
                verbs.iter().any(|v| v.as_str() == Some(expected)),
                "missing verb {expected}"
            );
        }
        let caps = hello.get("capabilities").and_then(Json::as_array).unwrap();
        assert!(caps.iter().any(|c| c.as_str() == Some("sessions")));
    }

    #[test]
    fn session_ops_parse_names_and_tenants() {
        match parse_line(
            r#"{"op": "session.open", "name": "s1", "tenant": "acme"}"#,
            1,
        ) {
            Input::Control(Verb::SessionOpen { name, tenant }) => {
                assert_eq!(name.as_deref(), Some("s1"));
                assert_eq!(tenant.as_deref(), Some("acme"));
            }
            other => panic!("{other:?}"),
        }
        match parse_line(r#"{"op": "session.open"}"#, 1) {
            Input::Control(Verb::SessionOpen { name, tenant }) => {
                assert_eq!(name, None);
                assert_eq!(tenant, None);
            }
            other => panic!("{other:?}"),
        }
        match parse_line(r#"{"op": "session.close", "name": "s1"}"#, 1) {
            Input::Control(Verb::SessionClose { name, tenant }) => {
                assert_eq!(name, "s1");
                assert_eq!(tenant, None);
            }
            other => panic!("{other:?}"),
        }
        for bad in [
            r#"{"op": "session.close"}"#,
            r#"{"op": "session.open", "name": 7}"#,
            r#"{"op": "session.close", "name": "s", "tenant": 9}"#,
        ] {
            assert!(matches!(parse_line(bad, 1), Input::Bad { .. }), "{bad}");
        }
    }

    #[test]
    fn refine_requests_carry_their_session() {
        let parsed = parse_request(
            r#"{"verb": "refine", "session": "s1", "id": "r", "pos": ["0"], "neg": ["1"]}"#,
            1,
        )
        .unwrap();
        assert_eq!(parsed.request.session(), Some("s1"));
        assert_eq!(parsed.id.as_str(), Some("r"));
        // A plain request has no session.
        let plain = parse_request(r#"{"pos": ["0"]}"#, 1).unwrap();
        assert_eq!(plain.request.session(), None);
        // Malformed refinements are bad requests, not crashes.
        for (bad, needle) in [
            (r#"{"verb": "refine", "pos": ["0"]}"#, "session"),
            (r#"{"verb": "solve", "pos": ["0"]}"#, "unknown verb"),
            (r#"{"verb": 3, "pos": ["0"]}"#, "'verb'"),
            (r#"{"session": "s1", "pos": ["0"]}"#, "refine"),
            (r#"{"verb": "refine", "session": "s1"}"#, "pos"),
        ] {
            let (_, error) = parse_request(bad, 1).unwrap_err();
            assert!(error.contains(needle), "{bad} -> {error}");
        }
    }
}
