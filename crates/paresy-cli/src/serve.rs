//! The `serve` command: JSONL requests on stdin, JSONL results out.
//!
//! Each input line is one JSON request object:
//!
//! ```json
//! {"id": "r1", "pos": ["10", "101"], "neg": ["", "0"],
//!  "priority": 1, "timeout_ms": 500, "tenant": "acme"}
//! ```
//!
//! * `pos` (required) / `neg` (optional) — example strings; `""`, `"ε"`
//!   and `"<eps>"` all denote the empty word.
//! * `id` (optional) — echoed back verbatim; defaults to the 1-based
//!   line number.
//! * `priority` (optional) — higher runs earlier.
//! * `timeout_ms` (optional) — a per-request deadline; an expired request
//!   is answered with `"status": "cancelled"` without occupying a worker.
//! * `tenant` (optional) — the shard-routing key: all requests of a
//!   tenant land on the same pool of the `--pools` router. Requests
//!   without one are routed by the specification's fingerprint.
//!
//! Every request is submitted to a [`ShardRouter`] of `--pools`
//! [`SynthService`](rei_service::SynthService) pools as it is read
//! (identical requests are cache-served or coalesced), and one result
//! line is emitted per request:
//!
//! ```json
//! {"id": "r1", "status": "solved", "regex": "10(0+1)*", "cost": 8,
//!  "source": "fresh", "wait_ms": 2.6, "run_ms": 2.5, "candidates": 117}
//! ```
//!
//! `wait_ms` runs from submission to completion and includes `run_ms`,
//! the synthesis run itself; the queue wait is their difference (see
//! [`rei_net::protocol`]).
//!
//! Stdin is served as one connection of the TCP front-end, through the
//! same loop ([`rei_net::serve_connection`], which states the ordering
//! rule): answers come in input order, or with `--stream` each as soon as
//! it is determined, tagged by id — what long-lived clients pipelining
//! requests want.
//!
//! With `--cache-dir DIR` each pool's result cache persists to a
//! segmented write-ahead log under `DIR/pool-K/`: completed results are
//! appended as they happen (rolling to a fresh segment every
//! `--cache-roll-bytes`) and warm the cache of the next `paresy serve`
//! over the same directory — even after a crash or `kill -9` — so a
//! restarted server answers repeats with `"source": "cache"` without
//! re-running any synthesis.
//!
//! Failed searches report `"status"` of `timeout` / `oom` / `not-found` /
//! `cancelled`; malformed lines report `bad-request` with an `error`
//! message (and are not submitted). Blank lines are skipped.
//!
//! Control verbs work as on TCP: `{"op": "hello"}` answers the protocol
//! handshake, `{"op": "session.open", "name": "s1"}` opens a refinement
//! session and `{"verb": "refine", "session": "s1", "pos": [...]}`
//! re-solves a strengthened specification warm through it (see
//! [`rei_net::protocol`]); `mode` switches the answer mode, and
//! `shutdown` ends the input and answers what is pending. Verbs execute
//! in input order, before any later request is submitted. Every output
//! line carries `"proto":`
//! [`PROTO_VERSION`](rei_net::protocol::PROTO_VERSION).
//!
//! With `--listen ADDR` the same protocol is served over TCP instead of
//! stdin (see [`rei_net`]): many concurrent connections, per-tenant
//! fair-share admission (`--tenant`, `--default-tenant`) and a graceful
//! drain on Ctrl-C, SIGTERM or the `shutdown` verb. The wire format
//! itself lives in [`rei_net::protocol`], shared between both modes.

use std::io::{BufRead, Write};
use std::sync::atomic::AtomicBool;

use rei_core::SynthConfig;
use rei_net::protocol::{stamped, AnswerMode};
use rei_net::{install_shutdown_signals, serve_connection, NetConfig, NetServer};
use rei_service::json::Json;
use rei_service::{RouterConfig, ServiceConfig, ShardRouter, WalOptions};

use crate::args::ServeOptions;

/// Applies `--log-level` to the process-wide structured log threshold.
/// The flag wins over the `REI_LOG` environment default.
fn apply_log_level(options: &ServeOptions) {
    if let Some(name) = &options.log_level {
        if let Some(level) = rei_obs::log::parse_level(name) {
            rei_obs::log::set_level(level);
        }
    }
}

/// Builds the pool-wide synthesis configuration the flags describe.
fn synth_config(options: &ServeOptions) -> SynthConfig {
    let mut config = SynthConfig::new(options.costs)
        .with_backend(options.backend)
        .with_allowed_error(options.allowed_error);
    if let Some(max_cost) = options.max_cost {
        config = config.with_max_cost(max_cost);
    }
    if let Some(budget) = options.time_budget {
        config = config.with_time_budget(budget);
    }
    if let Some(rows) = options.sched_chunk {
        config = config.with_sched_chunk(rows);
    }
    if let Some(rows) = options.level_chunk_rows {
        config = config.with_level_chunk_rows(rows);
    }
    config
}

/// Builds the shard router the flags describe: `--pools` identical pools
/// of `--workers` workers each, persistent under `--cache-dir` when set.
fn build_router(options: &ServeOptions) -> Result<ShardRouter, String> {
    let mut service = ServiceConfig::new(options.workers)
        .with_queue_capacity(options.queue_capacity)
        .with_cache_capacity(options.cache_capacity)
        .with_synth(synth_config(options));
    if let Some(roll_bytes) = options.cache_roll_bytes {
        service = service.with_wal(WalOptions {
            roll_bytes,
            ..WalOptions::default()
        });
    }
    let mut config = RouterConfig::identical(options.pools, service);
    if let Some(dir) = &options.cache_dir {
        config = config.with_cache_dir(dir);
    }
    ShardRouter::start(config).map_err(|err| err.to_string())
}

/// Runs the serve command over `input` (one JSON request per line),
/// writing one answer line per input line to `out`. The input is served
/// as one connection of the TCP front-end, with its default
/// (all-unlimited) admission and trace ring; `--stream` starts it in
/// stream mode. With `--metrics` the final router snapshot follows as
/// one JSON line.
///
/// # Errors
///
/// Returns a message when the service configuration is invalid (or a
/// persistent cache file cannot be opened) or `input`/`out` fails;
/// malformed *requests* are reported inline as `bad-request` result lines
/// instead.
pub fn run_serve_on(
    options: &ServeOptions,
    input: impl BufRead + Send + 'static,
    mut out: impl Write,
) -> Result<(), String> {
    apply_log_level(options);
    let router = build_router(options)?;
    // No address is bound: only the config's admission defaults are used.
    let fair = NetConfig::new("stdin").admission_stage()?;
    let mode = if options.stream {
        AnswerMode::Stream
    } else {
        AnswerMode::Ordered
    };
    let served = serve_connection(
        input,
        &mut out,
        mode,
        &router,
        &fair,
        &AtomicBool::new(false),
    );
    let mut snapshot = router.shutdown();
    served.map_err(|err| format!("cannot serve stdin: {err}"))?;
    if options.metrics {
        snapshot.admission = fair.counters();
        snapshot.tenants = fair.tenant_counters();
        emit(&mut out, &stamped(snapshot.to_json()))?;
    }
    Ok(())
}

fn emit(out: &mut impl Write, line: &Json) -> Result<(), String> {
    writeln!(out, "{}", line.to_compact())
        .and_then(|()| out.flush())
        .map_err(|err| format!("cannot write output: {err}"))
}

/// Runs the serve command as a TCP front-end on `--listen ADDR`: binds,
/// announces the resolved address on `out` as `listening on ADDR` (which
/// is how scripts discover a `:0` port), then serves connections until a
/// `shutdown` control verb or Ctrl-C drains the server. With `--metrics`
/// the final router snapshot — admission counters included — is written
/// to `out` as one JSON line after the drain.
///
/// # Errors
///
/// Returns a message when the service or admission configuration is
/// invalid, the address cannot be bound, or the listener fails fatally.
pub fn run_serve_listen(options: &ServeOptions, mut out: impl Write) -> Result<(), String> {
    apply_log_level(options);
    let listen = options
        .listen
        .as_deref()
        .ok_or_else(|| "run_serve_listen needs --listen".to_string())?;
    let router = build_router(options)?;
    let mut config = NetConfig::new(listen)
        .with_handler_threads(options.net_threads)
        .with_admission(options.admission.clone());
    if let Some(addr) = &options.metrics_addr {
        config = config.with_metrics_addr(addr);
    }
    if let Some(slo) = options.slo {
        config = config.with_slo(slo);
    }
    let server = NetServer::bind(config, router)?;
    writeln!(out, "listening on {}", server.local_addr())
        .and_then(|()| out.flush())
        .map_err(|err| format!("cannot write output: {err}"))?;
    if let Some(addr) = server.metrics_addr() {
        writeln!(out, "metrics on {addr}")
            .and_then(|()| out.flush())
            .map_err(|err| format!("cannot write output: {err}"))?;
    }
    install_shutdown_signals();
    let snapshot = server.run()?;
    if options.metrics {
        emit(&mut out, &stamped(snapshot.to_json()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rei_core::BackendChoice;
    use std::time::Duration;

    fn options() -> ServeOptions {
        ServeOptions {
            workers: 2,
            ..ServeOptions::default()
        }
    }

    fn lines(raw: &str) -> Vec<Json> {
        raw.lines().map(|l| Json::parse(l).unwrap()).collect()
    }

    /// Serves `input` to completion and returns the output.
    fn serve(options: &ServeOptions, input: &'static [u8]) -> String {
        let mut out = Vec::new();
        run_serve_on(options, input, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn answers_every_request_in_order() {
        let input = r#"{"id": "intro", "pos": ["10", "101", "100"], "neg": ["ε", "0", "1"]}
{"pos": ["0", "00"], "neg": ["1", "10"]}

{"id": 7, "pos": ["0", "00"], "neg": ["1", "10"]}
"#;
        let out = serve(&options(), input.as_bytes());
        let results = lines(&out);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].get("id").and_then(Json::as_str), Some("intro"));
        assert_eq!(
            results[0].get("status").and_then(Json::as_str),
            Some("solved")
        );
        assert!(results[0].get("regex").is_some());
        // The unnamed request is identified by its line number.
        assert_eq!(results[1].get("id").and_then(Json::as_u64), Some(2));
        // The duplicate of line 2 is answered without a second synthesis.
        assert_eq!(results[2].get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(
            results[2].get("cost").and_then(Json::as_u64),
            results[1].get("cost").and_then(Json::as_u64)
        );
        assert_ne!(
            results[2].get("source").and_then(Json::as_str),
            Some("fresh")
        );
    }

    #[test]
    fn a_line_that_is_not_utf8_is_a_bad_request_in_both_stdin_modes() {
        let input: &[u8] = b"{\"id\": \"a\", \"pos\": [\"0\", \"00\"], \"neg\": [\"1\"]}\n\
                             \xff\xfe\n\
                             {\"id\": \"b\", \"pos\": [\"1\", \"11\"], \"neg\": [\"0\"]}\n";
        let ordered = lines(&serve(&options(), input));
        let statuses: Vec<String> = ordered
            .iter()
            .map(|r| {
                let status = r.get("status").and_then(Json::as_str).unwrap();
                format!("{} {status}", r.get("id").unwrap().to_compact())
            })
            .collect();
        assert_eq!(statuses, ["\"a\" solved", "2 bad-request", "\"b\" solved"]);
        let mut streaming = options();
        streaming.stream = true;
        let mut streamed: Vec<String> = lines(&serve(&streaming, input))
            .iter()
            .map(|r| r.get("id").unwrap().to_compact())
            .collect();
        // Streaming answers in completion order: compare as a set.
        streamed.sort();
        assert_eq!(streamed, ["\"a\"", "\"b\"", "2"]);
    }

    #[test]
    fn streaming_answers_every_request_tagged_by_id() {
        let mut options = options();
        options.stream = true;
        options.pools = 2;
        let input = "{\"id\": \"a\", \"pos\": [\"0\", \"00\"], \"neg\": [\"1\"], \"tenant\": \"t1\"}\n\
                     not json\n\
                     {\"id\": \"b\", \"pos\": [\"1\", \"11\"], \"neg\": [\"0\"], \"tenant\": \"t2\"}\n\
                     {\"id\": \"c\", \"pos\": [\"0\", \"00\"], \"neg\": [\"1\"], \"tenant\": \"t1\"}\n";
        let results = lines(&serve(&options, input.as_bytes()));
        assert_eq!(results.len(), 4);
        // Order is not guaranteed; the id *set* is, and ids correlate.
        let mut ids: Vec<String> = results
            .iter()
            .map(|r| {
                r.get("id")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .unwrap_or_else(|| r.get("id").unwrap().to_compact())
            })
            .collect();
        ids.sort();
        assert_eq!(ids, ["2", "a", "b", "c"]);
        for result in &results {
            let id = result.get("id").and_then(Json::as_str);
            let status = result.get("status").and_then(Json::as_str);
            match id {
                Some("a") | Some("b") | Some("c") => assert_eq!(status, Some("solved"), "{id:?}"),
                _ => assert_eq!(status, Some("bad-request")),
            }
        }
        // "c" duplicates "a" on the same tenant (same pool): no third run.
        let c = results
            .iter()
            .find(|r| r.get("id").and_then(Json::as_str) == Some("c"))
            .unwrap();
        assert_ne!(c.get("source").and_then(Json::as_str), Some("fresh"));
    }

    /// A pipelining client: delivers one request, then keeps the stream
    /// open (blocking in `read`) for `hold` before signalling EOF.
    struct PipeliningClient {
        first: Option<Vec<u8>>,
        hold: Duration,
    }

    impl std::io::Read for PipeliningClient {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.first.take() {
                Some(line) => {
                    buf[..line.len()].copy_from_slice(&line);
                    Ok(line.len())
                }
                None => {
                    std::thread::sleep(self.hold);
                    Ok(0)
                }
            }
        }
    }

    type TimedLines = Vec<(std::time::Instant, Vec<u8>)>;

    /// A writer that timestamps every line it receives.
    #[derive(Clone, Default)]
    struct TimedWriter(std::sync::Arc<std::sync::Mutex<TimedLines>>);

    impl Write for TimedWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0
                .lock()
                .unwrap()
                .push((std::time::Instant::now(), buf.to_vec()));
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn streaming_answers_while_the_input_is_still_open() {
        // The point of --stream: a client that sends one request and
        // *waits for the answer* before sending more must receive it
        // while the server's read is still blocked — not at EOF.
        let mut options = options();
        options.stream = true;
        let hold = Duration::from_millis(1500);
        let client = std::io::BufReader::new(PipeliningClient {
            first: Some(
                b"{\"id\": \"only\", \"pos\": [\"0\", \"00\"], \"neg\": [\"1\"]}\n".to_vec(),
            ),
            hold,
        });
        let writer = TimedWriter::default();
        let started = std::time::Instant::now();
        run_serve_on(&options, client, writer.clone()).unwrap();
        let written = writer.0.lock().unwrap();
        let (answered_at, first) = written.first().expect("one answer line");
        let line = Json::parse(std::str::from_utf8(first).unwrap().trim()).unwrap();
        assert_eq!(line.get("id").and_then(Json::as_str), Some("only"));
        assert_eq!(line.get("status").and_then(Json::as_str), Some("solved"));
        assert!(
            answered_at.duration_since(started) < hold / 2,
            "answer arrived only after {:?} — held back until EOF",
            answered_at.duration_since(started)
        );
    }

    #[test]
    fn malformed_lines_become_bad_request_results() {
        let input = "{\"pos\": [\"0\"]}\nnot json\n{\"neg\": [\"1\"]}\n{\"pos\": \"0\"}\n";
        let out = serve(&options(), input.as_bytes());
        let results = lines(&out);
        assert_eq!(results.len(), 4);
        assert_eq!(
            results[0].get("status").and_then(Json::as_str),
            Some("solved")
        );
        for (index, result) in results.iter().enumerate().skip(1) {
            assert_eq!(
                result.get("status").and_then(Json::as_str),
                Some("bad-request"),
                "line {index}"
            );
            assert!(result.get("error").is_some());
        }
        // Contradictory examples are also a bad request, not a crash —
        // and the client's own id survives into the error line.
        let out = serve(
            &options(),
            "{\"id\": \"r9\", \"pos\": [\"0\"], \"neg\": [\"0\"]}\n".as_bytes(),
        );
        let result = &lines(&out)[0];
        assert_eq!(
            result.get("status").and_then(Json::as_str),
            Some("bad-request")
        );
        assert_eq!(result.get("id").and_then(Json::as_str), Some("r9"));
        // A hostile timeout or tenant is a bad request too, not a panic.
        let out = serve(
            &options(),
            "{\"id\": \"t\", \"pos\": [\"0\"], \"timeout_ms\": -5}\n\
             {\"pos\": [\"0\"], \"timeout_ms\": 1e40}\n\
             {\"pos\": [\"0\"], \"tenant\": 7}\n"
                .as_bytes(),
        );
        for result in &lines(&out) {
            assert_eq!(
                result.get("status").and_then(Json::as_str),
                Some("bad-request"),
                "{result:?}"
            );
        }
    }

    #[test]
    fn sessions_refine_warm_over_stdin() {
        let mut options = options();
        options.workers = 1; // deterministic refine ordering
        let input = "{\"op\": \"hello\"}\n\
            {\"op\": \"session.open\", \"name\": \"s1\"}\n\
            {\"verb\": \"refine\", \"session\": \"s1\", \"id\": \"a\", \"pos\": [\"0\", \"00\"], \"neg\": [\"1\"]}\n\
            {\"verb\": \"refine\", \"session\": \"s1\", \"id\": \"b\", \"pos\": [\"0\", \"00\"], \"neg\": [\"1\", \"10\"]}\n\
            {\"verb\": \"refine\", \"session\": \"ghost\", \"id\": \"c\", \"pos\": [\"0\"]}\n\
            {\"op\": \"session.close\", \"name\": \"s1\"}\n";
        let out = serve(&options, input.as_bytes());
        let results = lines(&out);
        assert_eq!(results.len(), 6, "{out}");
        for line in &results {
            assert_eq!(
                line.get("proto").and_then(Json::as_u64),
                Some(rei_net::protocol::PROTO_VERSION),
                "{line:?}"
            );
        }
        assert_eq!(results[0].get("op").and_then(Json::as_str), Some("hello"));
        assert!(results[0].get("verbs").is_some());
        assert_eq!(results[1].get("session").and_then(Json::as_str), Some("s1"));
        let first = &results[2];
        assert_eq!(first.get("id").and_then(Json::as_str), Some("a"));
        assert_eq!(first.get("status").and_then(Json::as_str), Some("solved"));
        assert_eq!(first.get("source").and_then(Json::as_str), Some("session"));
        assert_eq!(first.get("reuse").and_then(Json::as_str), Some("cold"));
        let second = &results[3];
        assert_eq!(second.get("reuse").and_then(Json::as_str), Some("warm"));
        assert!(second.get("reason").is_none());
        let ghost = &results[4];
        assert_eq!(ghost.get("status").and_then(Json::as_str), Some("rejected"));
        assert_eq!(
            ghost.get("reason").and_then(Json::as_str),
            Some("unknown_session")
        );
        assert_eq!(
            results[5].get("op").and_then(Json::as_str),
            Some("session.close")
        );
        assert_eq!(results[5].get("status").and_then(Json::as_str), Some("ok"));
    }

    #[test]
    fn mode_and_shutdown_work_on_stdin() {
        let input = "{\"op\": \"mode\", \"value\": \"stream\"}\n\
                     {\"id\": \"a\", \"pos\": [\"0\", \"00\"], \"neg\": [\"1\"]}\n\
                     {\"op\": \"mode\", \"value\": \"ordered\"}\n\
                     {\"op\": \"shutdown\"}\n\
                     {\"id\": \"late\", \"pos\": [\"1\"]}\n";
        let results = lines(&serve(&options(), input.as_bytes()));
        let field =
            |line: &Json, key: &str| line.get(key).and_then(Json::as_str).map(str::to_string);
        let summary: Vec<_> = results
            .iter()
            .map(|line| {
                (
                    field(line, "op").or(field(line, "id")),
                    field(line, "status"),
                )
            })
            .collect();
        let entry = |name: &str, status: &str| (Some(name.to_string()), Some(status.to_string()));
        // Back in ordered mode, the ack waits for the pending answer;
        // `shutdown` ends the input, so `late` is never read.
        assert_eq!(
            summary,
            [
                entry("mode", "ok"),
                entry("a", "solved"),
                entry("mode", "ok"),
                entry("shutdown", "ok"),
            ]
        );
        assert_eq!(field(&results[0], "value").as_deref(), Some("stream"));
        assert_eq!(field(&results[2], "value").as_deref(), Some("ordered"));
    }

    #[test]
    fn expired_deadline_is_reported_as_cancelled() {
        let input = "{\"pos\": [\"10\", \"101\"], \"neg\": [\"\", \"0\"], \"timeout_ms\": 0}\n";
        let out = serve(&options(), input.as_bytes());
        let results = lines(&out);
        assert_eq!(
            results[0].get("status").and_then(Json::as_str),
            Some("cancelled")
        );
        assert_eq!(results[0].get("run_ms").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn fresh_answer_wait_includes_its_run() {
        let input = "{\"id\": \"intro\", \"pos\": [\"10\", \"101\", \"100\", \"1010\"], \
                     \"neg\": [\"\", \"0\", \"1\", \"00\", \"11\"]}\n";
        let results = lines(&serve(&options(), input.as_bytes()));
        let line = &results[0];
        assert_eq!(line.get("source").and_then(Json::as_str), Some("fresh"));
        let wait = line.get("wait_ms").and_then(Json::as_f64).unwrap();
        let run = line.get("run_ms").and_then(Json::as_f64).unwrap();
        assert!(run > 0.0, "{line:?}");
        assert!(wait >= run, "wait_ms {wait} < run_ms {run}: {line:?}");
    }

    #[test]
    fn metrics_flag_appends_a_router_snapshot_line() {
        let mut options = options();
        options.metrics = true;
        options.pools = 2;
        options.backend = BackendChoice::ThreadParallel { threads: Some(2) };
        let input = "{\"pos\": [\"0\"], \"neg\": [\"1\"]}\n{\"pos\": [\"0\"], \"neg\": [\"1\"]}\n";
        let out = serve(&options, input.as_bytes());
        let results = lines(&out);
        assert_eq!(results.len(), 3);
        let metrics = &results[2];
        assert_eq!(
            metrics.get("schema").and_then(Json::as_str),
            Some("rei-service/router-metrics-v1")
        );
        assert_eq!(metrics.get("pools").and_then(Json::as_u64), Some(2));
        assert_eq!(
            metrics
                .get("rollup")
                .and_then(|r| r.get("requests"))
                .and_then(|r| r.get("submitted"))
                .and_then(Json::as_u64),
            Some(2)
        );
    }

    #[test]
    fn cache_dir_warms_a_restarted_server_from_disk() {
        let dir = std::env::temp_dir().join(format!("paresy-serve-cache-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut options = options();
        options.cache_dir = Some(dir.to_string_lossy().into_owned());
        options.metrics = true;
        let input = "{\"id\": \"x\", \"pos\": [\"0\", \"00\"], \"neg\": [\"1\"]}\n";

        let first = serve(&options, input.as_bytes());
        let first = lines(&first);
        assert_eq!(first[0].get("source").and_then(Json::as_str), Some("fresh"));

        // A second process over the same directory answers from disk.
        let second = serve(&options, input.as_bytes());
        let second = lines(&second);
        assert_eq!(
            second[0].get("source").and_then(Json::as_str),
            Some("cache")
        );
        let rollup = second[1].get("rollup").unwrap();
        assert_eq!(
            rollup
                .get("cache")
                .and_then(|c| c.get("disk_loaded"))
                .and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            rollup
                .get("jobs")
                .and_then(|j| j.get("enqueued"))
                .and_then(Json::as_u64),
            Some(0),
            "the restarted server ran no synthesis"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn listen_mode_serves_tcp_and_reports_admission_metrics() {
        use std::io::BufRead as _;

        let mut options = options();
        options.listen = Some("127.0.0.1:0".into());
        options.metrics = true;
        options.admission = rei_service::AdmissionConfig::new()
            .with_tenant("greedy", rei_service::TenantPolicy::limited(1e-9, 1.0));

        let writer = TimedWriter::default();
        let server = {
            let writer = writer.clone();
            std::thread::spawn(move || run_serve_listen(&options, writer).unwrap())
        };
        // Writes arrive in fragments; reassemble them into lines.
        let written_lines = |writer: &TimedWriter| -> Vec<String> {
            let bytes: Vec<u8> = writer
                .0
                .lock()
                .unwrap()
                .iter()
                .flat_map(|(_, chunk)| chunk.clone())
                .collect();
            String::from_utf8(bytes)
                .unwrap()
                .lines()
                .map(str::to_string)
                .collect()
        };
        // The first output line announces the resolved port; wait for
        // the full line (its fragments arrive across several writes).
        let addr = loop {
            let complete = writer
                .0
                .lock()
                .unwrap()
                .iter()
                .any(|(_, chunk)| chunk.contains(&b'\n'));
            if complete {
                let first = written_lines(&writer)[0].clone();
                break first
                    .strip_prefix("listening on ")
                    .unwrap_or_else(|| panic!("unexpected first line {first:?}"))
                    .to_string();
            }
            std::thread::sleep(Duration::from_millis(1));
        };

        let mut client = std::net::TcpStream::connect(&addr).unwrap();
        client
            .write_all(
                b"{\"id\": \"a\", \"pos\": [\"0\", \"00\"], \"neg\": [\"1\"], \"tenant\": \"greedy\"}\n\
                  {\"id\": \"b\", \"pos\": [\"0\"], \"tenant\": \"greedy\"}\n\
                  {\"op\": \"shutdown\"}\n",
            )
            .unwrap();
        let results: Vec<Json> = std::io::BufReader::new(client)
            .lines()
            .map(|l| Json::parse(&l.unwrap()).unwrap())
            .collect();
        // Every line is answered in input order, the shutdown ack last.
        assert_eq!(results.len(), 3, "{results:?}");
        let field = |index: usize, key: &str| results[index].get(key).and_then(Json::as_str);
        assert_eq!(field(0, "id"), Some("a"));
        assert_eq!(field(0, "status"), Some("solved"));
        // The one-token bucket rejects the second request explicitly.
        assert_eq!(field(1, "id"), Some("b"));
        assert_eq!(field(1, "status"), Some("rejected"));
        assert_eq!(field(1, "reason"), Some("rate_limited"));
        assert_eq!(field(2, "op"), Some("shutdown"));

        server.join().unwrap();
        let metrics = written_lines(&writer)
            .into_iter()
            .find(|line| line.starts_with('{'))
            .expect("metrics line after the drain");
        let metrics = Json::parse(metrics.trim()).unwrap();
        let requests = metrics
            .get("rollup")
            .and_then(|r| r.get("requests"))
            .unwrap();
        assert_eq!(requests.get("admitted").and_then(Json::as_u64), Some(1));
        assert_eq!(requests.get("rate_limited").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn listen_mode_announces_and_serves_the_metrics_endpoint() {
        use std::io::{BufRead as _, Read as _};

        let mut options = options();
        options.listen = Some("127.0.0.1:0".into());
        options.metrics_addr = Some("127.0.0.1:0".into());

        let writer = TimedWriter::default();
        let server = {
            let writer = writer.clone();
            std::thread::spawn(move || run_serve_listen(&options, writer).unwrap())
        };
        // Wait for both announcement lines: `listening on A` then
        // `metrics on B`.
        let (addr, scrape_addr) = loop {
            let bytes: Vec<u8> = writer
                .0
                .lock()
                .unwrap()
                .iter()
                .flat_map(|(_, chunk)| chunk.clone())
                .collect();
            let text = String::from_utf8(bytes).unwrap();
            let lines: Vec<&str> = text.lines().collect();
            if text.matches('\n').count() >= 2 {
                let listen = lines[0].strip_prefix("listening on ").unwrap().to_string();
                let scrape = lines[1].strip_prefix("metrics on ").unwrap().to_string();
                break (listen, scrape);
            }
            std::thread::sleep(Duration::from_millis(1));
        };

        let mut client = std::net::TcpStream::connect(&addr).unwrap();
        client
            .write_all(b"{\"id\": \"a\", \"pos\": [\"0\", \"00\"], \"neg\": [\"1\"]}\n")
            .unwrap();
        let mut reader = std::io::BufReader::new(client.try_clone().unwrap());
        let mut answer = String::new();
        reader.read_line(&mut answer).unwrap();
        let answer = Json::parse(answer.trim()).unwrap();
        assert_eq!(answer.get("status").and_then(Json::as_str), Some("solved"));

        // The scrape endpoint reflects the completed request.
        let mut scrape = std::net::TcpStream::connect(&scrape_addr).unwrap();
        scrape.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut body = String::new();
        scrape.read_to_string(&mut body).unwrap();
        assert!(body.starts_with("HTTP/1.0 200 OK\r\n"), "{body:?}");
        assert!(body.contains("rei_requests_completed_total"), "{body:?}");

        client.write_all(b"{\"op\": \"shutdown\"}\n").unwrap();
        server.join().unwrap();
    }

    #[test]
    fn invalid_service_config_is_an_error() {
        let mut bad = options();
        bad.allowed_error = 2.0;
        let err = run_serve_on(&bad, "".as_bytes(), Vec::new()).unwrap_err();
        assert!(err.contains("allowed error"), "{err}");
    }
}
