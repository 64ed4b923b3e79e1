//! The TCP listener, its bounded handler pool, and the per-connection
//! serve loop.

use std::collections::VecDeque;
use std::io::{BufReader, Read as _, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::str::Utf8Error;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{RecvTimeoutError, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rei_obs::{Trace, TraceRegistry};
use rei_service::json::Json;
use rei_service::{
    AdmissionConfig, AdmissionError, FairShare, InflightGuard, JobHandle, RouterSnapshot,
    ServiceError, ShardRouter,
};

use crate::protocol::{
    bad_request_line, hello_line, not_utf8_line, parse_line, read_line, rejected_line,
    response_line, stamped, trace_line, verb_err_line, verb_ok_line, AnswerMode, Input, Verb,
};
use crate::signal::shutdown_tripped;

/// How long blocked loops sleep between polls of their stop conditions:
/// the accept loop between accept attempts, the handler dispatch between
/// channel probes.
const ACCEPT_TICK: Duration = Duration::from_millis(10);

/// The per-connection answer-poll tick; bounds the latency between a job
/// completing and its line reaching the client.
const ANSWER_TICK: Duration = Duration::from_millis(1);

/// Configuration of a [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// The address to bind, e.g. `127.0.0.1:0` (port 0 picks a free one;
    /// read it back from [`NetServer::local_addr`]).
    pub listen: String,
    /// Size of the connection-handler pool — the number of connections
    /// served *concurrently*. Further accepted connections wait for a
    /// free handler.
    pub handler_threads: usize,
    /// The fair-share admission policies.
    pub admission: AdmissionConfig,
    /// When set, a dedicated listener on this address answers every
    /// connection with one Prometheus text-format scrape of the router
    /// metrics (port 0 picks a free one; read it back from
    /// [`NetServer::metrics_addr`]).
    pub metrics_addr: Option<String>,
    /// The slow-request threshold: a request whose end-to-end latency
    /// reaches it has its full trace timeline dumped to the structured
    /// log (component `slo`, level `warn`).
    pub slo: Option<Duration>,
    /// Capacity of the trace event ring (events, not requests; oldest
    /// drop first).
    pub trace_capacity: usize,
}

impl NetConfig {
    /// A config with 4 handler threads, all-unlimited admission, no
    /// scrape listener, no SLO, and a 4096-event trace ring.
    pub fn new(listen: impl Into<String>) -> Self {
        NetConfig {
            listen: listen.into(),
            handler_threads: 4,
            admission: AdmissionConfig::new(),
            metrics_addr: None,
            slo: None,
            trace_capacity: 4096,
        }
    }

    /// Replaces the handler pool size (clamped to at least 1).
    pub fn with_handler_threads(mut self, threads: usize) -> Self {
        self.handler_threads = threads.max(1);
        self
    }

    /// Replaces the admission configuration.
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = admission;
        self
    }

    /// Enables the Prometheus scrape listener on `addr`.
    pub fn with_metrics_addr(mut self, addr: impl Into<String>) -> Self {
        self.metrics_addr = Some(addr.into());
        self
    }

    /// Sets the slow-request SLO threshold.
    pub fn with_slo(mut self, slo: Duration) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Replaces the trace ring capacity (clamped to at least 1).
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity.max(1);
        self
    }
}

/// A TCP JSONL front-end over a [`ShardRouter`] (see the crate docs).
///
/// Bind with [`bind`](NetServer::bind), then [`run`](NetServer::run) the
/// accept loop until a `shutdown` control verb, a shutdown signal —
/// SIGINT or SIGTERM, when
/// [`install_shutdown_signals`](crate::install_shutdown_signals) was
/// called — or a trip of the [`stop_flag`](NetServer::stop_flag) drains
/// it.
pub struct NetServer {
    listener: TcpListener,
    addr: SocketAddr,
    router: Arc<ShardRouter>,
    fair: Arc<FairShare>,
    stop: Arc<AtomicBool>,
    handler_threads: usize,
    traces: Arc<TraceRegistry>,
    scrape: Option<TcpListener>,
    scrape_addr: Option<SocketAddr>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.addr)
            .field("handler_threads", &self.handler_threads)
            .finish_non_exhaustive()
    }
}

impl NetServer {
    /// Binds the listener and builds the admission stage. The router is
    /// owned by the server from here on; [`run`](NetServer::run) shuts it
    /// down and returns its final snapshot.
    ///
    /// # Errors
    ///
    /// A message when the address cannot be bound or the admission
    /// config does not validate.
    pub fn bind(config: NetConfig, router: ShardRouter) -> Result<Self, String> {
        let traces = TraceRegistry::new(config.trace_capacity, config.slo);
        let fair = FairShare::new(config.admission)
            .map_err(|err| format!("invalid admission config: {err}"))?
            .with_traces(Arc::clone(&traces));
        let listener = TcpListener::bind(&config.listen)
            .map_err(|err| format!("cannot bind {}: {err}", config.listen))?;
        listener
            .set_nonblocking(true)
            .map_err(|err| format!("cannot make the listener nonblocking: {err}"))?;
        let addr = listener
            .local_addr()
            .map_err(|err| format!("cannot read the bound address: {err}"))?;
        let (scrape, scrape_addr) = match &config.metrics_addr {
            Some(metrics_addr) => {
                let scrape = TcpListener::bind(metrics_addr)
                    .map_err(|err| format!("cannot bind metrics address {metrics_addr}: {err}"))?;
                scrape
                    .set_nonblocking(true)
                    .map_err(|err| format!("cannot make the scrape listener nonblocking: {err}"))?;
                let scrape_addr = scrape
                    .local_addr()
                    .map_err(|err| format!("cannot read the scrape address: {err}"))?;
                (Some(scrape), Some(scrape_addr))
            }
            None => (None, None),
        };
        Ok(NetServer {
            listener,
            addr,
            router: Arc::new(router),
            fair: Arc::new(fair),
            stop: Arc::new(AtomicBool::new(false)),
            handler_threads: config.handler_threads.max(1),
            traces,
            scrape,
            scrape_addr,
        })
    }

    /// The bound address (resolves port 0 to the picked port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound Prometheus scrape address, when one was configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.scrape_addr
    }

    /// A flag any thread may set to start a graceful drain: stop
    /// accepting, let every live connection answer its in-flight
    /// requests, then shut the pools down.
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Runs the accept loop until stopped (see [`NetServer`]), then
    /// drains: handlers finish their connections' pending answers, pools
    /// shut down gracefully (compacting persistent caches), and the
    /// final router snapshot — admission counters included — is
    /// returned.
    ///
    /// # Errors
    ///
    /// A message when the listener fails fatally. Per-connection IO
    /// errors only end that connection.
    pub fn run(self) -> Result<RouterSnapshot, String> {
        let (dispatch, inbox) = std::sync::mpsc::sync_channel::<TcpStream>(self.handler_threads);
        let inbox = Arc::new(Mutex::new(inbox));
        let handlers: Vec<_> = (0..self.handler_threads)
            .map(|index| {
                let inbox = Arc::clone(&inbox);
                let router = Arc::clone(&self.router);
                let fair = Arc::clone(&self.fair);
                let stop = Arc::clone(&self.stop);
                let traces = Arc::clone(&self.traces);
                std::thread::Builder::new()
                    .name(format!("rei-net-handler-{index}"))
                    .spawn(move || loop {
                        // Hold the dispatch lock only while receiving;
                        // handling runs unlocked so handlers serve
                        // connections concurrently.
                        let stream = {
                            let inbox = inbox.lock().unwrap_or_else(|e| e.into_inner());
                            inbox.recv()
                        };
                        match stream {
                            Ok(stream) => handle_connection(stream, &router, &fair, &traces, &stop),
                            Err(_) => return, // accept loop gone: drain done
                        }
                    })
                    .expect("spawning a handler thread")
            })
            .collect();

        // The scrape listener runs beside the request listener: every
        // connection gets one Prometheus rendering of the live snapshot.
        let scraper = self.scrape.map(|listener| {
            let router = Arc::clone(&self.router);
            let fair = Arc::clone(&self.fair);
            let stop = Arc::clone(&self.stop);
            std::thread::Builder::new()
                .name("rei-net-scrape".into())
                .spawn(move || serve_scrapes(&listener, &router, &fair, &stop))
                .expect("spawning the scrape thread")
        });

        while !self.stop.load(Ordering::SeqCst) {
            if shutdown_tripped() {
                self.stop.store(true, Ordering::SeqCst);
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let mut stream = stream;
                    // The channel bound is the handler count: beyond it,
                    // hold the connection here (it stays in the OS accept
                    // state for the client) while polling the stop flag.
                    loop {
                        match dispatch.try_send(stream) {
                            Ok(()) => break,
                            Err(TrySendError::Full(back)) => {
                                if self.stop.load(Ordering::SeqCst) || shutdown_tripped() {
                                    break; // dropping the stream closes it
                                }
                                stream = back;
                                std::thread::sleep(ACCEPT_TICK);
                            }
                            Err(TrySendError::Disconnected(_)) => break,
                        }
                    }
                }
                Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_TICK);
                }
                Err(err) => return Err(format!("accept failed: {err}")),
            }
        }
        self.stop.store(true, Ordering::SeqCst);

        // Closing the dispatch side ends every handler once it finishes
        // its current connection (which sees the stop flag and drains).
        drop(dispatch);
        for handler in handlers {
            let _ = handler.join();
        }
        if let Some(scraper) = scraper {
            let _ = scraper.join();
        }
        let Ok(router) = Arc::try_unwrap(self.router) else {
            unreachable!("handlers joined; no other router owners remain");
        };
        let mut snapshot = router.shutdown();
        snapshot.admission = self.fair.counters();
        snapshot.tenants = self.fair.tenant_counters();
        Ok(snapshot)
    }
}

/// Answers every connection on the scrape listener with one HTTP/1.0
/// `200` carrying the Prometheus text rendering of the current router
/// snapshot, then closes. The request head is read best-effort and
/// ignored — any path scrapes.
fn serve_scrapes(
    listener: &TcpListener,
    router: &ShardRouter,
    fair: &FairShare,
    stop: &AtomicBool,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
                let mut head = [0u8; 1024];
                let _ = stream.read(&mut head);
                let mut snapshot = router.metrics();
                snapshot.admission = fair.counters();
                snapshot.tenants = fair.tenant_counters();
                let body = snapshot.to_prometheus();
                let response = format!(
                    "HTTP/1.0 200 OK\r\n\
                     Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
                     Content-Length: {}\r\n\
                     Connection: close\r\n\r\n{body}",
                    body.len()
                );
                let _ = stream.write_all(response.as_bytes());
                let _ = stream.flush();
                let _ = stream.shutdown(Shutdown::Both);
            }
            Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_TICK);
            }
            Err(_) => std::thread::sleep(ACCEPT_TICK),
        }
    }
}

/// One queued answer: the id to echo, the job, and the admission
/// in-flight slot released once the answer is on the wire.
type Pending = VecDeque<(Json, JobHandle, InflightGuard)>;

/// Generates a server-side session name for a `session.open` without
/// one. Distinct from the pools' own `s-N` scheme so the two generators
/// can never collide.
fn generate_session_name() -> String {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    format!("net-{}", NEXT.fetch_add(1, Ordering::Relaxed))
}

/// Performs a session verb ([`Verb::SessionOpen`] / [`Verb::SessionClose`])
/// against the router and renders the ack (or error) line. Shared
/// between the TCP serve loop and the CLI's stdin modes.
///
/// # Panics
///
/// When called with a non-session verb.
pub fn session_verb_line(router: &ShardRouter, verb: &Verb) -> Json {
    match verb {
        Verb::SessionOpen { name, tenant } => {
            let name = name.clone().unwrap_or_else(generate_session_name);
            match router.open_session(&name, tenant.as_deref()) {
                Ok(opened) => {
                    let mut ok = verb_ok_line("session.open");
                    ok.set("session", Json::str(opened));
                    ok
                }
                Err(err) => verb_err_line("session.open", &err.to_string()),
            }
        }
        Verb::SessionClose { name, tenant } => {
            match router.close_session(name, tenant.as_deref()) {
                Ok(()) => {
                    let mut ok = verb_ok_line("session.close");
                    ok.set("session", Json::str(name));
                    ok
                }
                Err(err) => verb_err_line("session.close", &err.to_string()),
            }
        }
        _ => unreachable!("session_verb_line only handles session verbs"),
    }
}

fn emit(out: &mut TcpStream, line: &Json) -> std::io::Result<()> {
    let mut text = line.to_compact();
    text.push('\n');
    out.write_all(text.as_bytes())?;
    out.flush()
}

/// Emits every pending answer the mode allows: in `Ordered` mode only
/// completed answers at the *front* (request order is the contract), in
/// `Stream` mode any completed answer. Reports whether a line was
/// written.
fn drain_completed(
    pending: &mut Pending,
    out: &mut TcpStream,
    mode: AnswerMode,
) -> std::io::Result<bool> {
    let mut emitted = false;
    let mut index = 0;
    while index < pending.len() {
        let completed = pending[index].1.try_wait();
        match completed {
            Some(response) => {
                let (id, handle, guard) = pending.remove(index).expect("index < len");
                let trace: Option<Trace> = handle.trace().cloned();
                if let Some(trace) = &trace {
                    // `waited` is submission-to-completion; the SLO dump
                    // fires here when it reached the threshold.
                    trace.finish(response.waited);
                }
                emit(
                    out,
                    &response_line(id, &response, trace.as_ref().map(Trace::id)),
                )?;
                drop(guard); // the answer is delivered; free the slot
                emitted = true;
            }
            None if mode == AnswerMode::Ordered => break,
            None => index += 1,
        }
    }
    Ok(emitted)
}

/// Serves one connection to completion: reads request lines on a helper
/// thread, submits through admission, answers in the connection's
/// current mode, and drains pending answers when the client closes its
/// half or the server begins shutdown.
fn handle_connection(
    stream: TcpStream,
    router: &ShardRouter,
    fair: &FairShare,
    traces: &Arc<TraceRegistry>,
    stop: &AtomicBool,
) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let (sender, lines) = std::sync::mpsc::channel::<std::io::Result<Result<String, Utf8Error>>>();
    let reader = std::thread::spawn(move || {
        let mut input = BufReader::new(read_half);
        let mut buf = Vec::new();
        loop {
            let line = match read_line(&mut input, &mut buf) {
                Ok(None) => return,
                Ok(Some(line)) => Ok(line.map(str::to_owned)),
                Err(err) => Err(err),
            };
            let failed = line.is_err();
            if sender.send(line).is_err() || failed {
                return;
            }
        }
    });

    let mut out = stream;
    let mut pending: Pending = VecDeque::new();
    let mut mode = AnswerMode::Ordered;
    let mut number = 0usize;
    let mut open = true;
    let result: std::io::Result<()> = (|| {
        while open || !pending.is_empty() {
            if open && stop.load(Ordering::SeqCst) {
                // Server draining: take no further input, answer what is
                // pending, close. Shutting down the read half unblocks
                // the reader thread.
                open = false;
                let _ = out.shutdown(Shutdown::Read);
            }
            match lines.recv_timeout(ANSWER_TICK) {
                Ok(Ok(line)) => {
                    number += 1;
                    let Ok(line) = line else {
                        emit(&mut out, &not_utf8_line(number))?;
                        continue;
                    };
                    if line.trim().is_empty() {
                        continue;
                    }
                    match parse_line(&line, number) {
                        Input::Control(Verb::Ping) => emit(&mut out, &verb_ok_line("ping"))?,
                        Input::Control(Verb::Hello) => emit(&mut out, &hello_line())?,
                        Input::Control(
                            verb @ (Verb::SessionOpen { .. } | Verb::SessionClose { .. }),
                        ) => {
                            emit(&mut out, &session_verb_line(router, &verb))?;
                        }
                        Input::Control(Verb::Metrics) => {
                            let mut snapshot = router.metrics();
                            snapshot.admission = fair.counters();
                            snapshot.tenants = fair.tenant_counters();
                            emit(&mut out, &stamped(snapshot.to_json()))?;
                        }
                        Input::Control(Verb::Trace(trace)) => {
                            emit(&mut out, &trace_line(trace, &traces.events(trace)))?;
                        }
                        Input::Control(Verb::Prometheus) => {
                            let mut snapshot = router.metrics();
                            snapshot.admission = fair.counters();
                            snapshot.tenants = fair.tenant_counters();
                            let mut ok = verb_ok_line("prometheus");
                            ok.set("text", Json::str(snapshot.to_prometheus()));
                            emit(&mut out, &ok)?;
                        }
                        Input::Control(Verb::Mode(new_mode)) => {
                            mode = new_mode;
                            let mut ok = verb_ok_line("mode");
                            ok.set("value", Json::str(mode.as_str()));
                            emit(&mut out, &ok)?;
                        }
                        Input::Control(Verb::Shutdown) => {
                            emit(&mut out, &verb_ok_line("shutdown"))?;
                            stop.store(true, Ordering::SeqCst);
                        }
                        Input::Request(parsed) => match fair.submit(router, parsed.request) {
                            Ok((handle, guard)) => pending.push_back((parsed.id, handle, guard)),
                            Err(AdmissionError::RateLimited) => {
                                emit(&mut out, &rejected_line(parsed.id, "rate_limited"))?;
                            }
                            Err(AdmissionError::Service(ServiceError::UnknownSession(_))) => {
                                emit(&mut out, &rejected_line(parsed.id, "unknown_session"))?;
                            }
                            Err(AdmissionError::Service(_)) => {
                                emit(&mut out, &rejected_line(parsed.id, "shutting_down"))?;
                            }
                        },
                        Input::Bad { id, error } => emit(&mut out, &bad_request_line(id, &error))?,
                    }
                }
                Ok(Err(_)) | Err(RecvTimeoutError::Disconnected) => open = false,
                Err(RecvTimeoutError::Timeout) => {}
            }
            if !drain_completed(&mut pending, &mut out, mode)? && !open && !pending.is_empty() {
                // Input is done and a disconnected channel returns at
                // once: without this sleep the final wait would spin.
                std::thread::sleep(ANSWER_TICK);
            }
        }
        Ok(())
    })();
    // A write failure means the client is gone: drop the pending answers
    // (their guards release the admission slots) and close.
    drop(result);
    drop(pending);
    let _ = out.shutdown(Shutdown::Both);
    let _ = reader.join();
}

#[cfg(test)]
mod tests {
    use super::*;
    use rei_service::{RouterConfig, ServiceConfig, TenantPolicy};
    use std::io::BufRead;

    fn start_server(config: NetConfig) -> (SocketAddr, std::thread::JoinHandle<RouterSnapshot>) {
        let router = ShardRouter::start(RouterConfig::identical(2, ServiceConfig::new(1))).unwrap();
        let server = NetServer::bind(config, router).unwrap();
        let addr = server.local_addr();
        let serving = std::thread::spawn(move || server.run().unwrap());
        (addr, serving)
    }

    fn request_line(id: &str, positive: &str, tenant: &str) -> String {
        format!("{{\"id\": \"{id}\", \"pos\": [\"{positive}\"], \"tenant\": \"{tenant}\"}}\n")
    }

    #[test]
    fn serves_verbs_ordered_answers_and_clean_shutdown() {
        let (addr, serving) = start_server(NetConfig::new("127.0.0.1:0"));
        let mut client = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut read_line = || {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            Json::parse(line.trim()).unwrap()
        };
        // Control verbs answer immediately, never queued behind jobs.
        client.write_all(b"{\"op\": \"ping\"}\n").unwrap();
        assert_eq!(read_line().get("op").and_then(Json::as_str), Some("ping"));
        // Ordered mode: answers come back in request order.
        client
            .write_all(request_line("a", "00", "t1").as_bytes())
            .unwrap();
        client
            .write_all(request_line("b", "11", "t2").as_bytes())
            .unwrap();
        let first = read_line();
        let second = read_line();
        assert_eq!(first.get("id").and_then(Json::as_str), Some("a"));
        assert_eq!(first.get("status").and_then(Json::as_str), Some("solved"));
        assert_eq!(second.get("id").and_then(Json::as_str), Some("b"));
        client.write_all(b"{\"op\": \"metrics\"}\n").unwrap();
        assert_eq!(
            read_line().get("schema").and_then(Json::as_str),
            Some("rei-service/router-metrics-v1")
        );
        client.write_all(b"{\"op\": \"shutdown\"}\n").unwrap();
        assert_eq!(
            read_line().get("op").and_then(Json::as_str),
            Some("shutdown")
        );
        let snapshot = serving.join().unwrap();
        assert_eq!(snapshot.admission.admitted, 2);
        assert_eq!(snapshot.rollup().solved, 2);
    }

    #[test]
    fn a_line_that_is_not_utf8_is_a_bad_request_and_the_connection_reads_on() {
        let (addr, serving) = start_server(NetConfig::new("127.0.0.1:0"));
        let mut client = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        client
            .write_all(request_line("a", "00", "t1").as_bytes())
            .unwrap();
        client.write_all(b"\xff\xfe\n").unwrap();
        client
            .write_all(request_line("b", "11", "t2").as_bytes())
            .unwrap();
        // The bad-request is answered as soon as its line is read, so it
        // may overtake the ordered answers: compare as a map.
        let mut answers = std::collections::HashMap::new();
        for _ in 0..3 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let answer = Json::parse(line.trim()).unwrap();
            let status = answer.get("status").and_then(Json::as_str).unwrap();
            answers.insert(answer.get("id").unwrap().to_compact(), status.to_string());
        }
        assert_eq!(answers["\"a\""], "solved");
        assert_eq!(answers["2"], "bad-request");
        assert_eq!(answers["\"b\""], "solved");
        client.write_all(b"{\"op\": \"shutdown\"}\n").unwrap();
        let snapshot = serving.join().unwrap();
        assert_eq!(snapshot.admission.admitted, 2);
    }

    #[test]
    fn stream_mode_and_rate_limits_answer_immediately() {
        let config = NetConfig::new("127.0.0.1:0").with_admission(
            AdmissionConfig::new().with_tenant("throttled", TenantPolicy::limited(1e-9, 1.0)),
        );
        let (addr, serving) = start_server(config);
        let mut client = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut read_line = || {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            Json::parse(line.trim()).unwrap()
        };
        client
            .write_all(b"{\"op\": \"mode\", \"value\": \"stream\"}\n")
            .unwrap();
        let ack = read_line();
        assert_eq!(ack.get("value").and_then(Json::as_str), Some("stream"));
        // One token: the first request is admitted, the second refused
        // with an explicit rejection — delivered while the first is
        // still possibly in flight, because this connection streams.
        client
            .write_all(request_line("ok", "00", "throttled").as_bytes())
            .unwrap();
        client
            .write_all(request_line("no", "11", "throttled").as_bytes())
            .unwrap();
        let mut statuses = std::collections::HashMap::new();
        for _ in 0..2 {
            let line = read_line();
            statuses.insert(
                line.get("id").and_then(Json::as_str).unwrap().to_string(),
                line.get("status")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string(),
            );
        }
        assert_eq!(statuses["ok"], "solved");
        assert_eq!(statuses["no"], "rejected");
        client.write_all(b"{\"op\": \"shutdown\"}\n").unwrap();
        let snapshot = serving.join().unwrap();
        assert_eq!(snapshot.admission.rate_limited, 1);
    }

    #[test]
    fn concurrent_connections_are_served_and_eof_drains() {
        let (addr, serving) = start_server(NetConfig::new("127.0.0.1:0"));
        let clients: Vec<_> = (0..3)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut client = TcpStream::connect(addr).unwrap();
                    client
                        .write_all(
                            request_line(&format!("c{i}"), "010", &format!("t{i}")).as_bytes(),
                        )
                        .unwrap();
                    // EOF on the write half: the server answers, then
                    // closes.
                    client.shutdown(Shutdown::Write).unwrap();
                    let lines: Vec<String> =
                        BufReader::new(client).lines().map(|l| l.unwrap()).collect();
                    assert_eq!(lines.len(), 1, "{lines:?}");
                    Json::parse(&lines[0]).unwrap()
                })
            })
            .collect();
        for client in clients {
            let answer = client.join().unwrap();
            assert_eq!(
                answer.get("status").and_then(Json::as_str),
                Some("solved"),
                "{answer:?}"
            );
        }
        // Stop via the flag (the Ctrl-C path uses the same mechanism).
        let mut probe = TcpStream::connect(addr).unwrap();
        let snapshot = {
            // Reach the flag through a fresh bind? No — the serving
            // thread owns the server. Use the shutdown verb instead.
            probe.write_all(b"{\"op\": \"shutdown\"}\n").unwrap();
            serving.join().unwrap()
        };
        drop(probe);
        assert_eq!(snapshot.admission.admitted, 3);
    }

    #[test]
    fn trace_prometheus_verbs_and_the_scrape_endpoint_serve_observability() {
        let router = ShardRouter::start(RouterConfig::identical(2, ServiceConfig::new(1))).unwrap();
        let config = NetConfig::new("127.0.0.1:0").with_metrics_addr("127.0.0.1:0");
        let server = NetServer::bind(config, router).unwrap();
        let addr = server.local_addr();
        let scrape_addr = server.metrics_addr().expect("scrape listener bound");
        let serving = std::thread::spawn(move || server.run().unwrap());

        let mut client = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut read_line = || {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            Json::parse(line.trim()).unwrap()
        };
        client
            .write_all(request_line("a", "010", "acme").as_bytes())
            .unwrap();
        let answer = read_line();
        assert_eq!(answer.get("status").and_then(Json::as_str), Some("solved"));
        let trace = answer
            .get("trace")
            .and_then(Json::as_u64)
            .expect("answers carry a trace id");

        // The timeline of the answered request is queryable by id.
        client
            .write_all(format!("{{\"op\": \"trace\", \"trace\": {trace}}}\n").as_bytes())
            .unwrap();
        let timeline = read_line();
        assert_eq!(timeline.get("trace").and_then(Json::as_u64), Some(trace));
        let events = timeline.get("events").and_then(Json::as_array).unwrap();
        let phases: Vec<&str> = events
            .iter()
            .map(|e| e.get("phase").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(phases.first(), Some(&"admitted"), "{phases:?}");
        assert_eq!(phases.last(), Some(&"answered"), "{phases:?}");
        assert!(phases.contains(&"routed"), "{phases:?}");
        assert!(phases.contains(&"enqueued"), "{phases:?}");

        // The prometheus verb wraps the scrape body in a JSON line …
        client.write_all(b"{\"op\": \"prometheus\"}\n").unwrap();
        let wrapped = read_line();
        let text = wrapped.get("text").and_then(Json::as_str).unwrap();
        assert!(text.contains("rei_requests_submitted_total{pool="));
        assert!(text.contains("rei_tenant_submitted_total{tenant=\"acme\"} 1"));

        // … and the dedicated listener serves the same body over HTTP.
        let mut scrape = TcpStream::connect(scrape_addr).unwrap();
        scrape.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut raw = String::new();
        BufReader::new(scrape).read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.0 200 OK\r\n"), "{raw}");
        let body = raw.split("\r\n\r\n").nth(1).expect("header/body split");
        assert!(body.contains("# TYPE rei_request_seconds histogram"));
        assert!(body.contains("le=\"+Inf\""));

        client.write_all(b"{\"op\": \"shutdown\"}\n").unwrap();
        let snapshot = serving.join().unwrap();
        assert_eq!(snapshot.tenants.len(), 1);
        assert_eq!(snapshot.tenants[0].0, "acme");
        assert_eq!(snapshot.tenants[0].1.admitted, 1);
    }

    #[test]
    fn hello_sessions_and_refines_serve_over_tcp() {
        // One pool, one worker: refine ordering is deterministic.
        let router = ShardRouter::start(RouterConfig::identical(1, ServiceConfig::new(1))).unwrap();
        let server = NetServer::bind(NetConfig::new("127.0.0.1:0"), router).unwrap();
        let addr = server.local_addr();
        let serving = std::thread::spawn(move || server.run().unwrap());
        let mut client = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut read_line = || {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            Json::parse(line.trim()).unwrap()
        };

        client.write_all(b"{\"op\": \"hello\"}\n").unwrap();
        let hello = read_line();
        assert_eq!(hello.get("op").and_then(Json::as_str), Some("hello"));
        assert_eq!(
            hello.get("proto").and_then(Json::as_u64),
            Some(crate::protocol::PROTO_VERSION)
        );

        // Open a named session, then one without a name.
        client
            .write_all(b"{\"op\": \"session.open\", \"name\": \"s1\"}\n")
            .unwrap();
        let opened = read_line();
        assert_eq!(opened.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(opened.get("session").and_then(Json::as_str), Some("s1"));
        client.write_all(b"{\"op\": \"session.open\"}\n").unwrap();
        let generated = read_line();
        let generated_name = generated.get("session").and_then(Json::as_str).unwrap();
        assert!(generated_name.starts_with("net-"), "{generated_name}");

        // First refine runs cold, the strengthened one warm.
        client
            .write_all(
                b"{\"verb\": \"refine\", \"session\": \"s1\", \"id\": \"r1\", \
                  \"pos\": [\"0\", \"00\"], \"neg\": [\"1\"]}\n",
            )
            .unwrap();
        let first = read_line();
        assert_eq!(first.get("status").and_then(Json::as_str), Some("solved"));
        assert_eq!(first.get("source").and_then(Json::as_str), Some("session"));
        assert_eq!(first.get("reuse").and_then(Json::as_str), Some("cold"));
        assert_eq!(
            first.get("reason").and_then(Json::as_str),
            Some("no_previous")
        );
        client
            .write_all(
                b"{\"verb\": \"refine\", \"session\": \"s1\", \"id\": \"r2\", \
                  \"pos\": [\"0\", \"00\"], \"neg\": [\"1\", \"10\"]}\n",
            )
            .unwrap();
        let second = read_line();
        assert_eq!(second.get("status").and_then(Json::as_str), Some("solved"));
        assert_eq!(second.get("reuse").and_then(Json::as_str), Some("warm"));
        assert!(second.get("reason").is_none());
        assert_eq!(
            second.get("proto").and_then(Json::as_u64),
            Some(crate::protocol::PROTO_VERSION)
        );

        // A refine against a session nobody opened is rejected.
        client
            .write_all(
                b"{\"verb\": \"refine\", \"session\": \"ghost\", \"id\": \"r3\", \
                  \"pos\": [\"0\"]}\n",
            )
            .unwrap();
        let ghost = read_line();
        assert_eq!(ghost.get("status").and_then(Json::as_str), Some("rejected"));
        assert_eq!(
            ghost.get("reason").and_then(Json::as_str),
            Some("unknown_session")
        );

        // Close: once ok, twice is an error line.
        client
            .write_all(b"{\"op\": \"session.close\", \"name\": \"s1\"}\n")
            .unwrap();
        assert_eq!(read_line().get("status").and_then(Json::as_str), Some("ok"));
        client
            .write_all(b"{\"op\": \"session.close\", \"name\": \"s1\"}\n")
            .unwrap();
        let closed_twice = read_line();
        assert_eq!(
            closed_twice.get("status").and_then(Json::as_str),
            Some("error")
        );
        assert!(closed_twice
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("unknown session"));

        client.write_all(b"{\"op\": \"shutdown\"}\n").unwrap();
        serving.join().unwrap();
    }

    #[test]
    fn stop_flag_drains_without_a_shutdown_verb() {
        let router = ShardRouter::start(RouterConfig::identical(1, ServiceConfig::new(1))).unwrap();
        let server = NetServer::bind(NetConfig::new("127.0.0.1:0"), router).unwrap();
        let addr = server.local_addr();
        let stop = server.stop_flag();
        let serving = std::thread::spawn(move || server.run().unwrap());
        let mut client = TcpStream::connect(addr).unwrap();
        client
            .write_all(request_line("x", "00", "t").as_bytes())
            .unwrap();
        // Wait for the answer so the request is surely in before the stop.
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("solved"), "{line}");
        stop.store(true, Ordering::SeqCst);
        let snapshot = serving.join().unwrap();
        assert_eq!(snapshot.admission.admitted, 1);
        // The drained connection was closed by the server.
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.is_empty(), "connection still open: {line}");
    }
}
