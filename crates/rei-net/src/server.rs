//! The TCP listener, its bounded handler pool, and the connection serve
//! loop that TCP and stdin serving share.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read as _, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::str::Utf8Error;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Sender, TrySendError};
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

/// How long blocked loops wait between polls of their stop conditions:
/// the accept loop between accept attempts, the handler dispatch between
/// channel probes, and a connection loop with nothing else to wake it.
const STOP_TICK: Duration = Duration::from_millis(10);

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

    /// Builds the admission stage this config describes, with a trace
    /// ring of `trace_capacity` events and the `slo` dump threshold:
    /// what [`NetServer::bind`] serves every connection through, and what
    /// a one-connection server (stdin) passes to [`serve_connection`].
    ///
    /// # Errors
    ///
    /// A message when the admission config does not validate.
    pub fn admission_stage(&self) -> Result<FairShare, String> {
        let traces = TraceRegistry::new(self.trace_capacity, self.slo);
        FairShare::new(self.admission.clone())
            .map(|fair| fair.with_traces(traces))
            .map_err(|err| format!("invalid admission config: {err}"))
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
        let fair = config.admission_stage()?;
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
                        let Ok(stream) = stream else {
                            return; // accept loop gone: drain done
                        };
                        if let Ok(input) = stream.try_clone() {
                            // An error means the client is gone: close.
                            let input = BufReader::new(input);
                            let mode = AnswerMode::Ordered;
                            let _ = serve_connection(input, &stream, mode, &router, &fair, &stop);
                        }
                        // Closing both halves also ends the reader thread.
                        let _ = stream.shutdown(Shutdown::Both);
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
                                std::thread::sleep(STOP_TICK);
                            }
                            Err(TrySendError::Disconnected(_)) => break,
                        }
                    }
                }
                Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(STOP_TICK);
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
        Ok(with_admission(router.shutdown(), &self.fair))
    }
}

/// Adds `fair`'s admission counters to a router snapshot.
fn with_admission(mut snapshot: RouterSnapshot, fair: &FairShare) -> RouterSnapshot {
    snapshot.admission = fair.counters();
    snapshot.tenants = fair.tenant_counters();
    snapshot
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
                let body = with_admission(router.metrics(), fair).to_prometheus();
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
                std::thread::sleep(STOP_TICK);
            }
            Err(_) => std::thread::sleep(STOP_TICK),
        }
    }
}

/// One line's answer, queued until the connection's mode lets it out. A
/// `Ready` line was rendered when its input line was read (verb acks,
/// `bad-request`, `rejected`). A `Job` answer is rendered once its job
/// completes, and its admission slot is freed once it is written.
enum Answer {
    Ready(Json),
    Job {
        id: Json,
        handle: JobHandle,
        _slot: InflightGuard,
    },
}

impl Answer {
    /// The line to write, once it is determined. Finishing a job's trace
    /// here fires its SLO dump when `waited` reached the threshold.
    fn line(&self) -> Option<Json> {
        match self {
            Answer::Ready(line) => Some(line.clone()),
            Answer::Job { id, handle, .. } => handle.try_wait().map(|response| {
                let trace = handle.trace();
                if let Some(trace) = trace {
                    trace.finish(response.waited);
                }
                response_line(id.clone(), &response, trace.map(Trace::id))
            }),
        }
    }
}

/// What wakes a connection loop.
enum Event {
    /// The reader's next input line (`None` at end of input).
    Input(std::io::Result<Option<Result<String, Utf8Error>>>),
    /// One of the connection's jobs completed.
    Completed,
}

/// Generates a server-side session name for a `session.open` without
/// one. Distinct from the pools' own `s-N` scheme so the two generators
/// can never collide.
fn generate_session_name() -> String {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    format!("net-{}", NEXT.fetch_add(1, Ordering::Relaxed))
}

/// Performs a control verb and renders its ack (or error) line. `mode`
/// and `shutdown` act on the calling connection loop's state.
fn verb_line(
    verb: Verb,
    router: &ShardRouter,
    fair: &FairShare,
    mode: &mut AnswerMode,
    stop: &AtomicBool,
) -> Json {
    match verb {
        Verb::Ping => verb_ok_line("ping"),
        Verb::Hello => hello_line(),
        Verb::SessionOpen { name, tenant } => {
            let name = name.unwrap_or_else(generate_session_name);
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
            match router.close_session(&name, tenant.as_deref()) {
                Ok(()) => {
                    let mut ok = verb_ok_line("session.close");
                    ok.set("session", Json::str(name));
                    ok
                }
                Err(err) => verb_err_line("session.close", &err.to_string()),
            }
        }
        Verb::Metrics => stamped(with_admission(router.metrics(), fair).to_json()),
        Verb::Trace(trace) => {
            let events = fair.traces().map(|traces| traces.events(trace));
            trace_line(trace, &events.unwrap_or_default())
        }
        Verb::Prometheus => {
            let mut ok = verb_ok_line("prometheus");
            let text = with_admission(router.metrics(), fair).to_prometheus();
            ok.set("text", Json::str(text));
            ok
        }
        Verb::Mode(new_mode) => {
            *mode = new_mode;
            let mut ok = verb_ok_line("mode");
            ok.set("value", Json::str(new_mode.as_str()));
            ok
        }
        Verb::Shutdown => {
            stop.store(true, Ordering::SeqCst);
            verb_ok_line("shutdown")
        }
    }
}

fn emit(out: &mut impl Write, line: &Json) -> std::io::Result<()> {
    let mut text = line.to_compact();
    text.push('\n');
    out.write_all(text.as_bytes())?;
    out.flush()
}

/// Writes every pending answer the mode lets out: in `Ordered` mode the
/// determined answers at the *front* (input order is the contract), in
/// `Stream` mode every determined answer.
fn drain(
    pending: &mut VecDeque<Answer>,
    out: &mut impl Write,
    mode: AnswerMode,
) -> std::io::Result<()> {
    let mut index = 0;
    while index < pending.len() {
        match pending[index].line() {
            Some(line) => {
                emit(out, &line)?;
                pending.remove(index); // delivered: frees its admission slot
            }
            None if mode == AnswerMode::Ordered => break,
            None => index += 1,
        }
    }
    Ok(())
}

/// Serves one connection, TCP or stdin, until its input ends or `stop`
/// is set, then writes what is pending and returns.
///
/// A reader thread reads `input` line by line into the loop's event
/// channel; every admitted job sends a wake-up into the same channel when
/// it completes. The loop blocks on that channel, so each answer is
/// written as soon as its mode allows, never on a timer. In `Ordered`
/// mode every line's answer takes its place in input order: results,
/// `bad-request`, `rejected` and verb acks alike. In `Stream` mode every
/// answer is written as soon as it is determined. A `mode` verb applies
/// at once to everything still pending; a `shutdown` verb sets `stop`.
/// The loop also wakes every 10 ms to see `stop`, which any thread may
/// set; input read after it is ignored.
///
/// The reader thread is not joined: a blocking read ends only when its
/// input does. Close a socket's read half once this returns; a stdin
/// reader ends with the process.
///
/// # Errors
///
/// The first write error (the loop stops at once), or a read error
/// (reported once the pending answers are written).
pub fn serve_connection<R, W>(
    input: R,
    mut out: W,
    mut mode: AnswerMode,
    router: &ShardRouter,
    fair: &FairShare,
    stop: &AtomicBool,
) -> std::io::Result<()>
where
    R: BufRead + Send + 'static,
    W: Write,
{
    let (events, inbox) = std::sync::mpsc::channel();
    spawn_reader(input, events.clone());
    let mut pending = VecDeque::new();
    let mut number = 0usize;
    let mut open = true;
    let mut read_error = None;
    while open || !pending.is_empty() {
        if stop.load(Ordering::SeqCst) {
            open = false;
        }
        match inbox.recv_timeout(STOP_TICK) {
            Ok(Event::Input(Ok(Some(line)))) if open => {
                number += 1;
                let answer = match line {
                    Ok(line) if line.trim().is_empty() => continue,
                    Ok(line) => match parse_line(&line, number) {
                        Input::Control(verb) => {
                            Answer::Ready(verb_line(verb, router, fair, &mut mode, stop))
                        }
                        Input::Request(parsed) => {
                            submit(parsed.id, parsed.request, router, fair, &events)
                        }
                        Input::Bad { id, error } => Answer::Ready(bad_request_line(id, &error)),
                    },
                    Err(_) => Answer::Ready(not_utf8_line(number)),
                };
                pending.push_back(answer);
            }
            Ok(Event::Input(Ok(None))) => open = false,
            Ok(Event::Input(Err(err))) => {
                open = false;
                read_error = Some(err);
            }
            // A completed job, input after a stop, or the stop tick.
            _ => {}
        }
        drain(&mut pending, &mut out, mode)?;
    }
    read_error.map_or(Ok(()), Err)
}

/// Submits one request through admission. An admitted job wakes the
/// connection loop when it completes; a refused one is answered with a
/// `rejected` line.
fn submit(
    id: Json,
    request: rei_service::SynthRequest,
    router: &ShardRouter,
    fair: &FairShare,
    events: &Sender<Event>,
) -> Answer {
    let reason = match fair.submit(router, request) {
        Ok((handle, guard)) => {
            let events = events.clone();
            handle.on_complete(move || {
                let _ = events.send(Event::Completed);
            });
            return Answer::Job {
                id,
                handle,
                _slot: guard,
            };
        }
        Err(AdmissionError::RateLimited) => "rate_limited",
        Err(AdmissionError::Service(ServiceError::UnknownSession(_))) => "unknown_session",
        Err(AdmissionError::Service(_)) => "shutting_down",
    };
    Answer::Ready(rejected_line(id, reason))
}

/// Starts the detached thread that reads `input` into `events`, one
/// line per event, until end of input, a read error or a closed channel.
fn spawn_reader(mut input: impl BufRead + Send + 'static, events: Sender<Event>) {
    std::thread::spawn(move || {
        let mut buf = Vec::new();
        loop {
            let line = read_line(&mut input, &mut buf)
                .map(|line| line.map(|line| line.map(str::to_owned)));
            let more = matches!(line, Ok(Some(_)));
            if events.send(Event::Input(line)).is_err() || !more {
                return;
            }
        }
    });
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
        // With nothing pending, a verb is answered at once.
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
        // The bad-request takes its place between the two answers.
        let answers: Vec<String> = (0..3)
            .map(|_| {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                let answer = Json::parse(line.trim()).unwrap();
                let status = answer.get("status").and_then(Json::as_str).unwrap();
                format!("{} {status}", answer.get("id").unwrap().to_compact())
            })
            .collect();
        assert_eq!(answers, ["\"a\" solved", "2 bad-request", "\"b\" solved"]);
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
