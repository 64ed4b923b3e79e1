//! The serve phase: an in-process `NetServer` on 127.0.0.1 over a
//! `ShardRouter` whose result cache persists to a directory, driven by
//! closed-loop clients — each waits for its answer before it sends the
//! next request. A client sends a fresh spec when its next miss is due
//! (a miss, which synthesises and appends to the write-ahead log) and
//! otherwise repeats a spec already answered (a cache hit).

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rei_core::SynthSession;
use rei_lang::{Spec, Word};
use rei_net::{NetConfig, NetServer};
use rei_service::json::Json;
use rei_service::{
    RouterConfig, RouterSnapshot, ServiceConfig, ShardRouter, SynthRequest, SynthResponse,
};

use crate::inputs::{mix, synth_config, Inputs, Reference, Rng, CLIENTS, MISS_RATE};
use crate::report::{Latencies, Report};
use crate::solve::{verify, warm_sessions};

/// Worker threads of the server's single pool, and its connection
/// handlers: one per core of a 2-core machine.
const WORKERS: usize = 2;
const HANDLERS: usize = 2;

/// A per-run directory for the cache stores, inside the checkout's build
/// directory; removed when the run ends.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    pub fn create() -> Scratch {
        let base = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
        let root = base.join(format!("perfbench-scratch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create the scratch directory");
        Scratch { root }
    }

    pub fn dir(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// A router of one pool whose cache persists under `dir` and holds every
/// answer of a run.
pub fn start_router(dir: &Path) -> ShardRouter {
    let service = ServiceConfig::new(WORKERS)
        .with_synth(synth_config())
        .with_queue_capacity(256)
        .with_cache_capacity(1 << 16);
    ShardRouter::start(RouterConfig::identical(1, service).with_cache_dir(dir))
        .expect("the router config is valid")
}

/// A server on a free loopback port.
pub fn bind(router: ShardRouter) -> NetServer {
    NetServer::bind(
        NetConfig::new("127.0.0.1:0").with_handler_threads(HANDLERS),
        router,
    )
    .expect("bind a loopback port")
}

/// Everything a run builds before its timed phase.
pub struct Setup {
    pub sessions: Vec<SynthSession>,
    pub server: NetServer,
    pub hot: Vec<Known>,
}

impl Setup {
    /// One warm session per backend, the router over `dir` with the hot set
    /// primed, and the bound server.
    pub fn build(inputs: &Inputs, reference: &Reference, dir: &Path, report: &mut Report) -> Setup {
        let sessions = warm_sessions();
        let router = start_router(dir);
        let hot = prime(&router, inputs, reference, report);
        let server = bind(router);
        Setup {
            sessions,
            server,
            hot,
        }
    }
}

/// Submits every hot spec at once and waits for all answers, so that the
/// cache holds them; each answer is checked.
pub fn prime(
    router: &ShardRouter,
    inputs: &Inputs,
    reference: &Reference,
    report: &mut Report,
) -> Vec<Known> {
    let handles: Vec<_> = inputs
        .hot
        .iter()
        .map(|spec| router.submit(SynthRequest::new(spec.clone())))
        .collect();
    let mut hot = Vec::with_capacity(handles.len());
    for (spec, handle) in inputs.hot.iter().zip(handles) {
        let answer = handle
            .map(|handle| Answer::of(&handle.wait()))
            .map_err(|err| format!("priming: {err}"));
        let checked = answer.and_then(|answer| {
            let expected = reference.known(spec).ok_or("a hot spec has no reference")?;
            check_solved(spec, &answer, expected)?;
            Ok(answer)
        });
        match checked {
            Ok(answer) => {
                report.check(Ok(()));
                hot.push(Known {
                    request: Request::new(spec.clone()),
                    regex: answer.regex,
                    cost: answer.cost,
                });
            }
            Err(why) => report.check(Err(why)),
        }
    }
    hot
}

/// A request ready to send: the spec for in-process submission and its
/// rendered JSONL line for TCP.
#[derive(Debug, Clone)]
pub struct Request {
    spec: Spec,
    line: String,
}

impl Request {
    fn new(spec: Spec) -> Request {
        let words =
            |set: &BTreeSet<Word>| Json::array(set.iter().map(|word| Json::str(word.to_string())));
        let mut line = Json::object([
            ("pos", words(spec.positive())),
            ("neg", words(spec.negative())),
        ])
        .to_compact();
        line.push('\n');
        Request { spec, line }
    }
}

/// A spec whose answer is known: repeats of it must come back from the
/// cache, unchanged.
#[derive(Debug, Clone)]
pub struct Known {
    request: Request,
    regex: String,
    cost: u64,
}

/// The fields of one answer the checks read.
#[derive(Debug, Clone, Default)]
pub struct Answer {
    status: String,
    source: String,
    regex: String,
    cost: u64,
    wait_ms: f64,
    run_ms: f64,
}

impl Answer {
    fn parse(line: &str) -> Result<Answer, String> {
        let json = Json::parse(line.trim()).map_err(|err| format!("answer {line:?}: {err}"))?;
        let text = |key: &str| {
            json.get(key)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let number = |key: &str| json.get(key).and_then(Json::as_f64).unwrap_or_default();
        Ok(Answer {
            status: text("status"),
            source: text("source"),
            regex: text("regex"),
            cost: json.get("cost").and_then(Json::as_u64).unwrap_or_default(),
            wait_ms: number("wait_ms"),
            run_ms: number("run_ms"),
        })
    }

    fn of(response: &SynthResponse) -> Answer {
        let (status, regex, cost) = match &response.outcome {
            Ok(result) => ("solved", result.regex.to_string(), result.cost),
            Err(err) => (rei_net::protocol::error_status(err), String::new(), 0),
        };
        Answer {
            status: status.to_string(),
            source: response.source.as_str().to_string(),
            regex,
            cost,
            wait_ms: response.waited.as_secs_f64() * 1e3,
            run_ms: response.ran.as_secs_f64() * 1e3,
        }
    }
}

/// Checks the answer to a spec the reference solves.
fn check_solved(spec: &Spec, answer: &Answer, expected: u64) -> Result<(), String> {
    if answer.status != "solved" {
        return Err(format!(
            "answered {} where the reference solves",
            answer.status
        ));
    }
    let regex = rei_syntax::parse(&answer.regex)
        .map_err(|err| format!("unparsable regex {:?}: {err}", answer.regex))?;
    verify(spec, &regex, answer.cost, expected)
}

/// How a client reaches the service. `call` returns the latency in
/// milliseconds, from sending the request to holding the answer.
pub trait Transport {
    fn call(&mut self, request: &Request) -> (f64, Result<Answer, String>);
}

pub struct Tcp {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Tcp {
    fn connect(addr: SocketAddr) -> Result<Tcp, String> {
        let stream = TcpStream::connect(addr).map_err(|err| format!("connect {addr}: {err}"))?;
        // One small request per round trip: never hold it back for Nagle.
        stream.set_nodelay(true).map_err(|err| err.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|err| err.to_string())?);
        Ok(Tcp {
            stream,
            reader,
            line: String::new(),
        })
    }

    /// Sends one line and reads the answer line into `self.line`.
    fn round_trip(&mut self, line: &str) -> Result<(), String> {
        self.stream
            .write_all(line.as_bytes())
            .map_err(|err| format!("write: {err}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("the server closed the connection".into()),
            Ok(_) => Ok(()),
            Err(err) => Err(format!("read: {err}")),
        }
    }
}

impl Transport for Tcp {
    fn call(&mut self, request: &Request) -> (f64, Result<Answer, String>) {
        let started = Instant::now();
        let sent = self.round_trip(&request.line);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        (ms, sent.and_then(|()| Answer::parse(&self.line)))
    }
}

struct InProcess<'r>(&'r ShardRouter);

impl Transport for InProcess<'_> {
    fn call(&mut self, request: &Request) -> (f64, Result<Answer, String>) {
        let started = Instant::now();
        let response = self
            .0
            .submit(SynthRequest::new(request.spec.clone()))
            .map(|handle| handle.wait());
        let ms = started.elapsed().as_secs_f64() * 1e3;
        (
            ms,
            response
                .map(|r| Answer::of(&r))
                .map_err(|err| format!("submit: {err}")),
        )
    }
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    hits: Latencies,
    misses: Latencies,
    hit_net: Latencies,
    miss_net: Latencies,
    /// Miss answers, checked against the reference after the loop.
    fresh: Vec<(Spec, Answer)>,
    /// Hits, checked as they arrive.
    attempted: u64,
    failures: Vec<String>,
    answered: u64,
    /// Seconds served.
    elapsed: f64,
}

/// The traffic of one closed loop: latencies in milliseconds.
#[derive(Debug, Default)]
pub struct Served {
    pub hits: Latencies,
    pub misses: Latencies,
    /// The latency minus the service's own `wait_ms` for the same request:
    /// the time the transport adds.
    pub hit_net: Latencies,
    pub miss_net: Latencies,
    /// Queue wait (`wait_ms - run_ms`) and run time of every miss.
    pub queue_wait: Vec<f64>,
    pub run: Vec<f64>,
    pub answered: u64,
    pub elapsed: f64,
}

/// When miss `k` of `client` is due, in seconds of serving: every client
/// sends [`MISS_RATE`] misses a second, the clients' misses evenly
/// staggered.
fn miss_due(client: usize, k: usize) -> f64 {
    (k as f64 + client as f64 / CLIENTS as f64) / MISS_RATE
}

/// One closed-loop client: its connection and where its traffic stands,
/// kept from one slice of the loop to the next.
struct Client<T> {
    index: usize,
    transport: T,
    rng: Rng,
    /// Specs whose answer it has seen: the hot set and its own misses.
    known: Vec<Known>,
    /// Its next miss.
    next: usize,
    after_miss: bool,
    /// A transport error ended it.
    broken: bool,
    log: ClientLog,
}

impl<T: Transport> Client<T> {
    /// Sends requests until `deadline`.
    fn run(&mut self, inputs: &Inputs, deadline: Instant) {
        let started = Instant::now();
        while !self.broken && Instant::now() < deadline {
            // A miss goes out when it is due, but never right after another
            // one: a client that falls behind the schedule still sends hits.
            let serving = self.log.elapsed + started.elapsed().as_secs_f64();
            let due = !self.after_miss && serving >= miss_due(self.index, self.next);
            let miss = inputs
                .miss(self.index, self.next)
                .filter(|_| due || self.known.is_empty());
            self.after_miss = miss.is_some();
            match miss {
                Some(spec) => {
                    self.next += 1;
                    self.miss(spec.clone());
                }
                None if self.known.is_empty() => break,
                None => self.hit(),
            }
        }
        self.log.elapsed += started.elapsed().as_secs_f64();
    }

    fn miss(&mut self, spec: Spec) {
        let log = &mut self.log;
        let request = Request::new(spec);
        match self.transport.call(&request) {
            (ms, Ok(answer)) if answer.source == "fresh" => {
                log.misses.push(ms);
                log.miss_net.push(ms - answer.wait_ms);
                if answer.status == "solved" {
                    self.known.push(Known {
                        request: request.clone(),
                        regex: answer.regex.clone(),
                        cost: answer.cost,
                    });
                }
                log.fresh.push((request.spec, answer));
            }
            (_, Ok(answer)) => {
                log.attempted += 1;
                log.failures
                    .push(format!("a fresh spec came back from the {}", answer.source));
            }
            (_, Err(why)) => {
                log.attempted += 1;
                log.failures.push(why);
                self.broken = true;
                return;
            }
        }
        log.answered += 1;
    }

    fn hit(&mut self) {
        let log = &mut self.log;
        let repeat = &self.known[self.rng.below(self.known.len() as u64) as usize];
        let (ms, answer) = self.transport.call(&repeat.request);
        log.attempted += 1;
        match answer {
            Ok(answer)
                if answer.status == "solved"
                    && answer.source == "cache"
                    && answer.regex == repeat.regex
                    && answer.cost == repeat.cost =>
            {
                log.hits.push(ms);
                log.hit_net.push(ms - answer.wait_ms);
            }
            Ok(answer) => log.failures.push(format!(
                "a repeat came back {} from the {} as {} (cost {}), not {} (cost {})",
                answer.status, answer.source, answer.regex, answer.cost, repeat.regex, repeat.cost
            )),
            Err(why) => {
                log.failures.push(why);
                self.broken = true;
                return;
            }
        }
        log.answered += 1;
    }
}

/// The workload's closed-loop clients, run in one or more slices. Each
/// client keeps its connection, its miss schedule (in seconds of serving)
/// and the specs it has seen answered from one slice to the next.
pub struct ServeLoop<T> {
    clients: Vec<Client<T>>,
}

impl<T: Transport + Send> ServeLoop<T> {
    /// Connects [`CLIENTS`] clients; a client that cannot connect is a
    /// failed operation.
    fn connect(
        connect: impl Fn() -> Result<T, String>,
        inputs: &Inputs,
        hot: &[Known],
        report: &mut Report,
    ) -> ServeLoop<T> {
        let mut clients = Vec::with_capacity(CLIENTS);
        for index in 0..CLIENTS {
            match connect() {
                Ok(transport) => clients.push(Client {
                    index,
                    transport,
                    rng: Rng::new(mix(inputs.seed, 0xC11E_0000 + index as u64)),
                    known: hot.to_vec(),
                    next: 0,
                    after_miss: false,
                    broken: false,
                    log: ClientLog::default(),
                }),
                Err(why) => report.check(Err(why)),
            }
        }
        ServeLoop { clients }
    }

    /// Runs every client, each on its own thread, for `window`.
    pub fn run(&mut self, inputs: &Inputs, window: Duration) {
        let deadline = Instant::now() + window;
        std::thread::scope(|scope| {
            for client in &mut self.clients {
                scope.spawn(move || client.run(inputs, deadline));
            }
        });
    }

    /// The traffic of every slice, with every miss answer checked against
    /// the reference.
    pub fn finish(self, reference: &Reference, report: &mut Report) -> Served {
        let mut served = Served::default();
        for Client { log, .. } in self.clients {
            report.count(log.attempted, &log.failures);
            for (spec, answer) in &log.fresh {
                report.check(
                    reference
                        .known(spec)
                        .ok_or_else(|| "a miss spec has no reference".to_string())
                        .and_then(|expected| check_solved(spec, answer, expected)),
                );
                served.queue_wait.push(answer.wait_ms - answer.run_ms);
                served.run.push(answer.run_ms);
            }
            served.hits.extend(log.hits);
            served.misses.extend(log.misses);
            served.hit_net.extend(log.hit_net);
            served.miss_net.extend(log.miss_net);
            served.answered += log.answered;
            served.elapsed = served.elapsed.max(log.elapsed);
        }
        served
    }
}

/// The closed loop through the router in process
/// (`ShardRouter::submit`, `JobHandle::wait`), run for `window`.
pub fn in_process(
    router: &ShardRouter,
    inputs: &Inputs,
    reference: &Reference,
    hot: &[Known],
    window: Duration,
    report: &mut Report,
) -> Served {
    let mut serving = ServeLoop::connect(|| Ok(InProcess(router)), inputs, hot, report);
    serving.run(inputs, window);
    serving.finish(reference, report)
}

/// A [`NetServer`] serving on its own thread.
pub struct Running {
    addr: SocketAddr,
    thread: JoinHandle<Result<RouterSnapshot, String>>,
}

impl Running {
    pub fn start(server: NetServer) -> Running {
        let addr = server.local_addr();
        Running {
            addr,
            thread: std::thread::spawn(move || server.run()),
        }
    }

    /// The closed-loop clients, connected over TCP.
    pub fn clients(&self, inputs: &Inputs, hot: &[Known], report: &mut Report) -> ServeLoop<Tcp> {
        ServeLoop::connect(|| Tcp::connect(self.addr), inputs, hot, report)
    }

    /// Times `pings` round trips of the `ping` verb on one more connection,
    /// then shuts the server down through the wire and waits for it.
    /// Returns the ping latencies.
    pub fn stop(self, pings: usize, report: &mut Report) -> Vec<f64> {
        let mut ping_ms = Vec::with_capacity(pings);
        let mut verbs = || -> Result<(), String> {
            let mut tcp = Tcp::connect(self.addr)?;
            for _ in 0..pings {
                let started = Instant::now();
                tcp.round_trip("{\"op\": \"ping\"}\n")?;
                ping_ms.push(started.elapsed().as_secs_f64() * 1e3);
            }
            tcp.round_trip("{\"op\": \"shutdown\"}\n")
        };
        let shut = verbs();
        report.check(shut);
        report.check(match self.thread.join() {
            Ok(outcome) => outcome.map(drop),
            Err(_) => Err("the server thread panicked".into()),
        });
        ping_ms
    }
}
