//! Integration tests of the TCP JSONL front-end through the public
//! facade: multi-client serving, fair-share flood isolation, cache reuse
//! over the wire, control verbs and the graceful drain.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use paresy::bench::costs::REFERENCE;
use paresy::bench::harness::{benchmark_pool, HarnessConfig};
use paresy::prelude::*;
use paresy::service::json::Json;

fn start_server(
    admission: AdmissionConfig,
) -> (SocketAddr, std::thread::JoinHandle<RouterSnapshot>) {
    let router = ShardRouter::start(RouterConfig::identical(2, ServiceConfig::new(1))).unwrap();
    let config = NetConfig::new("127.0.0.1:0")
        .with_handler_threads(4)
        .with_admission(admission);
    let server = NetServer::bind(config, router).unwrap();
    let addr = server.local_addr();
    let serving = std::thread::spawn(move || server.run().unwrap());
    (addr, serving)
}

fn request_line(id: &str, positive: &str, tenant: &str) -> String {
    format!("{{\"id\": \"{id}\", \"pos\": [\"{positive}\"], \"tenant\": \"{tenant}\"}}\n")
}

fn connect_streaming(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut stream = stream;
    stream
        .write_all(b"{\"op\": \"mode\", \"value\": \"stream\"}\n")
        .unwrap();
    let mut ack = String::new();
    reader.read_line(&mut ack).unwrap();
    assert!(ack.contains("stream"), "{ack}");
    (stream, reader)
}

#[test]
fn a_flooding_tenant_never_delays_a_well_behaved_one() {
    // The flooder's bucket admits one request; everything after it must
    // be rejected explicitly while the well-behaved tenant keeps being
    // served — on a server with only one worker per pool, so an
    // unfairly queued flood would visibly stall the good tenant.
    let admission = AdmissionConfig::new().with_tenant("flood", TenantPolicy::limited(1e-9, 1.0));
    let (addr, serving) = start_server(admission);

    let flood_done = Arc::new(AtomicBool::new(false));
    let flooder = {
        let flood_done = Arc::clone(&flood_done);
        std::thread::spawn(move || {
            let (mut stream, mut reader) = connect_streaming(addr);
            const FLOOD: usize = 100;
            for index in 0..FLOOD {
                // Distinct specs: nothing coalesces or cache-serves.
                stream
                    .write_all(
                        request_line(&format!("f{index}"), &"0".repeat(index + 1), "flood")
                            .as_bytes(),
                    )
                    .unwrap();
            }
            let mut line = String::new();
            let (mut answered, mut rejected) = (0, 0);
            for _ in 0..FLOOD {
                line.clear();
                reader.read_line(&mut line).unwrap();
                let answer = Json::parse(line.trim()).unwrap();
                match answer.get("status").and_then(Json::as_str) {
                    Some("rejected") => {
                        assert_eq!(
                            answer.get("reason").and_then(Json::as_str),
                            Some("rate_limited"),
                            "{answer:?}"
                        );
                        rejected += 1;
                    }
                    _ => answered += 1,
                }
            }
            flood_done.store(true, Ordering::SeqCst);
            (answered, rejected)
        })
    };

    // The well-behaved tenant's requests are all served while the flood
    // is (or was) in progress.
    let (mut stream, mut reader) = connect_streaming(addr);
    for index in 0..5 {
        stream
            .write_all(
                request_line(&format!("g{index}"), &"1".repeat(index + 1), "good").as_bytes(),
            )
            .unwrap();
    }
    let mut line = String::new();
    for _ in 0..5 {
        line.clear();
        reader.read_line(&mut line).unwrap();
        let answer = Json::parse(line.trim()).unwrap();
        assert_eq!(
            answer.get("status").and_then(Json::as_str),
            Some("solved"),
            "{answer:?}"
        );
    }

    let (answered, rejected) = flooder.join().unwrap();
    assert_eq!(answered, 1, "one token in the flood bucket");
    assert_eq!(rejected, 99, "everything else is rejected, nothing hangs");

    let mut closer = TcpStream::connect(addr).unwrap();
    closer.write_all(b"{\"op\": \"shutdown\"}\n").unwrap();
    let snapshot = serving.join().unwrap();
    assert_eq!(snapshot.admission.rate_limited, 99);
    assert_eq!(snapshot.admission.admitted, 6);
    // The rollup splits admission rejections from queue-full ones.
    let rollup = snapshot.rollup();
    assert_eq!(rollup.rate_limited, 99);
    assert_eq!(rollup.rejected_queue_full, 0);
}

#[test]
fn verbs_answer_inline_and_shutdown_drains_pending_work() {
    let (addr, serving) = start_server(AdmissionConfig::new());
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut read_json = || {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(!line.is_empty(), "connection closed early");
        Json::parse(line.trim()).unwrap()
    };

    stream.write_all(b"{\"op\": \"ping\"}\n").unwrap();
    assert_eq!(read_json().get("op").and_then(Json::as_str), Some("ping"));

    stream.write_all(b"{\"op\": \"metrics\"}\n").unwrap();
    let metrics = read_json();
    assert_eq!(
        metrics.get("schema").and_then(Json::as_str),
        Some("rei-service/router-metrics-v1")
    );

    // Submit work and immediately ask for shutdown: the pending answers
    // are still delivered before the connection closes.
    stream
        .write_all(request_line("a", "00", "t1").as_bytes())
        .unwrap();
    stream
        .write_all(request_line("b", "11", "t2").as_bytes())
        .unwrap();
    stream.write_all(b"{\"op\": \"shutdown\"}\n").unwrap();
    let mut statuses = Vec::new();
    loop {
        let line = read_json();
        if line.get("op").is_some() {
            continue; // the shutdown ack may interleave with answers
        }
        statuses.push(
            line.get("status")
                .and_then(Json::as_str)
                .unwrap()
                .to_string(),
        );
        if statuses.len() == 2 {
            break;
        }
    }
    assert_eq!(statuses, ["solved", "solved"]);

    let snapshot = serving.join().unwrap();
    assert_eq!(snapshot.admission.admitted, 2);
    assert_eq!(snapshot.rollup().solved, 2);
}

#[test]
fn malformed_lines_and_bad_verbs_answer_without_closing() {
    let (addr, serving) = start_server(AdmissionConfig::new());
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut read_json = || {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        Json::parse(line.trim()).unwrap()
    };

    stream.write_all(b"not json\n").unwrap();
    assert_eq!(
        read_json().get("status").and_then(Json::as_str),
        Some("bad-request")
    );
    stream.write_all(b"{\"op\": \"frobnicate\"}\n").unwrap();
    assert_eq!(
        read_json().get("status").and_then(Json::as_str),
        Some("bad-request")
    );
    // The connection survived both errors.
    stream
        .write_all(request_line("ok", "010", "t").as_bytes())
        .unwrap();
    assert_eq!(
        read_json().get("status").and_then(Json::as_str),
        Some("solved")
    );

    let mut closer = TcpStream::connect(addr).unwrap();
    closer.write_all(b"{\"op\": \"shutdown\"}\n").unwrap();
    serving.join().unwrap();
}

#[test]
fn ordered_mode_answers_every_line_in_input_order() {
    // A request that outlives its 300 ms deadline, then two lines that
    // are refused as soon as they are read: in ordered mode the refusals
    // still wait behind the earlier answer.
    let (addr, serving) = start_server(AdmissionConfig::new());
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    stream
        .write_all(
            b"{\"id\": \"hard\", \"timeout_ms\": 300, \
              \"pos\": [\"00\", \"1101\", \"0001\", \"0111\", \"001\", \"1\", \"10\", \"1100\", \"111\", \"1010\"], \
              \"neg\": [\"\", \"0\", \"0000\", \"0011\", \"01\", \"010\", \"011\", \"100\", \"1000\", \"1001\", \"11\", \"1110\"]}\n\
              not json\n\
              {\"id\": \"t\", \"pos\": [\"0\"], \"tenant\": 7}\n",
        )
        .unwrap();
    let answers: Vec<String> = (0..3)
        .map(|_| {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let answer = Json::parse(line.trim()).unwrap();
            let status = answer.get("status").and_then(Json::as_str).unwrap();
            format!("{} {status}", answer.get("id").unwrap().to_compact())
        })
        .collect();
    assert_eq!(
        answers,
        ["\"hard\" cancelled", "2 bad-request", "\"t\" bad-request"]
    );

    let mut closer = TcpStream::connect(addr).unwrap();
    closer.write_all(b"{\"op\": \"shutdown\"}\n").unwrap();
    serving.join().unwrap();
}

/// Renders `spec` as a request line. `Word`'s display form already uses
/// the protocol's `ε` spelling for the empty word.
fn spec_line(id: usize, spec: &Spec, tenant: &str) -> String {
    let words = |set: &std::collections::BTreeSet<Word>| {
        Json::array(set.iter().map(|w| Json::str(w.to_string())))
    };
    let mut line = Json::object([
        ("id", Json::uint(id as u64)),
        ("pos", words(spec.positive())),
        ("neg", words(spec.negative())),
        ("tenant", Json::str(tenant)),
    ])
    .to_compact();
    line.push('\n');
    line
}

/// Answers one streaming connection received: `(answered, rate_limited)`.
fn stream_requests(addr: SocketAddr, requests: &[String]) -> (u64, u64) {
    let (mut stream, mut reader) = connect_streaming(addr);
    for request in requests {
        stream.write_all(request.as_bytes()).unwrap();
    }
    let (mut answered, mut rate_limited) = (0, 0);
    let mut line = String::new();
    for _ in requests {
        line.clear();
        reader.read_line(&mut line).unwrap();
        let answer = Json::parse(line.trim()).unwrap();
        if answer.get("status").and_then(Json::as_str) == Some("rejected") {
            assert_eq!(
                answer.get("reason").and_then(Json::as_str),
                Some("rate_limited"),
                "{answer:?}"
            );
            rate_limited += 1;
        } else {
            answered += 1;
        }
    }
    (answered, rate_limited)
}

/// The router's rollup cache hits, read through the `metrics` verb.
fn cache_hits_now(addr: SocketAddr) -> u64 {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"{\"op\": \"metrics\"}\n").unwrap();
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    Json::parse(line.trim())
        .unwrap()
        .get("rollup")
        .and_then(|r| r.get("requests"))
        .and_then(|r| r.get("cache_hits"))
        .and_then(Json::as_u64)
        .expect("rollup carries cache_hits")
}

/// The quick Table 1 pool over real TCP: split across three concurrent
/// streaming connections, cold and then cache-warm, then replayed by one
/// over-limit tenant whose bucket admits a burst of two.
#[test]
fn tcp_passes_cover_cache_reuse_and_rate_limiting() {
    const CONNECTIONS: usize = 3;
    const FLOOD_BURST: u64 = 2;
    let config = HarnessConfig::quick();
    let pool = benchmark_pool(&config);
    let size = pool.len() as u64;
    let service = ServiceConfig::new(2)
        .with_queue_capacity(2 * pool.len())
        .with_synth(config.synth_config(REFERENCE.costs));
    let router = ShardRouter::start(RouterConfig::identical(2, service)).unwrap();
    let admission = AdmissionConfig::new()
        .with_tenant("flooder", TenantPolicy::limited(1e-9, FLOOD_BURST as f64));
    let net = NetConfig::new("127.0.0.1:0")
        .with_handler_threads(4)
        .with_admission(admission);
    let server = NetServer::bind(net, router).unwrap();
    let addr = server.local_addr();
    let serving = std::thread::spawn(move || server.run().unwrap());

    // Round-robin split, one tenant per connection.
    let mut split: Vec<Vec<String>> = vec![Vec::new(); CONNECTIONS];
    for (index, bench) in pool.iter().enumerate() {
        let connection = index % CONNECTIONS;
        let tenant = format!("bench-{connection}");
        split[connection].push(spec_line(index, &bench.spec, &tenant));
    }
    let run_pass = || {
        let before = cache_hits_now(addr);
        let clients: Vec<_> = split
            .iter()
            .cloned()
            .map(|requests| {
                std::thread::spawn(move || {
                    (requests.len() as u64, stream_requests(addr, &requests))
                })
            })
            .collect();
        let mut submitted = 0;
        for client in clients {
            let (sent, (answered, rate_limited)) = client.join().unwrap();
            // Well-behaved tenants are never rate-limited, and every
            // request is answered over the wire.
            assert_eq!(rate_limited, 0);
            assert_eq!(answered, sent);
            submitted += sent;
        }
        assert_eq!(submitted, size);
        cache_hits_now(addr) - before
    };
    run_pass();
    let warm_hits = run_pass();
    assert!(
        warm_hits as f64 >= 0.9 * size as f64,
        "warm TCP hits {warm_hits} of {size}"
    );

    // The flood tenant gets its burst and explicit rejections for the
    // rest: nothing hangs, everything is answered.
    let flood: Vec<String> = pool
        .iter()
        .enumerate()
        .map(|(index, bench)| spec_line(index, &bench.spec, "flooder"))
        .collect();
    let (answered, rate_limited) = stream_requests(addr, &flood);
    assert_eq!(answered, FLOOD_BURST);
    assert_eq!(rate_limited, size - FLOOD_BURST);

    let mut closer = TcpStream::connect(addr).unwrap();
    closer.write_all(b"{\"op\": \"shutdown\"}\n").unwrap();
    let snapshot = serving.join().unwrap();
    assert_eq!(snapshot.admission.rate_limited, rate_limited);
    assert_eq!(snapshot.rollup().rate_limited, rate_limited);
    assert!(snapshot.admission.admitted >= 2 * size + answered);
}
