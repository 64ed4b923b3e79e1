#!/usr/bin/env python3
"""Drive a live `paresy serve --listen` server over TCP.

Opens four concurrent connections — an ordered one, a streaming one, a
refinement session and a deliberately over-limit tenant — and asserts
the front-end contract: every response line is stamped with the wire
protocol version (`"proto"`), the `hello` handshake advertises the
server's version, verbs and capabilities, ordered answers arrive in
input order (a malformed line and a bad request between two requests
included), streaming answers arrive per id, an
open→refine×3→close session flow answers cold, then warm, then
unchanged (and a refine against the closed session is rejected with
`unknown_session`), the flooding tenant is rejected explicitly with
`rate_limited` (never silently stalled), and the `shutdown` verb drains
the server cleanly.  The caller then asserts the server process
exits 0:

    ./target/release/paresy serve --listen 127.0.0.1:0 \
        --metrics-addr 127.0.0.1:0 \
        --tenant flood=1,0.000000001,1,4 > serve.log &
    addr=$(sed -n 's/^listening on //p' serve.log)
    maddr=$(sed -n 's/^metrics on //p' serve.log)
    python3 ci/check_net.py "$addr" --metrics-addr "$maddr"
    wait %1

With `--metrics-addr` the script also scrapes the Prometheus text
endpoint and asserts the exposition contract: an HTTP 200 with the
text-format content type, the expected metric families, histogram
`le` buckets that are cumulative (monotone non-decreasing, ending in
`+Inf` == `_count`), and counters that agree with the JSON `metrics`
verb.

The flood tenant's name defaults to `flood` and must be configured on
the server with a near-zero refill rate and a burst of 1 so that exactly
one of its requests is admitted.
"""

import argparse
import json
import socket
import sys
import threading

# Every JSONL response line carries this protocol version stamp.
PROTO_VERSION = 2


def connect(addr, timeout):
    host, port = addr.rsplit(":", 1)
    sock = socket.create_connection((host, int(port)), timeout=timeout)
    return sock, sock.makefile("r", encoding="utf-8")


def send(sock, obj):
    sock.sendall((json.dumps(obj) + "\n").encode("utf-8"))


def read_json(reader):
    line = reader.readline()
    assert line, "connection closed early"
    obj = json.loads(line)
    assert obj.get("proto") == PROTO_VERSION, f"missing/wrong proto stamp: {obj}"
    return obj


def request(rid, pos, neg, tenant):
    return {"id": rid, "pos": pos, "neg": neg, "tenant": tenant}


def drive_ordered(addr, timeout, results):
    """Default (ordered) mode: every line is answered in input order —
    results, bad-request lines and verb acks alike."""
    sock, reader = connect(addr, timeout)
    # With nothing pending, a verb's ack comes back at once.
    send(sock, {"op": "ping"})
    ack = read_json(reader)
    assert ack.get("op") == "ping" and ack.get("status") == "ok", ack
    requests = [
        # o1 takes tens of milliseconds to solve, so the two lines after it
        # are refused while its answer is still pending.
        request(
            "o1",
            ["0110", "1001", "0000", "1111", "0101"],
            ["1", "0", "01", "10", "011", "110"],
            "ci-ordered",
        ),
        "not json",
        {"id": "o-tenant", "pos": ["0"], "tenant": 7},
        request("o2", ["0", "00", "000"], ["1", "10"], "ci-ordered"),
        request("o3", ["11", "1111"], ["1", "111"], "ci-ordered"),
    ]
    for line in requests:
        if isinstance(line, str):
            sock.sendall((line + "\n").encode("utf-8"))
        else:
            send(sock, line)
    answers = [read_json(reader) for _ in requests]
    # The malformed line is answered under its line number (3: the ping
    # and o1 come first), the numeric tenant under its id.
    assert [a["id"] for a in answers] == ["o1", 3, "o-tenant", "o2", "o3"], answers
    statuses = [a["status"] for a in answers]
    assert statuses == ["solved", "bad-request", "bad-request", "solved", "solved"], answers
    solved = [a for a in answers if a["status"] == "solved"]
    for answer in solved:
        assert "regex" in answer and "cost" in answer, answer
    sock.close()
    results["ordered"] = len(solved)


def drive_streaming(addr, timeout, results):
    """Stream mode: every id is answered, order not guaranteed."""
    sock, reader = connect(addr, timeout)
    send(sock, {"op": "mode", "value": "stream"})
    ack = read_json(reader)
    assert ack.get("op") == "mode" and ack.get("status") == "ok", ack
    ids = {"s1": ["0", "01"], "s2": ["111"], "s3": ["0101", "01"]}
    for rid, pos in ids.items():
        send(sock, request(rid, pos, [], "ci-stream"))
    seen = set()
    for _ in ids:
        answer = read_json(reader)
        assert answer["id"] in ids and answer["id"] not in seen, answer
        assert answer["status"] == "solved", answer
        seen.add(answer["id"])
    assert seen == set(ids), seen
    sock.close()
    results["streamed"] = len(seen)


def drive_sessions(addr, timeout, results):
    """Refinement session: hello, open, refine cold→warm→unchanged,
    close — then a refine against the closed session is rejected."""
    sock, reader = connect(addr, timeout)
    send(sock, {"op": "hello"})
    hello = read_json(reader)
    assert hello.get("op") == "hello" and hello.get("status") == "ok", hello
    assert hello.get("version"), hello
    for verb in ("hello", "refine", "session.open", "session.close"):
        assert verb in hello.get("verbs", []), hello
    for capability in ("sessions", "refine"):
        assert capability in hello.get("capabilities", []), hello

    send(sock, {"op": "session.open", "name": "ci-refine"})
    ack = read_json(reader)
    assert ack.get("op") == "session.open" and ack.get("status") == "ok", ack
    assert ack.get("session") == "ci-refine", ack

    def refine(rid, pos, neg):
        send(sock, {"id": rid, "verb": "refine", "session": "ci-refine", "pos": pos, "neg": neg})
        return read_json(reader)

    # A strengthening chain: each step only adds examples, so the session
    # answers the first cold, the second from warm retained state, and
    # the resubmission without re-running anything at all.
    first = refine("n1", ["0", "00"], ["1"])
    assert first["status"] == "solved" and first["source"] == "session", first
    assert first.get("reuse") == "cold" and first.get("reason") == "no_previous", first
    second = refine("n2", ["0", "00"], ["1", "10"])
    assert second["status"] == "solved" and second.get("reuse") == "warm", second
    third = refine("n3", ["0", "00"], ["1", "10"])
    assert third["status"] == "solved" and third.get("reuse") == "unchanged", third

    send(sock, {"op": "session.close", "name": "ci-refine"})
    ack = read_json(reader)
    assert ack.get("op") == "session.close" and ack.get("status") == "ok", ack
    ghost = refine("n4", ["0", "00"], ["1", "10"])
    assert ghost.get("status") == "rejected", ghost
    assert ghost.get("reason") == "unknown_session", ghost
    sock.close()
    results["refined"] = 3


def drive_flood(addr, timeout, results, tenant, count):
    """Over-limit tenant: one admission, explicit rejections after."""
    sock, reader = connect(addr, timeout)
    send(sock, {"op": "mode", "value": "stream"})
    assert read_json(reader).get("status") == "ok"
    for index in range(count):
        # Distinct specs so nothing coalesces or cache-serves.
        send(sock, request(f"f{index}", ["0" * (index + 1)], [], tenant))
    answered = rejected = 0
    for _ in range(count):
        answer = read_json(reader)
        if answer.get("status") == "rejected":
            assert answer.get("reason") == "rate_limited", answer
            rejected += 1
        else:
            assert answer.get("status") == "solved", answer
            answered += 1
    sock.close()
    assert answered == 1, f"flood bucket should admit exactly 1, got {answered}"
    assert rejected == count - 1, f"expected {count - 1} rejections, got {rejected}"
    results["flood_answered"] = answered
    results["flood_rejected"] = rejected


EXPECTED_FAMILIES = (
    "rei_requests_submitted_total",
    "rei_requests_completed_total",
    "rei_requests_solved_total",
    "rei_cache_hits_total",
    "rei_queue_depth",
    "rei_cache_entries",
    "rei_queue_wait_seconds",
    "rei_run_seconds",
    "rei_request_seconds",
    "rei_admission_admitted_total",
    "rei_admission_rate_limited_total",
)


def parse_prometheus(body):
    """Parses text-format samples into {(name, labels-tuple): value}."""
    samples = {}
    for line in body.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        metric, value = line.rsplit(" ", 1)
        if "{" in metric:
            name, raw = metric.split("{", 1)
            labels = []
            for pair in raw.rstrip("}").split(","):
                if not pair:
                    continue
                key, label_value = pair.split("=", 1)
                labels.append((key, label_value.strip('"')))
            labels = tuple(sorted(labels))
        else:
            name, labels = metric, ()
        samples[(name, labels)] = float(value)
    return samples


def scrape(addr, timeout):
    host, port = addr.rsplit(":", 1)
    sock = socket.create_connection((host, int(port)), timeout=timeout)
    sock.sendall(b"GET /metrics HTTP/1.0\r\n\r\n")
    raw = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            break
        raw += chunk
    sock.close()
    head, _, body = raw.decode("utf-8").partition("\r\n\r\n")
    status = head.splitlines()[0]
    assert " 200 " in status, status
    assert "text/plain" in head and "version=0.0.4" in head, head
    return body


def check_scrape(metrics_addr, timeout, snapshot):
    """Scrapes the Prometheus endpoint and checks it against the JSON
    `metrics` verb snapshot taken over the request connection."""
    body = scrape(metrics_addr, timeout)
    samples = parse_prometheus(body)
    names = {name for name, _ in samples}
    for family in EXPECTED_FAMILIES:
        suffix = "_bucket" if family.endswith("_seconds") else ""
        assert family + suffix in names, f"missing family {family}: {sorted(names)}"

    # Histogram buckets are cumulative per (family, pool): values are
    # monotone non-decreasing in `le` order and the +Inf bucket equals
    # the family's _count.
    histograms = {}
    for (name, labels), value in samples.items():
        if not name.endswith("_bucket"):
            continue
        family = name[: -len("_bucket")]
        labels = dict(labels)
        le = labels.pop("le")
        key = (family, tuple(sorted(labels.items())))
        histograms.setdefault(key, []).append((float("inf") if le == "+Inf" else float(le), value))
    assert histograms, body
    for (family, labels), buckets in histograms.items():
        buckets.sort()
        values = [value for _, value in buckets]
        assert values == sorted(values), f"{family}{dict(labels)}: non-monotone {buckets}"
        assert buckets[-1][0] == float("inf"), f"{family}{dict(labels)}: no +Inf bucket"
        count = samples[(family + "_count", labels)]
        assert buckets[-1][1] == count, f"{family}{dict(labels)}: +Inf != _count"

    # The scrape agrees with the JSON metrics verb: per-pool counters sum
    # to at least the rollup the snapshot reported (the scrape is later,
    # so monotone counters may only have grown).
    requests = snapshot["rollup"]["requests"]
    for family, key in (
        ("rei_requests_submitted_total", "submitted"),
        ("rei_admission_rate_limited_total", "rate_limited"),
    ):
        total = sum(value for (name, _), value in samples.items() if name == family)
        assert total >= requests[key], f"{family} {total} < JSON {requests[key]}"
    completed = sum(
        value for (name, _), value in samples.items() if name == "rei_requests_completed_total"
    )
    e2e_count = sum(
        value for (name, _), value in samples.items() if name == "rei_request_seconds_count"
    )
    assert e2e_count > 0, "no end-to-end latency samples recorded"
    assert completed > 0, "no completions recorded"
    return len(names)


def main():
    parser = argparse.ArgumentParser(
        description="drive concurrent TCP clients against paresy serve --listen"
    )
    parser.add_argument("addr", help="HOST:PORT printed by the server's 'listening on' line")
    parser.add_argument(
        "--metrics-addr",
        default=None,
        help="HOST:PORT printed by the server's 'metrics on' line; enables the scrape checks",
    )
    parser.add_argument("--flood-tenant", default="flood")
    parser.add_argument("--flood-requests", type=int, default=8)
    parser.add_argument("--timeout", type=float, default=120.0, help="per-socket seconds")
    args = parser.parse_args()

    results = {}
    errors = []

    def guarded(fn, *fn_args):
        def run():
            try:
                fn(*fn_args)
            except BaseException as exc:  # asserts must fail the process
                errors.append(f"{fn.__name__}: {exc!r}")

        return threading.Thread(target=run, name=fn.__name__)

    threads = [
        guarded(drive_ordered, args.addr, args.timeout, results),
        guarded(drive_streaming, args.addr, args.timeout, results),
        guarded(drive_sessions, args.addr, args.timeout, results),
        guarded(
            drive_flood,
            args.addr,
            args.timeout,
            results,
            args.flood_tenant,
            args.flood_requests,
        ),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=args.timeout)
        assert not thread.is_alive(), f"{thread.name} hung"
    if errors:
        for error in errors:
            print(error, file=sys.stderr)
        sys.exit(1)

    # The server-side counters agree with what the clients observed.
    sock, reader = connect(args.addr, args.timeout)
    send(sock, {"op": "metrics"})
    snapshot = read_json(reader)
    assert snapshot.get("schema") == "rei-service/router-metrics-v1", snapshot
    counters = snapshot["rollup"]["requests"]
    assert counters["rate_limited"] >= results["flood_rejected"], counters
    admitted = (
        results["ordered"] + results["streamed"] + results["refined"] + results["flood_answered"]
    )
    assert counters["admitted"] >= admitted, counters
    # Admission rejections are split from queue-full ones: the flood was
    # turned away at the door, not by queue churn.
    assert "rejected_queue_full" in counters, counters

    # The Prometheus scrape serves the same truth in text format.
    families = 0
    if args.metrics_addr:
        families = check_scrape(args.metrics_addr, args.timeout, snapshot)

    # Graceful drain: the verb is acked, then the server closes the
    # connection once every pending answer has been delivered.
    send(sock, {"op": "shutdown"})
    ack = read_json(reader)
    assert ack.get("op") == "shutdown" and ack.get("status") == "ok", ack
    assert reader.readline() == "", "expected EOF after shutdown drain"
    sock.close()

    scraped = f", {families} scraped metric families" if families else ""
    print(
        f"net contract ok: {results['ordered']} ordered + "
        f"{results['streamed']} streamed + "
        f"{results['refined']} refined answers (proto {PROTO_VERSION}), "
        f"{results['flood_rejected']} rate-limited rejections, "
        f"clean shutdown{scraped}"
    )


if __name__ == "__main__":
    main()
