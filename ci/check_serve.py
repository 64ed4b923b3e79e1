#!/usr/bin/env python3
"""Validate `paresy serve` JSONL output.

The committed, versioned form of CI's serve smoke checks (and the one to
run locally):

    paresy serve --workers 2 < requests.jsonl | python3 ci/check_serve.py \
        --ids intro,zeros,intro-again --ordered --all-solved

Reads result lines from a file argument or stdin. Ids are compared as
strings (numeric ids are rendered compactly, matching what a client would
correlate on).

Flags:
  --ids a,b,c          the expected id set (exact, duplicates included)
  --ordered            additionally require exactly that order (ordered
                       serve answers in input order; --stream does not)
  --all-solved         every result line has "status": "solved"
  --all-source S[,S]   every result line's "source" is one of S
  --cost ID=N          the given id's "cost" (repeatable)
  --source ID=S[,S]    the given id's "source" is one of S (repeatable)
  --status ID=S[,S]    the given id's "status" is one of S — e.g.
                       cancelled for a request whose timeout_ms ran out
                       mid-run (repeatable)
  --reuse ID=L[,L]     the given id's "reuse" label is one of L — refine
                       answers report unchanged/warm/cold (repeatable)
  --proto N            every line (results, verb acks, metrics) carries
                       "proto": N — the wire protocol version stamp
  --ops a,b,c          the control-verb ack lines (hello, session.open,
                       session.close, …) are exactly these ops in this
                       order, every one with "status": "ok"
  --metrics            the last line is a rei-service/router-metrics-v1
                       snapshot (required by the three flags below)
  --pools N            the snapshot reports exactly N pools
  --max-enqueued N     rollup jobs.enqueued <= N (e.g. 0 proves a
                       disk-warm restart executed zero syntheses)
  --min-disk-loaded N  rollup cache.disk_loaded >= N
  --min-restart-hit-rate R
                       at least fraction R of the result lines carry
                       "source": "cache" (a restarted — or kill-9'd and
                       recovered — server answers repeats from its
                       persistent cache store)
"""

import argparse
import json
import sys


def render_id(value):
    return value if isinstance(value, str) else json.dumps(value)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("file", nargs="?", help="JSONL results (default stdin)")
    parser.add_argument("--ids")
    parser.add_argument("--ordered", action="store_true")
    parser.add_argument("--all-solved", action="store_true")
    parser.add_argument("--all-source")
    parser.add_argument("--cost", action="append", default=[])
    parser.add_argument("--source", action="append", default=[])
    parser.add_argument("--status", action="append", default=[])
    parser.add_argument("--reuse", action="append", default=[])
    parser.add_argument("--proto", type=int)
    parser.add_argument("--ops")
    parser.add_argument("--metrics", action="store_true")
    parser.add_argument("--pools", type=int)
    parser.add_argument("--max-enqueued", type=int)
    parser.add_argument("--min-disk-loaded", type=int)
    parser.add_argument("--min-restart-hit-rate", type=float)
    return parser.parse_args()


def split_pair(raw, flag):
    key, sep, value = raw.partition("=")
    assert sep, f"{flag} expects ID=VALUE, got '{raw}'"
    return key, value


def main():
    args = parse_args()

    text = open(args.file).read() if args.file else sys.stdin.read()
    all_lines = [json.loads(line) for line in text.splitlines() if line.strip()]
    assert all_lines, "no result lines"

    metrics = None
    if args.metrics:
        metrics = all_lines.pop()
        assert metrics.get("schema") == "rei-service/router-metrics-v1", metrics

    if args.proto is not None:
        stamped = all_lines + ([metrics] if metrics is not None else [])
        bad = [l for l in stamped if l.get("proto") != args.proto]
        assert not bad, f"lines without proto {args.proto}: {bad}"

    # Control-verb acknowledgements (hello, session.open/close, …) carry
    # an "op" instead of an "id" and interleave with the result lines.
    ops = [line for line in all_lines if "op" in line]
    lines = [line for line in all_lines if "op" not in line]
    if args.ops is not None:
        expected = args.ops.split(",")
        actual = [op.get("op") for op in ops]
        assert actual == expected, f"verb acks {actual} != {expected}"
        bad = [op for op in ops if op.get("status") != "ok"]
        assert not bad, f"failed verb acks: {bad}"

    by_id = {}
    ids = []
    for line in lines:
        assert "id" in line, f"result line without id: {line}"
        assert "status" in line, f"result line without status: {line}"
        rendered = render_id(line["id"])
        ids.append(rendered)
        by_id[rendered] = line

    if args.ids is not None:
        expected = args.ids.split(",")
        assert sorted(ids) == sorted(expected), f"ids {sorted(ids)} != {sorted(expected)}"
        if args.ordered:
            assert ids == expected, f"order {ids} != {expected}"
    if args.all_solved:
        bad = [l for l in lines if l["status"] != "solved"]
        assert not bad, f"unsolved results: {bad}"
    if args.all_source:
        allowed = set(args.all_source.split(","))
        bad = [l for l in lines if l.get("source") not in allowed]
        assert not bad, f"sources outside {sorted(allowed)}: {bad}"
    for raw in args.cost:
        key, value = split_pair(raw, "--cost")
        actual = by_id[key].get("cost")
        assert actual == int(value), f"id {key}: cost {actual} != {value}"
    for raw in args.source:
        key, value = split_pair(raw, "--source")
        allowed = set(value.split(","))
        actual = by_id[key].get("source")
        assert actual in allowed, f"id {key}: source {actual} not in {sorted(allowed)}"
    for raw in args.status:
        key, value = split_pair(raw, "--status")
        allowed = set(value.split(","))
        actual = by_id[key].get("status")
        assert actual in allowed, f"id {key}: status {actual} not in {sorted(allowed)}"
    for raw in args.reuse:
        key, value = split_pair(raw, "--reuse")
        allowed = set(value.split(","))
        actual = by_id[key].get("reuse")
        assert actual in allowed, f"id {key}: reuse {actual} not in {sorted(allowed)}"

    if args.pools is not None:
        assert metrics is not None, "--pools needs --metrics"
        assert metrics["pools"] == args.pools, metrics["pools"]
    if args.max_enqueued is not None:
        assert metrics is not None, "--max-enqueued needs --metrics"
        enqueued = metrics["rollup"]["jobs"]["enqueued"]
        assert enqueued <= args.max_enqueued, (
            f"{enqueued} syntheses enqueued, expected <= {args.max_enqueued}"
        )
    if args.min_disk_loaded is not None:
        assert metrics is not None, "--min-disk-loaded needs --metrics"
        loaded = metrics["rollup"]["cache"]["disk_loaded"]
        assert loaded >= args.min_disk_loaded, (
            f"{loaded} records disk-loaded, expected >= {args.min_disk_loaded}"
        )
    if args.min_restart_hit_rate is not None:
        hits = sum(1 for l in lines if l.get("source") == "cache")
        rate = hits / len(lines)
        assert rate >= args.min_restart_hit_rate, (
            f"restart hit rate {rate:.2f} ({hits}/{len(lines)} cache-served), "
            f"expected >= {args.min_restart_hit_rate}"
        )

    print(f"{len(lines)} result lines ok ({', '.join(ids)})")


if __name__ == "__main__":
    main()
