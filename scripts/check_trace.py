#!/usr/bin/env python3
"""Validates a Chrome trace-event JSON file written by hcd_cli --trace-out.

Checks that the file is strict JSON in the trace-event envelope, that every
event is a complete-span ("ph":"X") record with name/ts/dur/tid, and
optionally that the trace covers enough distinct subsystems (the dotted
prefix of the span name) and thread ids, contains required span names,
contains none of the forbidden span names, and has required args on a
named span (at least one event of that name must carry the arg).

With --pair-trace the script additionally asserts that a client trace and
a server trace describe the same requests: the wire trace ids carried by
the client-side spans (--pair-client, default "client.query") must
intersect the ids carried by the server-side spans (--pair-server,
default "serve.request") across the two files, in at least
--pair-min-shared requests. Both files contribute to both sides, so the
flag works whether the client and server ran in one process or two.

Usage:
  check_trace.py TRACE.json [--min-subsystems=N] [--min-tids=N]
                 [--require=SPAN_NAME ...] [--forbid=SPAN_NAME ...]
                 [--require-arg=SPAN:ARG ...]
                 [--pair-trace=OTHER.json] [--pair-client=NAME]
                 [--pair-server=NAME] [--pair-min-shared=N]

Exits non-zero with a diagnostic on the first violated check.
"""

import argparse
import json
import sys


def load_events(path: str):
    with open(path) as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    return doc, events


def span_trace_ids(events, span_name: str):
    """The trace_id args of every event named `span_name` (as strings)."""
    ids = set()
    for event in events:
        if event.get("name") != span_name:
            continue
        trace_id = event.get("args", {}).get("trace_id")
        if trace_id is not None:
            ids.add(str(trace_id))
    ids.discard("0x0")  # an untraced request's id pairs with nothing
    return ids


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="path to the trace JSON file")
    parser.add_argument("--min-subsystems", type=int, default=0)
    parser.add_argument("--min-tids", type=int, default=0)
    parser.add_argument(
        "--require",
        action="append",
        default=[],
        help="span name that must appear at least once (repeatable)",
    )
    parser.add_argument(
        "--forbid",
        action="append",
        default=[],
        help="span name that must not appear (repeatable)",
    )
    parser.add_argument(
        "--require-arg",
        action="append",
        default=[],
        metavar="SPAN:ARG",
        help="some SPAN event must carry the arg ARG (repeatable)",
    )
    parser.add_argument(
        "--pair-trace",
        default=None,
        metavar="OTHER.json",
        help="second trace; client and server spans across the two files "
        "must share wire trace ids",
    )
    parser.add_argument("--pair-client", default="client.query")
    parser.add_argument("--pair-server", default="serve.request")
    parser.add_argument("--pair-min-shared", type=int, default=1)
    args = parser.parse_args()

    doc, events = load_events(args.trace)

    if doc.get("displayTimeUnit") != "ns":
        print(f"displayTimeUnit is {doc.get('displayTimeUnit')!r}, want 'ns'")
        return 1
    if not isinstance(events, list) or not events:
        print("traceEvents missing or empty")
        return 1

    for i, event in enumerate(events):
        for key in ("name", "ph", "pid", "tid", "ts", "dur"):
            if key not in event:
                print(f"event {i} is missing {key!r}: {event}")
                return 1
        if event["ph"] != "X":
            print(f"event {i} has ph={event['ph']!r}, want 'X'")
            return 1
        if event["ts"] < 0 or event["dur"] < 0:
            print(f"event {i} has negative ts/dur: {event}")
            return 1

    names = {e["name"] for e in events}
    subsystems = {n.split(".")[0] for n in names}
    tids = {e["tid"] for e in events}

    if len(subsystems) < args.min_subsystems:
        print(
            f"only {len(subsystems)} subsystems {sorted(subsystems)}, "
            f"want >= {args.min_subsystems}"
        )
        return 1
    if len(tids) < args.min_tids:
        print(f"only {len(tids)} thread ids {sorted(tids)}, want >= {args.min_tids}")
        return 1
    for required in args.require:
        if required not in names:
            print(f"required span {required!r} not found in {sorted(names)}")
            return 1

    for forbidden in args.forbid:
        if forbidden in names:
            count = sum(1 for e in events if e["name"] == forbidden)
            print(f"forbidden span {forbidden!r} appears {count} times")
            return 1

    for required in args.require_arg:
        span, sep, arg = required.partition(":")
        if not sep or not span or not arg:
            print(f"--require-arg={required!r}: want SPAN:ARG")
            return 2
        if not any(e["name"] == span and arg in e.get("args", {})
                   for e in events):
            print(f"no {span!r} span carries the arg {arg!r}")
            return 1

    if args.pair_trace is not None:
        _, other = load_events(args.pair_trace)
        if not isinstance(other, list):
            print(f"{args.pair_trace}: traceEvents missing")
            return 1
        combined = events + other
        client_ids = span_trace_ids(combined, args.pair_client)
        server_ids = span_trace_ids(combined, args.pair_server)
        if not client_ids:
            print(f"no {args.pair_client!r} spans carry a trace_id arg")
            return 1
        if not server_ids:
            print(f"no {args.pair_server!r} spans carry a trace_id arg")
            return 1
        shared = client_ids & server_ids
        if len(shared) < args.pair_min_shared:
            print(
                f"only {len(shared)} trace ids shared between "
                f"{args.pair_client!r} ({len(client_ids)} ids) and "
                f"{args.pair_server!r} ({len(server_ids)} ids), "
                f"want >= {args.pair_min_shared}"
            )
            return 1
        print(
            f"paired: {len(shared)} shared trace ids between "
            f"{args.pair_client} and {args.pair_server}"
        )

    print(
        f"OK: {len(events)} events, {len(subsystems)} subsystems "
        f"{sorted(subsystems)}, {len(tids)} thread ids"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
