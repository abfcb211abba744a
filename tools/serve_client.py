#!/usr/bin/env python3
"""Drive and validate an mdp_served Unix-socket server.

Two subcommands, both used by the serve-integration CI job:

sweep
    Submit a fig5-style policy sweep (--stages x --policies per
    workload; CI derives --policies from the output of
    `mdp_sim --list-policies`), trigger {"op":"run"},
    wait for every result, and assert:
      - every request completes exactly once, in submission order,
      - the run summary's amortization factor (configs evaluated per
        context build, one build per (workload, scale, seed) group)
        meets --min-amortization.
    With --shutdown, finish with {"op":"shutdown"} so the server
    writes its batch report and exits on its own.

soak
    Racing writers (each with its own connection) blast bursts of
    requests bigger than the server's queue capacity, interleaved
    with {"op":"run"}, for --duration seconds; then the server is
    sent SIGTERM (--server-pid) and every writer reads until EOF.
    Asserts:
      - at least one explicit queue_full backpressure rejection,
      - every accepted id got exactly one "done" result (none lost,
        none duplicated), including those drained after SIGTERM,
      - no accepted id was ever rejected and vice versa.

Exit code 0 only when every assertion holds.
"""

import argparse
import json
import os
import signal
import socket
import sys
import threading
import time

DEFAULT_POLICIES = "never,always,wait,psync"
DEFAULT_STAGES = "4,8"


class LineClient:
    """One connection speaking the line-delimited JSON protocol."""

    def __init__(self, path, timeout=300.0):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)
        self.buf = b""

    def send(self, doc):
        self.sock.sendall(json.dumps(doc).encode() + b"\n")

    def send_raw(self, data):
        self.sock.sendall(data)

    def recv_line(self):
        """One response document, or None on EOF."""
        while b"\n" not in self.buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                return None
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def close(self):
        self.sock.close()


def sweep_requests(workloads, scale, stages_list, policies):
    for wl in workloads:
        for stages in stages_list:
            for policy in policies:
                yield {
                    "id": f"{wl}-{stages}-{policy}",
                    "workload": wl,
                    "scale": scale,
                    "policy": policy,
                    "stages": stages,
                }


def run_sweep(args):
    client = LineClient(args.socket)
    requests = list(sweep_requests(
        args.workloads.split(","), args.scale,
        [int(s) for s in args.stages.split(",")],
        args.policies.split(",")))
    submitted = []
    for req in requests:
        client.send(req)
        resp = client.recv_line()
        if resp is None or resp.get("status") != "queued":
            print(f"sweep: submission failed: {resp!r}",
                  file=sys.stderr)
            return 1
        submitted.append(req["id"])

    client.send({"op": "run"})
    done = []
    summary = None
    while summary is None:
        resp = client.recv_line()
        if resp is None:
            print("sweep: EOF before run summary", file=sys.stderr)
            return 1
        if resp.get("status") == "done":
            done.append(resp["id"])
        elif resp.get("status") == "ran":
            summary = resp
        else:
            print(f"sweep: unexpected response: {resp!r}",
                  file=sys.stderr)
            return 1

    failures = []
    if done != submitted:
        failures.append(
            f"results out of order or incomplete: {done} != "
            f"{submitted}")
    amort = summary.get("amortization_factor", 0.0)
    if amort < args.min_amortization:
        failures.append(
            f"amortization {amort:.2f} < required "
            f"{args.min_amortization:.2f} "
            f"(trace_passes={summary.get('trace_passes')}, "
            f"configs={summary.get('configs_evaluated')})")

    if args.shutdown:
        client.send({"op": "shutdown"})
        resp = client.recv_line()
        if resp is None or resp.get("status") != "bye":
            failures.append(f"shutdown handshake failed: {resp!r}")
    client.close()

    for failure in failures:
        print(f"sweep: FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(f"sweep: {len(done)} results, "
              f"{summary.get('trace_passes')} context builds, "
              f"amortization {amort:.2f}")
    return 1 if failures else 0


class SoakStats:
    def __init__(self):
        self.lock = threading.Lock()
        self.queue_full = 0
        self.accepted = set()
        self.done = []
        self.errors = []


def soak_writer(args, writer_id, stats, stop_event):
    client = LineClient(args.socket)
    seq = 0
    outstanding = set()

    def consume(resp):
        status = resp.get("status")
        rid = resp.get("id")
        with stats.lock:
            if status == "queued":
                stats.accepted.add(rid)
            elif status == "done":
                stats.done.append(rid)
                outstanding.discard(rid)
            elif status == "rejected":
                if resp.get("error") == "queue_full":
                    stats.queue_full += 1
                else:
                    stats.errors.append(
                        f"unexpected rejection: {resp!r}")
            elif status in ("ran", "duplicate", "ok"):
                pass
            else:
                stats.errors.append(f"unexpected response: {resp!r}")

    try:
        while not stop_event.is_set():
            for _ in range(args.burst):
                rid = f"soak-{writer_id}-{seq}"
                seq += 1
                client.send({
                    "id": rid,
                    "workload": "espresso",
                    "scale": args.scale,
                    "policy": "sync",
                    "stages": 4,
                })
                outstanding.add(rid)
                resp = client.recv_line()
                if resp is None:
                    return
                consume(resp)
            client.send({"op": "run"})
            # Drain whatever the run produced; the summary line marks
            # the end of this round's responses.
            while True:
                resp = client.recv_line()
                if resp is None:
                    return
                consume(resp)
                if resp.get("status") == "ran":
                    break
        # Server is about to be SIGTERMed: read until EOF to collect
        # the drain results for everything still queued.
        while True:
            resp = client.recv_line()
            if resp is None:
                return
            consume(resp)
    except (OSError, json.JSONDecodeError) as err:
        with stats.lock:
            stats.errors.append(f"writer {writer_id}: {err}")
    finally:
        client.close()


def run_soak(args):
    stats = SoakStats()
    stop_event = threading.Event()
    writers = [
        threading.Thread(target=soak_writer,
                         args=(args, i, stats, stop_event))
        for i in range(args.writers)
    ]
    for w in writers:
        w.start()

    time.sleep(args.duration)
    stop_event.set()
    time.sleep(0.5)  # let writers reach their EOF-drain loop
    os.kill(args.server_pid, signal.SIGTERM)
    for w in writers:
        w.join(timeout=300)

    failures = list(stats.errors)
    if any(w.is_alive() for w in writers):
        failures.append("writer thread hung after SIGTERM drain")
    if stats.queue_full == 0:
        failures.append("no queue_full backpressure response "
                        "observed; soak never filled the queue")
    done_set = set(stats.done)
    if len(stats.done) != len(done_set):
        dupes = sorted({d for d in stats.done
                        if stats.done.count(d) > 1})
        failures.append(f"duplicated results for ids: {dupes[:10]}")
    lost = stats.accepted - done_set
    if lost:
        failures.append(
            f"{len(lost)} accepted ids never completed "
            f"(lost in drain): {sorted(lost)[:10]}")
    phantom = done_set - stats.accepted
    if phantom:
        failures.append(
            f"results for never-accepted ids: {sorted(phantom)[:10]}")

    for failure in failures:
        print(f"soak: FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(f"soak: {len(stats.accepted)} accepted, "
              f"{len(done_set)} completed, "
              f"{stats.queue_full} queue_full rejections, "
              f"clean SIGTERM drain")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(
        description="mdp_served protocol driver for CI")
    sub = parser.add_subparsers(dest="cmd", required=True)

    sweep = sub.add_parser("sweep", help="fig5 sweep + identity gate")
    sweep.add_argument("--socket", required=True)
    sweep.add_argument("--workloads", default="espresso",
                       help="comma-separated workload names")
    sweep.add_argument("--policies", default=DEFAULT_POLICIES,
                       help="comma-separated policy names; CI passes "
                            "the output of mdp_sim --list-policies")
    sweep.add_argument("--stages", default=DEFAULT_STAGES,
                       help="comma-separated stage counts")
    sweep.add_argument("--scale", type=float, default=0.1)
    sweep.add_argument("--min-amortization", type=float,
                       default=8.0 / 1.5,
                       help="minimum configs per context build "
                            "(default 8/1.5)")
    sweep.add_argument("--shutdown", action="store_true",
                       help="finish with {\"op\":\"shutdown\"}")

    soak = sub.add_parser("soak", help="backpressure + drain soak")
    soak.add_argument("--socket", required=True)
    soak.add_argument("--server-pid", type=int, required=True)
    soak.add_argument("--duration", type=float, default=60.0)
    soak.add_argument("--writers", type=int, default=4)
    soak.add_argument("--burst", type=int, default=64,
                      help="submissions per writer between runs "
                           "(> queue capacity to force backpressure)")
    soak.add_argument("--scale", type=float, default=0.02)

    args = parser.parse_args()
    if args.cmd == "sweep":
        return run_sweep(args)
    return run_soak(args)


if __name__ == "__main__":
    sys.exit(main())
