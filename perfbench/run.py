#!/usr/bin/env python3
"""The authidx repo benchmark: one command, one workload, every metric.

Run from the repository root:

    python3 perfbench/run.py --workload browse --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload lookup --steady 10   # steadiness mode
    python3 perfbench/run.py --selftest                      # checks reject bad answers

It builds an optimised tree in .bench_build (the shipped authidx_server and
the load generator perfbench/load.cc), prepares a 200k-entry store from the
seed, runs the workload against the server over loopback sockets, checks
the answers and prints, as its last line, one JSON object: correct,
attempted, failed and the metrics. With --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones (see perfbench/README.md).
"""

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

BUILD = ".bench_build"
WORKLOADS = ("browse", "lookup", "ingest")
# An ingest run makes this many passes, each a new server on a fresh copy
# of the store that adds the same batches; a batch's round trip is its
# fastest over the passes.
INGEST_PASSES = 3
# Seconds a run may wait, before its first server starts, for a spell of
# steal time on the host to pass (see perfbench/README.md).
QUIET_MAX = 120


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(msg):
    log("perfbench: " + msg)
    sys.exit(2)


def build():
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src/authidx")):
        die("run from the root of an authidx source tree (src/authidx not found)")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.log"), "ab") as out:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            rc = subprocess.call(["cmake", "-S", "perfbench", "-B", BUILD,
                                  "-DCMAKE_BUILD_TYPE=Release"],
                                 stdout=out, stderr=subprocess.STDOUT)
            if rc != 0:
                die("cmake configure failed; see %s/build.log" % BUILD)
        rc = subprocess.call(["cmake", "--build", BUILD, "-j%d" % (os.cpu_count() or 2),
                              "--target", "perfbench_load", "authidx_server"],
                             stdout=out, stderr=subprocess.STDOUT)
        if rc != 0:
            die("build failed; see %s/build.log" % BUILD)
    return (os.path.join(BUILD, "perfbench_load"),
            os.path.join(BUILD, "authidx", "examples", "authidx_server"))


def last_json(text):
    for line in reversed(text.strip().splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    return None


def run_tool(argv, timeout=170):
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    result = last_json(proc.stdout)
    if result is None:
        die("%s printed no result (rc %d): %s" % (argv[1], proc.returncode, proc.stderr[-2000:]))
    return result


def settle(path):
    """fsyncs every file under `path`, so that write-back of a freshly
    written store does not overlap the timed set-up."""
    for root, _, files in os.walk(path):
        for name in files:
            fd = os.open(os.path.join(root, name), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def prepared(tool, seed):
    """Builds (once per seed) the store the workload starts from."""
    stores = os.path.join(BUILD, "stores")
    os.makedirs(stores, exist_ok=True)
    path = os.path.join(stores, "store-%d" % seed)
    if os.path.exists(path):
        return path
    tmp = path + ".tmp%d" % os.getpid()
    shutil.rmtree(tmp, ignore_errors=True)
    result = run_tool([tool, "prepare", "--seed", str(seed), "--db", tmp])
    if not result["correct"]:
        die("prepare failed: " + result.get("error", ""))
    settle(tmp)
    os.replace(tmp, path)
    return path


class Server:
    """authidx_server with its shipped defaults (no result cache, no trace
    sampling, no fsync per write); --http-port serves /metrics."""

    def __init__(self, binary, db, logfile):
        self.port, self.http_port = free_port(), free_port()
        self.started = time.monotonic()
        self.proc = subprocess.Popen(
            [binary, "--db", db, "--port", str(self.port),
             "--http-port", str(self.http_port)],
            stdout=logfile, stderr=logfile)

    def stop(self):
        """SIGTERM drains queued requests and flushes; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                return self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                return -9
        return self.proc.returncode


def fresh_copy(store, db):
    shutil.copytree(store, db)
    settle(db)


def serve(args, tool, server_bin, store, db, logfile, seconds, rtt_out=""):
    """Runs the workload against a new server on a fresh copy of the store
    and stops the server with SIGTERM. Returns the load tool's result and
    the server's seconds from start to its first answer."""
    fresh_copy(store, db)
    server = Server(server_bin, db, logfile)
    spans = os.path.join(os.path.dirname(db), "..", "spans-%s-%d.jsonl" % (args.workload, args.seed))
    try:
        result = run_tool([tool, args.workload, "--seed", str(args.seed),
                           "--seconds", repr(seconds), "--trace", str(args.trace),
                           "--port", str(server.port), "--http-port", str(server.http_port),
                           "--server-pid", str(server.proc.pid), "--spans-out", spans,
                           "--rtt-out", rtt_out])
    finally:
        rc = server.stop()
    if rc != 0:
        result["correct"] = False
        result["error"] = "server exited with %d after SIGTERM" % rc
    return result, float(result["ready_mono"]) - server.started


def batch_floors(paths):
    """The median over the ADD batches of each one's fastest round trip
    in the passes whose round trips are in `paths`, in ms."""
    best = {}
    for path in paths:
        with open(path) as f:
            for line in f:
                batch, us = line.split()
                best[batch] = min(best.get(batch, float("inf")), float(us))
    return statistics.median(best.values()) / 1e3


def run_ingest(args, tool, server_bin, store, db, logfile):
    """INGEST_PASSES passes of the same adds; the last one's store must
    keep every acknowledged add over a SIGTERM drain and a restart.
    setup_s is the first pass's start: one cold set-up, as on the other
    workloads."""
    passes, rtts = [], []
    for i in range(INGEST_PASSES):
        rtts.append(os.path.join(os.path.dirname(db), "rtt-%d" % i))
        result, ready_s = serve(args, tool, server_bin, store, db, logfile,
                                args.seconds / INGEST_PASSES, rtts[-1])
        passes.append(result)
        if i == 0:
            setup_s = ready_s
        if not result["correct"]:
            return result
        if i + 1 < INGEST_PASSES:
            shutil.rmtree(db)
    server = Server(server_bin, db, logfile)
    try:
        after = run_tool([tool, "stats", "--port", str(server.port)])
    finally:
        server.stop()
    result = passes[-1]
    if int(after["entries"]) != int(result["expect_entries"]):
        result["correct"] = False
        result["error"] = "entries after restart %s != acknowledged %s" % (
            after["entries"], result["expect_entries"])
    result["attempted"] = sum(p["attempted"] for p in passes)
    result["failed"] = sum(p["failed"] for p in passes)
    for name in result["metrics"]:
        result["metrics"][name] = statistics.median(p["metrics"][name] for p in passes)
    result["metrics"]["op_ms"] = batch_floors(rtts)
    result["metrics"]["setup_s"] = setup_s
    return result


def run_wire(args, tool, server_bin, work):
    store = prepared(tool, args.seed)
    db = os.path.join(work, "db")
    quiet = run_tool([tool, "quiet", "--seconds", str(QUIET_MAX)])
    log("perfbench: host steal %.1f%% after waiting %.1f s" % (
        100 * float(quiet["steal"]), float(quiet["waited_s"])))
    with open(os.path.join(work, "server.log"), "wb") as logfile:
        if args.workload == "ingest" and not args.trace:
            return run_ingest(args, tool, server_bin, store, db, logfile)
        result, setup_s = serve(args, tool, server_bin, store, db, logfile, args.seconds)
        result["metrics"]["setup_s"] = setup_s
    # The in-process probe times the layers that have no span and, on a
    # store that holds exactly the seed's corpus, checks the printed index.
    probe = run_tool([tool, "probe", "--seed", str(args.seed), "--db", db])
    if not probe["correct"]:
        result["correct"] = False
        result["error"] = probe["error"]
    if args.trace:
        result["metrics"].update(probe["metrics"])
    return result


def spec():
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(args):
    tool, server_bin = build()
    work = os.path.abspath(os.path.join(BUILD, "work", "run-%d" % os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        result = run_wire(args, tool, server_bin, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    s = spec()
    wanted = s["per_layer"] if args.trace else s["end_to_end"]
    metrics = {}
    names = set(m["name"] for m in wanted)
    for name, value in result["metrics"].items():
        if name not in names:
            log("perfbench: %s = %.6g (not bounded)" % (name, value))
    for metric in wanted:
        name = metric["name"]
        if name not in result["metrics"]:
            result["correct"] = False
            result["error"] = "metric %s not measured" % name
            continue
        metrics[name] = {"value": result["metrics"][name], "unit": metric["unit"]}
    if not result["correct"]:
        log("perfbench: answer check failed: " + result.get("error", ""))
    out = {"correct": result["correct"], "attempted": int(result["attempted"]),
           "failed": int(result["failed"]), "metrics": metrics}
    print(json.dumps(out), flush=True)
    return 0 if result["correct"] else 1


def steady(args):
    """Runs one workload N times on seeds seed..seed+N-1; prints each metric's spread."""
    values = {}
    for i in range(args.steady):
        seed = args.seed + i
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        result = last_json(proc.stdout)
        if proc.returncode != 0 or result is None or not result["correct"]:
            die("run with seed %d failed" % seed)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        log("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (name, m["value"]) for name, m in result["metrics"].items())))
    bounds = {m["name"]: m.get("bound") for m in spec()["end_to_end"]}
    print("%s, %d runs of %ds from seed %d" % (args.workload, args.steady, args.seconds, args.seed))
    print("%-40s %12s %12s %12s %12s %12s %8s %6s" % (
        "metric", "median", "q1", "q3", "min", "max", "iqr/med", "bound"))
    for name, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print("%-40s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f %6s" % (
            name, med, q1, q3, min(v), max(v), spread, "" if bound is None else bound))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0,
                        help="run the workload N times and print each metric's spread")
    parser.add_argument("--selftest", action="store_true",
                        help="show that every answer check rejects a wrong answer")
    args = parser.parse_args()
    if args.selftest:
        tool, _ = build()
        return subprocess.call([tool, "selftest"])
    if args.workload is None:
        parser.error("--workload is required")
    if args.steady:
        return steady(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
