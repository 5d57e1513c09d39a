#!/usr/bin/env python3
"""HSIS benchmark: time to verdict on the paper's Table-1 designs and the
scaled families, a serve edit loop, and traced per-layer numbers.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 25 --trace 0

Workloads (see perfbench/NOTES.md for why each exists):

  table1      the six Table-1 designs at paper scale, full property files
  scaled      ring10 and philos8, 2n CTL properties each
  serve-edit  one client in a closed loop against a real `hsis serve
              --socket` daemon over the small Table-1 designs

The script builds the program from source with dune, makes its inputs from
--seed (design order, property order, the serve request stream), measures
for about --seconds, checks every verdict and reached-state count against
perfbench/expected.json, and prints one JSON object as the last line of
stdout: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, measured untraced on the
default user path (sequential, --tr part, kernel_jobs 1).  With --trace 1
they are the per-layer ones, from a separate run that wraps each layer's
public calls in spans, writes them to .perfbench_work/<workload>/trace.json
(Chrome trace events; open it in Perfetto), and runs the per-design work
twice to check that the deterministic counts repeat exactly.

Everything it writes lives under .perfbench_work/ in the checkout.
"""

import argparse
import hashlib
import json
import math
import os
import random
import re
import signal
import socket
import subprocess
import sys
import time
from statistics import median

BENCH_DIR = "perfbench"
WORK = ".perfbench_work"
HBENCH = os.path.join("_build", "default", BENCH_DIR, "hbench.exe")
HSIS = os.path.join("_build", "default", "bin", "hsis_cli.exe")

WORKLOADS = {
    "table1": ["philos", "pingpong", "gigamax", "scheduler", "dcnew", "mdlc"],
    "scaled": ["ring10", "philos8"],
    "serve-edit": ["philos", "pingpong", "gigamax", "scheduler5", "dcnew", "mdlc"],
}

# One round of the serve-edit request stream: a fixed multiset of requests
# that the seed shuffles, so every seed does the same work in a different
# order.  A warm request re-checks one CTL property of a design whose
# session is cached; each of a design's CTL properties appears SERVE_WARM
# times per round.  An edit changes the design's source (a new content
# hash), so the daemon misses its cache and rebuilds read -> reach -> check
# for one property (taken in file order).  A round holds 1388 warm requests
# and 73 edits (1 in 20).  The weights keep the cheap designs frequent and
# put each percentile inside one design's cluster rather than on the edge
# between two: the p50 among the scheduler5 re-checks (ranks 481-900), the
# p99 among the 45 mdlc ones near 160 ms (13.9 samples beyond it) and the
# edit p50 among the philos edits (near their 40th percentile).
# Only the small designs are edited.  gigamax and dcnew (1-3 s to rebuild)
# would dominate a round and warm their sessions again, one property at a
# time, from inside the measured loop.  A stale mdlc version is the largest
# session an edit leaves behind, and how many of them the seed's order
# keeps cached at once moved the daemon's peak RSS by 10 %.
SERVE_WARM = {"pingpong": 80, "philos": 200, "scheduler5": 420, "gigamax": 4, "mdlc": 45, "dcnew": 1}
SERVE_EDITS = {"philos": 60, "pingpong": 7, "scheduler5": 6}
# A round is shuffled in SERVE_SLICES consecutive slices, each holding an
# even share of every design's warm requests and of the round's edits, so
# every design is touched in every slice and at most 2 * 11 = 22 edits
# fall between two touches of one design.  With 6 current sessions the
# cache needs 6 + 22 entries never to evict a current one;
# SERVE_CACHE_ENTRIES leaves room above that, so evictions drop only
# superseded versions and every planned warm request hits.  (Dealt with
# each design's warm requests instead, the 60 philos edits bunched: one
# seed put 27 edits between two dcnew requests and evicted it.)
SERVE_SLICES = 7
SERVE_CACHE_ENTRIES = 32
SERVE_CACHE_NODES = 8_000_000
# setup_s samples daemon start-up between the loop's requests, spread over
# the whole run: the host's speed drifts over seconds, and start-ups taken
# back to back at one moment all share that moment's speed.
SERVE_SETUP_PROBES = 10  # per round, on top of the kept daemon's own
# Nominal seconds of one pass over a workload's designs, and of one serve
# round, on a 2-core x86 host (see repetitions).
PASS_S = {"table1": 12.5, "scaled": 6.0}
SERVE_ROUND_S = 15.0
VERIFY_SETUPS = 4  # extra opens per design process, on top of the verifying one

BDD_OPS = ["and", "or", "not", "exists", "and_exists", "permute"]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def now_us():
    return time.time() * 1e6


# ---------------------------------------------------------------- inputs


def parse_pif(text):
    """Split a PIF file into fairness statements, CTL statements (name ->
    text), automaton blocks (name -> text) and the LC list."""
    text = "\n".join(l for l in text.splitlines() if not l.strip().startswith("#"))
    automata, rest = {}, []
    i = 0
    for m in re.finditer(r"\bautomaton\s+(\w+)\s*\{", text):
        if m.start() < i:
            continue
        depth, j = 1, m.end()
        while depth:
            depth += {"{": 1, "}": -1}.get(text[j], 0)
            j += 1
        automata[m.group(1)] = text[m.start():j]
        rest.append(text[i:m.start()])
        i = j
    rest.append(text[i:])
    stmts = [s.strip() for s in "".join(rest).split(";") if s.strip()]
    fairness = [s for s in stmts if s.split()[0] == "fairness"]
    ctl = {s.split()[1]: s for s in stmts if s.split()[0] == "ctl"}
    lc = [s.split()[1] for s in stmts if s.split()[0] == "lc"]
    return fairness, ctl, automata, lc


def render_pif(fairness, ctl_stmts, automata, lc_names):
    out = [f + ";" for f in fairness] + [c + ";" for c in ctl_stmts]
    for name in lc_names:
        out += [automata[name], "lc %s;" % name]
    return "\n".join(out) + "\n"


class Design:
    def __init__(self, name):
        base = os.path.join(BENCH_DIR, "designs", name)
        with open(base + ".v") as f:
            self.verilog = f.read()
        with open(base + ".pif") as f:
            self.fairness, self.ctl, self.automata, self.lc = parse_pif(f.read())

    def pif(self, rng=None):
        ctl, lc = list(self.ctl), list(self.lc)
        if rng is not None:
            rng.shuffle(ctl)
            rng.shuffle(lc)
        return render_pif(self.fairness, [self.ctl[c] for c in ctl], self.automata, lc)

    def one_property_pif(self, name):
        return render_pif(self.fairness, [self.ctl[name]], self.automata, [])


# ---------------------------------------------------------------- checks


class Checker:
    """Compares outputs with the hand-written expected answers."""

    def __init__(self):
        with open(os.path.join(BENCH_DIR, "expected.json")) as f:
            self.expected = json.load(f)["designs"]
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, what):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def verdicts(self, design, props, expect_all=True):
        want = self.expected[design]["verdicts"]
        seen = set()
        for p in props:
            self.attempted += 1
            seen.add(p["name"])
            if want.get(p["name"]) != p["verdict"]:
                self.fail("%s/%s: %s, expected %s" % (design, p["name"], p["verdict"], want.get(p["name"])))
        if expect_all:
            for name in sorted(set(want) - seen):
                self.attempted += 1
                self.fail("%s/%s: no verdict" % (design, name))

    def reached(self, design, count):
        self.attempted += 1
        if count != self.expected[design]["reached"]:
            self.fail("%s: reached %s, expected %s" % (design, count, self.expected[design]["reached"]))

    def ok(self, cond, what):
        self.attempted += 1
        if not cond:
            self.fail(what)


# ---------------------------------------------------------------- helpers


def percentile(xs, q):
    """Nearest-rank percentile, q in (0, 100]: always one of the samples,
    never a blend of two latency clusters.  Used for tails; medians are
    the usual mean of the two middle samples for an even count, which on a
    workload split evenly between fast and slow properties is steadier
    than either cluster's edge."""
    xs = sorted(xs)
    return xs[max(0, -(-len(xs) * q // 100) - 1)]


def hd_median(xs):
    """Harrell-Davis estimate of the median: the order statistics weighted
    by a Beta((n+1)/2, (n+1)/2) density over their ranks.  On a few dozen
    per-property times that fall in clusters (fast invariants, slow
    liveness checks) the sample median is the mean of the two samples
    astride the middle and jumps with either; this estimate moves smoothly
    with the samples on both sides."""
    xs = sorted(xs)
    n = len(xs)
    if n < 2:
        return xs[0]
    a = (n + 1) / 2.0

    def density(t):
        return math.exp((a - 1) * (math.log(t) + math.log1p(-t))) if 0 < t < 1 else 0.0

    steps = 64  # Simpson's rule on each rank's share of [0, 1]
    h = 1.0 / (n * steps)
    weights = []
    for i in range(n):
        lo = i / n
        inner = sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, steps))
        weights.append((density(lo) + inner + density(lo + 1.0 / n)) * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def run_child(argv, tag):
    """Run a child process to completion; returns (stdout, wall seconds,
    peak RSS in kB from wait4)."""
    err_path = os.path.join(WORK, "stderr-%s.log" % tag)
    t0 = time.perf_counter()
    with open(err_path, "wb") as err:
        p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, stdin=subprocess.DEVNULL)
        try:
            out = p.stdout.read()
        except BaseException:
            p.kill()
            raise
        finally:
            p.stdout.close()
            _, status, usage = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - t0
    if p.returncode != 0:
        with open(err_path, "rb") as f:
            tail = f.read()[-2000:].decode(errors="replace")
        raise BenchError("%s exited with %d: %s" % (" ".join(argv), p.returncode, tail))
    return out.decode(), wall, usage.ru_maxrss


def worker(mode, design_path, pif_path, *extra):
    argv = [HBENCH, mode, "--verilog", design_path, "--pif", pif_path] + list(extra)
    out, wall, rss_kb = run_child(argv, mode)
    return json.loads(out.strip().splitlines()[-1]), wall, rss_kb


def write_inputs(designs, rng):
    """Write each design's source and a property file shuffled by [rng];
    returns name -> (verilog path, pif path)."""
    d = os.path.join(WORK, "inputs")
    os.makedirs(d, exist_ok=True)
    paths = {}
    for name, des in designs.items():
        v = os.path.join(d, name + ".v")
        p = os.path.join(d, name + ".pif")
        with open(v, "w") as f:
            f.write(des.verilog)
        with open(p, "w") as f:
            f.write(des.pif(rng))
        paths[name] = (v, p)
    return paths


# ---------------------------------------------------------------- table1 / scaled


def check_verify_row(checker, name, row):
    checker.verdicts(name, row["props"])
    checker.reached(name, int(row["reached"]))
    ctl = [p["name"] for p in row["props"] if p["kind"] == "ctl"]
    checker.verdicts(name, row["rechecks"], expect_all=False)
    checker.ok(sorted(p["name"] for p in row["rechecks"]) == sorted(ctl),
               "%s: re-checked %d of %d CTL properties" % (name, len(row["rechecks"]), len(ctl)))


def verify_workload(names, designs, seed, seconds, nominal_s, checker):
    """Whole passes over the designs, one fresh process per design.  Each
    pass takes a new design and property order from the seeded
    generator."""
    rng = random.Random(seed)
    rows = {n: [] for n in names}
    pass_rss = []
    recheck_ms = {}
    jobs = 0
    worker_wall = 0.0
    start = time.perf_counter()
    for _ in range(repetitions(seconds, nominal_s)):
        order = list(names)
        rng.shuffle(order)
        paths = write_inputs(designs, rng)
        rss = []
        for name in order:
            row, wall, rss_kb = worker("verify", *paths[name], "--setups", str(VERIFY_SETUPS))
            check_verify_row(checker, name, row)
            rows[name].append(row)
            rss.append(rss_kb)
            for p in row["rechecks"]:
                recheck_ms.setdefault((name, p["name"]), []).append(p["time_s"] * 1e3)
            jobs += len(row["props"]) + len(row["rechecks"])
            worker_wall += wall
        pass_rss.append(max(rss))
    # A CTL property's re-check time is the median over passes of its
    # check alone on the warm session, after the whole property file ran.
    # Checked in the file's order instead, a property that comes early pays
    # for fixpoints the later ones reuse, and which one that is depends on
    # the seed.
    verify = {n: median([r["verify_s"] for r in rows[n]]) for n in names}
    recheck = [median(ts) for ts in recheck_ms.values()]
    metrics = {
        "verify_s": sum(verify.values()),
        "setup_s": sum(median([s for r in rows[n] for s in r["setup_s"]]) for n in names),
        "peak_live_nodes": max(r["peak_live"] for n in names for r in rows[n]),
        "peak_rss_mb": median(pass_rss) / 1024.0,
        "recheck_p50_ms": hd_median(recheck),
        "recheck_p99_ms": percentile(recheck, 99),
        "cold_p50_ms": median(verify.values()) * 1e3,
        "jobs_per_s": jobs / worker_wall,
    }
    samples = {
        "elapsed_s": round(time.perf_counter() - start, 3),
        "passes": len(pass_rss),
        "design_runs": sum(len(rows[n]) for n in names),
        "setup_samples": sum(len(r["setup_s"]) for n in names for r in rows[n]),
        "recheck_samples": sum(len(ts) for ts in recheck_ms.values()),
    }
    return metrics, samples


# ---------------------------------------------------------------- serve


# Every daemon started and not yet stopped; the exit path kills them.
DAEMONS = []


class Daemon:
    """An `hsis serve --socket` process and one client connection."""

    def __init__(self, tag, entries, nodes):
        self.sock_path = os.path.join(WORK, "serve-%s.sock" % tag)
        if os.path.exists(self.sock_path):
            os.unlink(self.sock_path)
        self.log = open(os.path.join(WORK, "serve-%s.log" % tag), "wb")
        self.proc = subprocess.Popen(
            [HSIS, "serve", "--socket", self.sock_path,
             "--cache-entries", str(entries), "--cache-nodes", str(nodes)],
            stdin=subprocess.DEVNULL, stdout=self.log, stderr=self.log)
        DAEMONS.append(self)
        self.sock = None
        deadline = time.perf_counter() + 60
        while self.sock is None:
            if self.proc.poll() is not None:
                raise BenchError("hsis serve exited with %d" % self.proc.returncode)
            if time.perf_counter() > deadline:
                self.kill()
                raise BenchError("hsis serve never opened its socket")
            try:
                s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                s.connect(self.sock_path)
                self.sock = s
            except OSError:
                s.close()
                time.sleep(0.0001)
        self.sock.settimeout(170)
        self.reader = self.sock.makefile("rb")
        self.next_id = 0

    def call(self, req):
        self.next_id += 1
        req = dict(req, id=self.next_id)
        t0 = time.perf_counter()
        self.sock.sendall((json.dumps(req) + "\n").encode())
        line = self.reader.readline()
        rt = time.perf_counter() - t0
        if not line:
            raise BenchError("hsis serve closed the connection")
        resp = json.loads(line)
        if resp.get("id") != self.next_id:
            raise BenchError("response id %r for request %d" % (resp.get("id"), self.next_id))
        return resp, rt

    def shutdown(self):
        """Stop the daemon and return its peak RSS in kB."""
        try:
            self.call({"op": "shutdown"})
        except BaseException:
            self.proc.kill()
            raise
        finally:
            self.reader.close()
            self.sock.close()
            _, status, usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.log.close()
            DAEMONS.remove(self)
        if self.proc.returncode != 0:
            raise BenchError("hsis serve exited with %d" % self.proc.returncode)
        return usage.ru_maxrss

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if self.sock is not None:
            self.sock.close()
        self.log.close()
        if self in DAEMONS:
            DAEMONS.remove(self)


def check_request(source, pif, stats=False):
    req = {"op": "check", "design": {"verilog": source}, "pif": pif}
    if stats:
        req["stats"] = True
    return req


def check_serve_response(checker, name, resp, expect_hit, expect_all):
    if resp.get("status") != "ok":
        checker.ok(False, "%s: serve error %s" % (name, resp.get("error")))
        return
    result = resp["result"]
    checker.verdicts(name, result["ctl"] + result["lc"], expect_all=expect_all)
    checker.ok(resp["cache"]["hit"] == expect_hit,
               "%s: cache hit %s, expected %s" % (name, resp["cache"]["hit"], expect_hit))


def serve_setup(designs, checker, tag):
    """Daemon start to the first warm response: spawn, connect, a cold
    one-property check of pingpong, then the same check warm."""
    d = designs["pingpong"]
    prop = sorted(d.ctl)[0]
    t0 = time.perf_counter()
    daemon = Daemon(tag, SERVE_CACHE_ENTRIES, SERVE_CACHE_NODES)
    try:
        resp, _ = daemon.call(check_request(d.verilog, d.one_property_pif(prop)))
        check_serve_response(checker, "pingpong", resp, False, False)
        resp, _ = daemon.call(check_request(d.verilog, d.one_property_pif(prop)))
        check_serve_response(checker, "pingpong", resp, True, False)
    except BaseException:
        daemon.kill()
        raise
    return daemon, time.perf_counter() - t0


def serve_prime(daemon, designs, order, checker, spans, cached=()):
    """Full-property-file check of every design (cold unless [cached]),
    then a warm reach query for its reached-state count.  Returns
    per-design round trips and the largest manager peak among the
    designs."""
    rts, peaks = {}, []
    for name in order:
        d = designs[name]
        t_us = now_us()
        resp, rt = daemon.call(check_request(d.verilog, d.pif(), stats=True))
        spans.append(("serve.prime " + name, t_us, rt))
        check_serve_response(checker, name, resp, name in cached, True)
        rts[name] = rt
        peaks.append(resp["obs"]["arena"]["peak_live"])
        resp, _ = daemon.call({"op": "reach", "design": {"verilog": d.verilog}})
        checker.ok(resp.get("status") == "ok", "%s: reach request failed" % name)
        if resp.get("status") == "ok":
            checker.reached(name, int(resp["result"]["reached_states"]))
    return rts, max(peaks)


def repetitions(seconds, nominal_s):
    """Whole passes (or rounds) to run: as many as fill [seconds] at the
    nominal duration of one on a 2-core x86 host.  Every run of a workload
    thus does the same work, whatever the host's momentary speed."""
    return max(1, round(seconds / nominal_s))


def round_stream(designs, rng):
    """One round of (design, property, is_edit) requests in seeded order."""
    slices = [[] for _ in range(SERVE_SLICES)]

    def deal(reqs):
        rng.shuffle(reqs)
        off = rng.randrange(SERVE_SLICES)
        for i, r in enumerate(reqs):
            slices[(off + i) % SERVE_SLICES].append(r)

    for n in designs:
        deal([(n, p, False) for p in designs[n].ctl for _ in range(SERVE_WARM[n])])
    deal([(n, list(designs[n].ctl)[i % len(designs[n].ctl)], True)
          for n in SERVE_EDITS for i in range(SERVE_EDITS[n])])
    stream = []
    for sl in slices:
        rng.shuffle(sl)
        stream += sl
    return stream


def serve_loop(daemon, designs, rng, seconds, checker, spans, probe):
    """The closed loop: whole rounds of SERVE_WARM + SERVE_EDITS requests,
    each round in a new seeded order.  [probe] runs SERVE_SETUP_PROBES
    times a round between two requests; its time is not the loop's."""
    source = {name: d.verilog for name, d in designs.items()}
    edits = 0
    warm, cold = [], []
    requests = 0
    rounds = repetitions(seconds, SERVE_ROUND_S)
    probe_s = 0.0
    start = time.perf_counter()
    for _ in range(rounds):
        stream = round_stream(designs, rng)
        every = len(stream) // SERVE_SETUP_PROBES
        for i, (name, prop, edit) in enumerate(stream):
            if i % every == every // 2 and i // every < SERVE_SETUP_PROBES:
                t0 = time.perf_counter()
                probe()
                probe_s += time.perf_counter() - t0
            if edit:
                edits += 1
                source[name] = designs[name].verilog + "\n// edit %d\n" % edits
            t_us = now_us()
            resp, rt = daemon.call(check_request(source[name], designs[name].one_property_pif(prop)))
            spans.append(("serve.%s %s/%s" % ("edit" if edit else "recheck", name, prop), t_us, rt))
            check_serve_response(checker, name, resp, not edit, False)
            requests += 1
            (cold if edit else warm).append(rt * 1e3)
    return {
        "warm_ms": warm, "cold_ms": cold, "requests": requests, "rounds": rounds,
        "elapsed_s": time.perf_counter() - start - probe_s,
    }


def serve_workload(designs, seed, seconds, checker):
    rng = random.Random(seed)
    daemon, dt = serve_setup(designs, checker, "main")
    setups = [dt]

    def probe():
        d, dt = serve_setup(designs, checker, "probe")
        d.shutdown()
        setups.append(dt)

    try:
        rts, peak_live = serve_prime(daemon, designs, WORKLOADS["serve-edit"], checker, [],
                                     cached=("pingpong",))
        spans = []
        loop = serve_loop(daemon, designs, rng, seconds, checker, spans, probe)
        stats, _ = daemon.call({"op": "stats"})
        cache = stats["result"]["cache"]
        checker.ok(cache["evictions"] > 0, "serve-edit: the session cache never evicted")
    except BaseException:
        daemon.kill()
        raise
    rss_kb = daemon.shutdown()
    metrics = {
        # From the first request's design source to the last verdict of
        # the stream.  The full checks of the warm-up are single cold
        # samples per design, too noisy to gate on; they are in details.
        "verify_s": loop["elapsed_s"],
        "setup_s": median(setups),
        "peak_live_nodes": peak_live,
        "peak_rss_mb": rss_kb / 1024.0,
        "recheck_p50_ms": median(loop["warm_ms"]),
        "recheck_p99_ms": percentile(loop["warm_ms"], 99),
        "cold_p50_ms": median(loop["cold_ms"]),
        "jobs_per_s": loop["requests"] / loop["elapsed_s"],
    }
    samples = {
        "setup_samples": len(setups),
        "warmup_full_check_s": {n: round(t, 3) for n, t in rts.items()},
        "rounds": loop["rounds"],
        "warm_requests": len(loop["warm_ms"]),
        "edit_requests": len(loop["cold_ms"]),
        "beyond_p99": sum(1 for x in loop["warm_ms"] if x > metrics["recheck_p99_ms"]),
        "warm_p50_ms_by_design": {
            n: round(median([rt * 1e3 for name, _, rt in spans
                             if name.startswith("serve.recheck %s/" % n)]), 3) for n in SERVE_WARM},
        "edit_p50_ms_by_design": {
            n: round(median([rt * 1e3 for name, _, rt in spans
                             if name.startswith("serve.edit %s/" % n)]), 3) for n in SERVE_EDITS},
        "cache": {k: cache[k] for k in ("hits", "misses", "evictions", "entries")},
    }
    return metrics, samples


def serve_layer(names, designs, seed, checker, spans):
    """lib/serve numbers for the traced run, on the workload's own designs:
    per design a cold full check, warm one-property re-checks and one
    edit.  The cache holds one entry per design, so edits evict."""
    rng = random.Random(seed)
    daemon = Daemon("trace", len(names), SERVE_CACHE_NODES)
    warm_rt, warm_job, cold_job, overhead = [], [], [], []
    try:
        for name in names:
            d = designs[name]
            t_us = now_us()
            resp, rt = daemon.call(check_request(d.verilog, d.pif()))
            spans.append(("serve.prime " + name, t_us, rt))
            check_serve_response(checker, name, resp, False, True)
            cold_job.append(resp["elapsed_s"] * 1e3)
            props = sorted(d.ctl)
            rng.shuffle(props)
            for i in range(16):
                prop = props[i % len(props)]
                t_us = now_us()
                resp, rt = daemon.call(check_request(d.verilog, d.one_property_pif(prop)))
                spans.append(("serve.recheck %s/%s" % (name, prop), t_us, rt))
                check_serve_response(checker, name, resp, True, False)
                warm_rt.append(rt * 1e3)
                warm_job.append(resp["elapsed_s"] * 1e3)
                overhead.append((rt - resp["elapsed_s"]) * 1e3)
            prop = props[0]
            t_us = now_us()
            resp, rt = daemon.call(check_request(d.verilog + "\n// edit\n", d.one_property_pif(prop)))
            spans.append(("serve.edit %s/%s" % (name, prop), t_us, rt))
            check_serve_response(checker, name, resp, False, False)
            cold_job.append(resp["elapsed_s"] * 1e3)
        stats, _ = daemon.call({"op": "stats"})
        cache = stats["result"]["cache"]
    except BaseException:
        daemon.kill()
        raise
    daemon.shutdown()
    return {
        "serve.roundtrip_ms": median(warm_rt),
        "serve.job_warm_ms": median(warm_job),
        "serve.job_cold_ms": median(cold_job),
        "serve.overhead_ms": median(overhead),
        "serve.cache_hits": cache["hits"],
        "serve.cache_misses": cache["misses"],
        "serve.cache_evictions": cache["evictions"],
    }


# ---------------------------------------------------------------- traced run


def determinism_key(row):
    """The counts that must repeat exactly between two traced runs."""
    return {
        "peak_live": row["design_man"]["peak_live"],
        "reached": row["reached"],
        "image_steps": row["image_steps"],
        "lookups": [{op: v["hits"] + v["misses"] for op, v in m["ops"].items()} for m in managers(row)],
    }


def managers(row):
    """Counters of the design manager and of each LC product manager."""
    return [row["design_man"]] + row["lc_mans"]


def traced_workload(names, designs, seed, checker):
    rng = random.Random(seed)
    paths = write_inputs(designs, rng)
    trace_dir = os.path.join(WORK, "trace-parts")
    os.makedirs(trace_dir, exist_ok=True)
    events, spans = [], []
    reps = []
    pid = 0
    for rep in range(2):
        rows = {}
        for name in names:
            pid += 1
            part = os.path.join(trace_dir, "%d.json" % pid)
            t_us = now_us()
            row, wall, _ = worker("trace", *paths[name], "--pid", str(pid), "--trace-out", part)
            spans.append(("worker %s (traced run %d)" % (name, rep + 1), t_us, wall))
            with open(part) as f:
                events += json.load(f)
            checker.verdicts(name, row["props"])
            checker.reached(name, int(row["reached"]))
            rows[name] = row
        reps.append(rows)
    for name in names:
        a, b = determinism_key(reps[0][name]), determinism_key(reps[1][name])
        checker.ok(a == b, "%s: deterministic counts differ between traced runs: %s vs %s" % (name, a, b))
    untraced = 0.0
    for name in names:
        row, _, _ = worker("verify", *paths[name])
        check_verify_row(checker, name, row)
        untraced += row["verify_s"]

    def total(key, scale=1.0):
        return sum(median([r[name][key] for r in reps]) for name in names) * scale

    metrics = {
        "verilog.compile_s": total("compile_s"),
        "verilog.blifmv_lines": total("blifmv_lines"),
        "blifmv.flatten_s": total("flatten_s"),
        "blifmv.tables": total("tables"),
        "fsm.relation_s": total("relation_s"),
        "fsm.relation_nodes": total("relation_nodes"),
        "fsm.parts": total("parts"),
        "fsm.image_ms": total("image_s", 1e3),
        "fsm.image_steps": total("image_steps"),
        "fsm.preimage_ms": total("preimage_s", 1e3),
        "check.reach_s": total("reach_s"),
        "check.reach_steps": total("reach_steps"),
        "check.mc_s": total("mc_s"),
        "check.props_s": total("mc_s") + total("lc_s"),
    }
    mans = [m for name in names for m in managers(reps[0][name])]
    for op in BDD_OPS:
        hits = sum(m["ops"][op]["hits"] for m in mans)
        lookups = hits + sum(m["ops"][op]["misses"] for m in mans)
        metrics["bdd.%s.lookups" % op] = lookups
        metrics["bdd.%s.hit_ratio" % op] = hits / lookups
    metrics["bdd.cache_evictions"] = sum(m["evictions"] for m in mans)
    metrics["bdd.peak_live"] = max(m["peak_live"] for m in mans)
    metrics.update(serve_layer(names, designs, seed, checker, spans))

    traced = total("verify_s")
    by_design = {}
    for name in names:
        mans = managers(reps[0][name])
        by_design[name] = {
            "ite_lookups": sum(m["ops"]["ite"]["hits"] + m["ops"]["ite"]["misses"] for m in mans),
            "gc_runs": sum(m["gc_runs"] for m in mans),
            "gc_s": sum(m["gc_s"] for m in mans),
            "reorder_runs": sum(m["reorder_runs"] for m in mans),
            "lc_s": median([r[name]["lc_s"] for r in reps]),
        }
    extra = {
        "traced_verify_s": traced,
        "untraced_verify_s": untraced,
        "tracing_overhead_s": traced - untraced,
        "by_design": by_design,
    }
    for name, t_us, dur in spans:
        events.append({"name": name, "cat": "run.py", "ph": "X", "ts": round(t_us),
                       "dur": round(dur * 1e6), "pid": 0, "tid": 1})
    events.append({"name": "process_name", "ph": "M", "pid": 0, "args": {"name": "run.py"}})
    return metrics, extra, events


# ---------------------------------------------------------------- main


def source_revision():
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    h = hashlib.sha256()
    for top in ("lib", "bin", BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for fn in sorted(filenames):
                p = os.path.join(dirpath, fn)
                h.update(p.encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    p = subprocess.run(["dune", "build", "--root", ".", "./bin/hsis_cli.exe", "./%s/hbench.exe" % BENCH_DIR],
                       stdin=subprocess.DEVNULL, capture_output=True, text=True, env=env)
    if p.returncode != 0:
        raise BenchError("dune build failed:\n" + p.stderr[-4000:])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for need in ("dune-project", "lib", os.path.join("bin", "hsis_cli.ml"),
                 os.path.join(BENCH_DIR, "expected.json"), "BENCHMARK.json"):
        if not os.path.exists(need):
            log("run.py: %s not found; run from the root of an HSIS source checkout" % need)
            return 2
    os.makedirs(WORK, exist_ok=True)
    build()
    version, _, _ = run_child([HBENCH, "version"], "version")
    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "host_cores": os.cpu_count(), "revision": source_revision(),
        "ocaml": json.loads(version)["ocaml"],
    }
    names = WORKLOADS[args.workload]
    designs = {n: Design(n) for n in names}
    checker = Checker()
    if args.trace:
        metrics, details, events = traced_workload(names, designs, args.seed, checker)
        trace_path = os.path.join(WORK, args.workload, "trace.json")
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        other = dict(stamp, **{k: v for k, v in details.items() if k != "by_design"})
        with open(trace_path, "w") as f:
            json.dump({"traceEvents": events, "otherData": other}, f)
        details["trace_file"] = trace_path
    elif args.workload == "serve-edit":
        metrics, details = serve_workload(designs, args.seed, args.seconds, checker)
    else:
        metrics, details = verify_workload(names, designs, args.seed, args.seconds,
                                           PASS_S[args.workload], checker)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    missing = [m for m in wanted if m not in metrics]
    if missing:
        raise BenchError("metrics not measured: %s" % missing)
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in wanted},
    }
    record = dict(stamp, details=details, problems=checker.problems, result=result)
    os.makedirs(os.path.join(WORK, args.workload), exist_ok=True)
    with open(os.path.join(WORK, args.workload, "last-run.json"), "w") as f:
        json.dump(record, f, indent=1)
    for p in checker.problems:
        log("FAILED CHECK: " + p)
    log(json.dumps({k: v for k, v in record.items() if k != "result"}, indent=None))
    for m in wanted:
        log("  %-24s %14.6g %s" % (m, metrics[m], units[m]))
    print("# stamp " + json.dumps(stamp))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    # Turn SIGTERM into an exception, so the handlers above stop the
    # daemon and worker processes before exiting.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except BenchError as e:
        log("run.py: " + str(e))
        sys.exit(1)
    finally:
        for d in list(DAEMONS):
            d.kill()
