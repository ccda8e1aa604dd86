#!/usr/bin/env python3
"""WaveMin end-to-end benchmark.

    python3 wavebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the release `wavemin` binary and the benchmark's own helper
(`wavebench-tool`, see Cargo.toml here), generates the workload's inputs
from the seed, runs the program on them for about `--seconds` seconds,
checks every output, prints every metric with its unit, and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones; with --trace 1 a separate traced run
gives the per-layer ones. README.md here documents workloads and metrics.

The judged timings are CPU seconds of the program's processes: this
kernel leaves the time a shared host gives to other guests out of a
process's CPU time, while wall clock counts it. Wall-clock figures
(pass wall, job latencies, throughput) are printed beside them.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from stats import describe_tail, median, share, tail  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_oneshot", "multimode_paper", "scale_stream", "serve_eco")
BATCH = ("paper_oneshot", "multimode_paper", "scale_stream")
# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 7
# Batch input generation takes 35-45 CPU-ms on paper_oneshot, and single
# samples vary with the host's load, so it is also repeated until it has
# used this much CPU time (seconds).
SETUP_MIN_S = 1.0
# Each batch input is validated this many times per pass (load_ms_p50).
LOAD_REPEATS = 24
# Every third serve_eco job is a repeat solve with no edit.
SERVE_ROUND_JOBS = 3
PEAK_RE = re.compile(r"peak ([0-9.]+) mA -> ([0-9.]+) mA")

# Metric names and units, as BENCHMARK.json at the repository root lists them.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
# Wall-clock figures printed with every untraced run but not in its JSON:
# on a shared host they spread more between runs than any bound allows.
WALL_CLOCK = {"wall_s": "s", "job_ms_p50": "ms", "job_ms_tail": "ms",
              "jobs_per_s": "1/s", "load_ms_p50": "ms"}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
# Span names of the traced pass whose self time is a per-layer `_s` metric.
LAYER_SPANS = [m[:-2] for m, unit in PER_LAYER.items() if unit == "s"]


def log(msg):
    print(msg, flush=True)


class Failures:
    """Counts attempted and failed operations; prints each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.lock = threading.Lock()

    def record(self, what, problems):
        with self.lock:
            self.attempted += 1
            if problems:
                self.failed += 1
                for p in problems:
                    log(f"FAILED {what}: {p}")


# ---------------------------------------------------------------- build

def build():
    """Builds both binaries; returns (wavemin, wavebench-tool) paths."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "--bin", "wavemin"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", str(HERE / "Cargo.toml")],
    ):
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=sys.stderr)
    return target / "release" / "wavemin", target / "release" / "wavebench-tool"


def run_record(args):
    """nproc, commit, seed and build profile of this run."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    digest = hashlib.sha256()
    sources = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "vendor"):
        sources += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for p in sources:
        digest.update(str(p.relative_to(ROOT)).encode())
        digest.update(p.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "profile": "release",
    }


# ---------------------------------------------------------------- processes

def run_measured(cmd):
    """Runs `cmd` to completion; returns (exit code, stderr, wall s,
    CPU s (user + system), max RSS MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, err, time.perf_counter() - start,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def cpu_seconds(pid):
    """CPU seconds (user + system, of all its threads, ended ones too) a
    live process has used: Linux's per-process CPU clock, whose id is
    made from the pid as glibc's clock_getcpuclockid makes it."""
    return time.clock_gettime((~pid << 3) | 2)


def tool(exe, *args, stdin=None):
    out = subprocess.run([str(exe), *map(str, args)], input=stdin,
                         capture_output=True, text=True)
    if out.returncode:
        raise RuntimeError(f"wavebench-tool {args[0]} failed: {out.stderr.strip()}")
    return json.loads(out.stdout)


def generate(exe, args, inputs, repeats=1, min_seconds=0.0):
    """The workload's manifest for the seed; see `wavebench-tool gen`."""
    return tool(exe, "gen", args.workload, args.seed, inputs, repeats, min_seconds)


# ---------------------------------------------------------------- batch

def validate_ms(wavemin, design, kappa, loads, calls):
    """Sends `design`'s input `calls` times through the batch read path,
    `wavemin validate`, appending each call's milliseconds to `loads`."""
    power = ["--power", design["power"]] if "power" in design else []
    for _ in range(calls):
        start = time.perf_counter()
        subprocess.run([str(wavemin), "validate", "-i", design["clk"], *power,
                        "--kappa", str(kappa)], check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        loads.append(1000 * (time.perf_counter() - start))


def batch_pass(wavemin, designs, flags, kappa, out_dir, fails, samples, loads):
    """One pass over `designs`; returns its wall (the sum of the `optimize`
    process walls) and per-design results, and appends each process's
    wall, CPU time and peak RSS to `samples[circuit]`. Each design's input
    is validated LOAD_REPEATS times, half before its `optimize` and half
    after: the host's speed for these short calls shifts from second to
    second, and calls spread over the pass meet it in more states."""
    wall, results = 0.0, []
    for d in designs:
        validate_ms(wavemin, d, kappa, loads, (LOAD_REPEATS + 1) // 2)
        out = out_dir / f"{d['name']}.clk"
        power = ["--power", d["power"]] if "power" in d else []
        code, err, seconds, cpu, mb = run_measured(
            [str(wavemin), "optimize", "-i", d["clk"], *power, *flags,
             "-o", str(out)])
        wall += seconds
        circuit = samples.setdefault(
            d["circuit"], {"wall": [], "cpu": [], "rss": [], "ratio": []})
        circuit["wall"].append(seconds)
        circuit["cpu"].append(cpu)
        circuit["rss"].append(mb)
        validate_ms(wavemin, d, kappa, loads, LOAD_REPEATS // 2)
        peaks = PEAK_RE.search(err)
        if code or not peaks:
            fails.record(d["name"], [f"exit {code}: {err.strip()[-300:]}"])
            continue
        results.append((d, out, float(peaks.group(1)), float(peaks.group(2))))
    return wall, results


def check_pass(exe, results, kappa, fails, seen):
    """Checks a pass's outputs. An output byte-identical to one already
    checked for the same design and reported peaks gets the same verdict."""
    verdicts, pending = {}, []
    for d, out, before, after in results:
        key = (d["name"], out.read_bytes(), before, after)
        if key in seen:
            verdicts[d["name"]] = seen[key]
        else:
            pending.append((key, "\t".join([
                d["name"], d["clk"], str(out), d.get("power", "-"),
                repr(before), repr(after), repr(kappa)])))
    if pending:
        for (key, _), v in zip(pending, tool(exe, "check", stdin="\n".join(
                line for _, line in pending))):
            seen[key] = verdicts[v["name"]] = v
    for d, _, _, _ in results:
        v = verdicts[d["name"]]
        fails.record(d["name"], v["failures"])
    return [verdicts[d["name"]] for d, _, _, _ in results]


def tree_sets(manifest):
    """The designs grouped by tree set; pass p runs set p mod len(sets)."""
    sets = {}
    for d in manifest["designs"]:
        sets.setdefault(d["variant"], []).append(d)
    return [sets[k] for k in sorted(sets)]


def run_batch(args, wavemin, exe, work):
    inputs, outputs = work / "in", work / "out"
    outputs.mkdir(parents=True)
    # Synthesis and file writes are timed inside wavebench-tool (CPU
    # time), so the figure holds no process start.
    manifest = generate(exe, args, inputs, SETUP_REPEATS, SETUP_MIN_S)
    kappa = manifest["kappa_ps"]
    sets = tree_sets(manifest)
    fails, seen = Failures(), {}
    walls, loads, verdicts, samples = [], [], [], {}
    start = time.perf_counter()
    # Whole cycles over the tree sets only, at least one: every run of a
    # seed measures the same designs, however fast the program runs.
    while True:
        cycle_start = time.perf_counter()
        for designs in sets:
            wall, results = batch_pass(wavemin, designs, manifest["optimize_flags"],
                                       kappa, outputs, fails, samples, loads)
            walls.append(wall)
            for v, (d, _, _, _) in zip(check_pass(exe, results, kappa, fails, seen),
                                       results):
                verdicts.append(v)
                samples[d["circuit"]]["ratio"].append(
                    100 * v["peak_after_ma"] / v["peak_before_ma"])
        now = time.perf_counter()
        if now - start + (now - cycle_start) > args.seconds:
            break
    for v in verdicts[: len(sets[0])]:
        log(f"  {v['name']}: peak {v['peak_before_ma']:.3f} -> "
            f"{v['peak_after_ma']:.3f} mA, skew {v['skew_ps']:.2f} ps, "
            f"{v['sinks_changed']} sinks reassigned")
    # The per-design figures take each circuit's median over the run's
    # trees first: one costly tree, or a host stall during one process,
    # does not move them. A batch job is one pass over a tree set.
    ratios = [median(c["ratio"]) for c in samples.values() if c["ratio"]]
    identity = [v["sinks_changed"] == 0 for v in verdicts]
    metrics = {
        "cpu_s": sum(median(c["cpu"]) for c in samples.values()),
        "wall_s": sum(median(c["wall"]) for c in samples.values()),
        "setup_s": median(manifest["setup_s"]),
        "peak_rss_mb": max(median(c["rss"]) for c in samples.values()),
        "peak_after_pct": sum(ratios) / len(ratios) if ratios else 100.0,
        "job_ms_p50": 1000 * median(walls),
        "job_ms_tail": 1000 * tail(walls)[1],
        "jobs_per_s": len(walls) / sum(walls),
        "load_ms_p50": median(loads),
    }
    log(f"passes: {len(walls)} over {len(sets)} tree set(s), pass walls (s): "
        + ", ".join(f"{w:.3f}" for w in walls))
    log(f"job_ms_tail: {describe_tail([1000 * w for w in walls], 'ms')}")
    log(f"peak_reduction_pct: {100 - metrics['peak_after_pct']:.4f} %")
    log(f"identity_share: {share(sum(identity), len(identity)):.4f} "
        f"({sum(identity)} of {len(identity)} outputs unchanged)")
    return metrics, fails


# ---------------------------------------------------------------- serve

class Daemon:
    """A `wavemin serve` process on a private socket, started with the
    manifest's flags; its sessions use the manifest's skew bound. Always
    stopped: `shutdown` first, then a kill if it has not exited in time."""

    def __init__(self, wavemin, work, index, manifest):
        self.kappa = manifest["kappa_ps"]
        self.sock = str((work / f"d{index}.sock").relative_to(ROOT))
        self.stderr = open(work / f"daemon{index}.log", "w")
        self.proc = subprocess.Popen(
            [str(wavemin), "serve", "--socket", self.sock, *manifest["daemon_flags"]],
            stdout=subprocess.DEVNULL, stderr=self.stderr)
        self.max_rss_mb = 0.0
        deadline = time.monotonic() + 30
        while True:
            try:
                if self.request({"cmd": "ping"}).get("pong"):
                    return
            except OSError:
                pass
            if self.reap(0) or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("daemon did not answer ping")
            time.sleep(0.005)

    def connect(self):
        conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        conn.settimeout(120)
        conn.connect(self.sock)
        return conn, conn.makefile("r")

    def request(self, req, conn=None):
        own = conn is None
        if own:
            conn = self.connect()
        try:
            sock, reader = conn
            sock.sendall((json.dumps(req) + "\n").encode())
            while True:
                line = reader.readline()
                if not line:
                    raise OSError("daemon closed the connection")
                reply = json.loads(line)
                if "progress" not in reply:
                    return reply
        finally:
            if own:
                conn[1].close()
                conn[0].close()

    def load(self, design, edit=None, conn=None):
        """Loads (or reloads, with one ECO `edit`) `design`'s session."""
        req = {"cmd": "load", "session": design["name"], "sdf": design["sdf"],
               "skew_bound_ps": self.kappa}
        if edit:
            req["edits"] = [edit]
        return self.request(req, conn)

    def reap(self, timeout):
        """Waits up to `timeout` s for the exit; keeps its peak RSS."""
        deadline = time.monotonic() + timeout
        while self.proc.returncode is None:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                self.max_rss_mb = usage.ru_maxrss / 1024
            elif time.monotonic() > deadline:
                return False
            else:
                time.sleep(0.01)
        return True

    def stop(self):
        if self.proc.returncode is None:
            try:
                self.request({"cmd": "shutdown"})
            except OSError:
                pass
            if not self.reap(15):
                self.proc.kill()
                self.reap(15)
        self.stderr.close()


def start_serving(wavemin, work, manifest, index):
    """Daemon start plus the first load of every session."""
    daemon = Daemon(wavemin, work, index, manifest)
    try:
        for d in manifest["designs"]:
            reply = daemon.load(d)
            if not reply.get("ok") or reply.get("eco_hint") != d["eco_hint"]:
                raise RuntimeError(f"first load of {d['name']} failed: {reply}")
    except BaseException:
        daemon.stop()
        raise
    return daemon


def clients_of(manifest):
    """The sessions of each client: one client per circuit."""
    by_circuit = {}
    for d in manifest["designs"]:
        by_circuit.setdefault(d["circuit"], []).append(d)
    return list(by_circuit.values())


def solve_checked(daemon, conn, name, fails, what):
    reply = daemon.request({"cmd": "solve", "session": name}, conn)
    problems = []
    if not reply.get("ok"):
        problems.append(str(reply))
    else:
        if reply["skew_after_ps"] > daemon.kappa:
            problems.append(f"skew {reply['skew_after_ps']} ps exceeds {daemon.kappa}")
        if reply["peak_after_ma"] > reply["peak_before_ma"]:
            problems.append("peak after exceeds peak before")
    fails.record(f"{name} {what}", problems)
    return reply if not problems else None


def client(daemon, sessions, rounds, start_line, fails, out, trace):
    """One closed-loop client. Its first solve of each session is cold and
    stays out of the window. Then, once every client is ready, `rounds`
    rounds on its sessions in turn: ECO load + solve, twice, then a
    repeat solve with no edit."""
    conn = daemon.connect()
    try:
        for d in sessions:
            solve_checked(daemon, conn, d["name"], fails, "first solve")
        start_line.wait()
        loads = {d["name"]: 0 for d in sessions}
        job = 0
        round_start = time.perf_counter()
        while job < rounds * SERVE_ROUND_JOBS:
            d = sessions[job // SERVE_ROUND_JOBS % len(sessions)]
            name = d["name"]
            repeat = job % SERVE_ROUND_JOBS == SERVE_ROUND_JOBS - 1
            if not repeat:
                edit = d["edits"][loads[name] % len(d["edits"])]
                loads[name] += 1
                t = time.perf_counter()
                reply = daemon.load(d, edit, conn)
                out["loads"].append(1000 * (time.perf_counter() - t))
                fails.record(f"{name} load", [] if reply.get("ok") else [str(reply)])
                out["last"] = (d, edit, None)
            t = time.perf_counter()
            reply = solve_checked(daemon, conn, name, fails, "solve")
            ms = 1000 * (time.perf_counter() - t)
            if reply:
                out["solves"].append(ms)
                out["replies"].append(reply)
                out["ratios"].append(100 * reply["peak_after_ma"] / reply["peak_before_ma"])
                bits = reply["peak_after_bits"]
                if repeat:
                    fails.record(f"{name} repeat solve",
                                 [] if bits == out["last"][2] else
                                 ["repeat solve changed peak_after_bits"])
                out["last"] = out["last"][:2] + (bits,)
            if trace:
                stats = daemon.request({"cmd": "stats", "session": name}, conn)
                out["depths"].append(stats.get("queue_depth", 0))
            job += 1
            if job % SERVE_ROUND_JOBS == 0:
                now = time.perf_counter()
                out["rounds"].append(now - round_start)
                round_start = now
    finally:
        start_line.abort()
        conn[1].close()
        conn[0].close()


def serve_window(daemon, manifest, seconds, fails, trace):
    """All clients, each for the rounds its circuit makes in about
    `seconds` (the manifest's rate); returns each client's samples, the
    window's length and the daemon's CPU seconds in it."""
    groups = clients_of(manifest)
    outs = [{"loads": [], "solves": [], "replies": [], "ratios": [],
             "rounds": [], "depths": [], "last": None} for _ in groups]
    # The main thread passes the start line too, to time the window.
    start_line = threading.Barrier(len(groups) + 1)
    errors = []

    def guarded(*a):
        try:
            client(*a)
        except Exception as e:  # surfaced below, after every client ended
            errors.append(e)

    rates = manifest["serve_rounds_per_s"]
    threads = [threading.Thread(target=guarded, args=(
        daemon, sessions, math.ceil(seconds * rates[sessions[0]["circuit"]]),
        start_line, fails, o, trace))
        for sessions, o in zip(groups, outs)]
    for t in threads:
        t.start()
    try:
        start_line.wait()
    except threading.BrokenBarrierError:
        pass
    start, cpu_start = time.perf_counter(), cpu_seconds(daemon.proc.pid)
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return (outs, time.perf_counter() - start,
            cpu_seconds(daemon.proc.pid) - cpu_start)


def merged(outs, key):
    return [x for o in outs for x in o[key]]


def per_client(outs, key, stat):
    """`stat` of each client's own samples, averaged over the clients. The
    clients' circuits differ several-fold in solve cost, so pooled order
    statistics would fall between two clusters and swing with their mix."""
    return sum(stat(o[key]) for o in outs) / len(outs)


def serve_metrics(outs, window_s, window_cpu_s):
    rounds = len(merged(outs, "solves")) / SERVE_ROUND_JOBS
    return {
        "cpu_s": window_cpu_s / rounds,
        "wall_s": per_client(outs, "rounds", median),
        "peak_after_pct": sum(merged(outs, "ratios")) / len(merged(outs, "ratios")),
        "job_ms_p50": per_client(outs, "solves", median),
        "job_ms_tail": per_client(outs, "solves", lambda v: tail(v)[1]),
        "jobs_per_s": len(merged(outs, "solves")) / window_s,
        "load_ms_p50": per_client(outs, "loads", median),
    }


def check_against_fresh_solve(exe, outs, fails):
    """Each client's last solve must equal, bit for bit, a fresh in-process
    solve of the same edited design with no zone cache."""
    for o in outs:
        if not o["last"] or o["last"][2] is None:
            continue
        d, edit, bits = o["last"]
        ref = tool(exe, "ref-solve", d["sdf"], edit["node"], repr(edit["delay_trim_ps"]))
        fails.record(f"{d['name']} fresh-solve check",
                     [] if ref["peak_after_bits"] == bits else
                     [f"cached solve {bits} != fresh solve {ref['peak_after_bits']}"])


def run_serve(args, wavemin, exe, work, trace=False):
    manifest = generate(exe, args, work / "in")
    daemons, setup_times, setup_rss = [], [], []
    fails = Failures()
    try:
        # Set-up is daemon start plus the first load of every session, as
        # the daemon's CPU time. Each repeat stops the previous daemon
        # first and keeps its peak RSS; the last one serves the window.
        for index in range(SETUP_REPEATS):
            if daemons:
                daemons[-1].stop()
                setup_rss.append(daemons.pop().max_rss_mb)
            daemons.append(start_serving(wavemin, work, manifest, index))
            setup_times.append(cpu_seconds(daemons[-1].proc.pid))
        daemon = daemons[0]
        outs, window_s, window_cpu_s = serve_window(
            daemon, manifest, args.seconds, fails, trace)
        stats = [daemon.request({"cmd": "stats", "session": d["name"]})
                 for d in manifest["designs"]]
    finally:
        for daemon in daemons:
            daemon.stop()
    check_against_fresh_solve(exe, outs, fails)
    if not all(o["rounds"] for o in outs):
        raise RuntimeError("a client completed no round in the window")
    metrics = dict(serve_metrics(outs, window_s, window_cpu_s),
                   setup_s=median(setup_times),
                   peak_rss_mb=median(setup_rss))
    replies = merged(outs, "replies")
    identity = sum(r["peak_after_ma"] == r["peak_before_ma"] for r in replies)
    for sessions, o in zip(clients_of(manifest), outs):
        log(f"  {sessions[0]['circuit']} ({len(sessions)} sessions): "
            f"{len(o['solves'])} solves, {len(o['loads'])} ECO loads, "
            f"solve p50 {median(o['solves']):.1f} ms, "
            f"tail {describe_tail(o['solves'], 'ms')}")
    # The window daemon's peak lands at one of two levels about 20 MB
    # apart from run to run, even for one seed, so it is shown, not judged.
    log(f"window daemon peak RSS: {daemons[0].max_rss_mb:.6g} MB (not judged)")
    log(f"peak_reduction_pct: {100 - metrics['peak_after_pct']:.4f} %")
    log(f"identity_share: {share(identity, len(replies)):.4f} "
        f"({identity} of {len(replies)} solves unchanged)")
    return metrics, fails, manifest, outs, stats


# ---------------------------------------------------------------- trace

def self_times(trace):
    """Per-span-name self time (duration minus the children's durations),
    over all spans and over the traced pass's: the spans under a root
    `design` span. The probes after the pass have roots of their own."""
    spans = trace["spans"]
    child = [0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end_ns"] - s["start_ns"]

    def root(i):
        while spans[i]["parent"] is not None:
            i = spans[i]["parent"]
        return i

    inside, out = {}, {}
    for i, (s, c) in enumerate(zip(spans, child)):
        own = (s["end_ns"] - s["start_ns"] - c) / 1e9
        out[s["name"]] = out.get(s["name"], 0) + own
        if spans[root(i)]["name"] == "design":
            inside[s["name"]] = inside.get(s["name"], 0) + own
    return out, inside


def layer_metrics(trace):
    c = trace["counts"]
    selfs, inside = self_times(trace)
    m = {f"{name}_s": selfs.get(name, 0.0) for name in LAYER_SPANS}
    for name in ("noise_table.sink_options", "intervals.count", "algo.zone_solves",
                 "algo.intervals_tried", "mosp.labels_created", "mosp.labels_pruned",
                 "mosp.dominance_checks", "multimode.intersections",
                 "multimode.adb_count", "multimode.adi_count"):
        m[name] = c.get(name, 0.0)
    checks, skipped = c.get("mosp.dominance_checks", 0), c.get("mosp.dominance_skipped", 0)
    m["mosp.dominance_skip_share"] = share(skipped, checks + skipped)
    m["mosp.pareto_share"] = share(c.get("mosp.pareto_paths", 0),
                                   c.get("mosp.labels_created", 0))
    arcs = c.get("mosp.arena_arcs", 0)
    m["mosp.intern_hit_share"] = share(arcs - c.get("mosp.arena_unique_weights", 0), arcs)
    m["parallel.speedup_2t"] = share(trace["solve_1t_s"], trace["solve_2t_s"])
    attributed = sum(inside.get(name, 0.0) for name in LAYER_SPANS)
    m["trace.unattributed_share"] = 1 - attributed / trace["wall_s"]
    m["trace.overhead_pct"] = 100 * (trace["wall_s"] / trace["untraced_wall_s"] - 1)
    return m


# Layers off a workload's program path: metric prefix -> (workloads, why).
UNAVAILABLE = {
    "session.new_s": (("scale_stream", "multimode_paper"),
                      "the workload's program path builds no session"),
    "algo.solve_s": (("multimode_paper",),
                     "the multimode engine solves; see multimode.run_s"),
    "multimode.": (("scale_stream", "serve_eco"),
                   "the multimode engine does not run on this workload"),
    "checkpoint.": (("paper_oneshot", "multimode_paper", "scale_stream"),
                    "no zone cache: one-shot runs keep nothing between jobs"),
    "serve.": (("paper_oneshot", "multimode_paper", "scale_stream"),
               "no daemon on this workload"),
}


def run_trace(args, wavemin, exe, work):
    """The traced run: wavebench-tool's pass over the first tree of each
    circuit, untraced and then traced, with its outputs checked; on
    serve_eco first a closed loop whose clients also poll `stats` after
    every job."""
    metrics = {}
    traced_dir = work / "traced"
    traced_dir.mkdir(parents=True)
    if args.workload in BATCH:
        fails = Failures()
        inputs = work / "in"
        manifest = generate(exe, args, inputs)
    else:
        _, fails, manifest, outs, stats = run_serve(args, wavemin, exe, work, trace=True)
        inputs = work / "in"
        replies = merged(outs, "replies")
        reused = sum(r["zones_reused"] for r in replies)
        hits, misses = sum(s["hits"] for s in stats), sum(s["misses"] for s in stats)
        metrics.update({
            "checkpoint.reuse_share": share(
                reused, reused + sum(r["zone_solves"] for r in replies)),
            "checkpoint.cache_hit_share": share(hits, hits + misses),
            "checkpoint.cache_bytes": sum(s["bytes"] for s in stats),
            "checkpoint.evictions": sum(s["evictions"] for s in stats),
            "serve.queue_wait_ms_p50": median(
                [ms - r["runtime_ms"] for ms, r in
                 zip(merged(outs, "solves"), replies)]),
            "serve.queue_depth_max": max(merged(outs, "depths"), default=0),
            "serve.jobs_failed": max(s["jobs_failed"] for s in stats),
        })
    trace = tool(exe, "trace", args.workload, args.seed, inputs, traced_dir)
    passed = [d for d in manifest["designs"] if d["name"] in trace["peaks_ma"]]
    check_pass(exe, [(d, traced_dir / f"{d['name']}.clk", *trace["peaks_ma"][d["name"]])
                     for d in passed], manifest["kappa_ps"], fails, {})
    metrics.update(layer_metrics(trace))
    log(f"harness pass: traced {trace['wall_s']:.3f} s, "
        f"untraced {trace['untraced_wall_s']:.3f} s")
    for name in PER_LAYER:
        for prefix, (workloads, why) in UNAVAILABLE.items():
            if name.startswith(prefix) and args.workload in workloads:
                log(f"unavailable: {name} on {args.workload} ({why}); 0 reported")
    return {name: metrics.get(name, 0.0) for name in PER_LAYER}, fails


# ---------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # A SIGTERM (say, a timeout) unwinds like an error, so the daemon is
    # still shut down or killed and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.chdir(ROOT)
    wavemin, exe = build()
    log("record " + json.dumps(run_record(args)))
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            metrics, fails = run_trace(args, wavemin, exe, work)
            units = PER_LAYER
        else:
            if args.workload in BATCH:
                metrics, fails = run_batch(args, wavemin, exe, work)
            else:
                metrics, fails, *_ = run_serve(args, wavemin, exe, work)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    log(f"failed_share: {share(fails.failed, fails.attempted):.4f} "
        f"({fails.failed} of {fails.attempted} operations)")
    if not args.trace:
        for name, unit in WALL_CLOCK.items():
            log(f"{name}: {metrics[name]:.6g} {unit} (wall clock, not judged)")
    for name, unit in units.items():
        log(f"{name}: {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": fails.failed == 0,
        "attempted": fails.attempted,
        "failed": fails.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
