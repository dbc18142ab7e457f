#!/usr/bin/env python3
"""perfbench: the spec -> report ledger for netsmith (see README.md).

    python3 perfbench/run.py --workload paper48|scale256|serve_mixed \
        --seed N --seconds S --trace 0|1

Builds the library, netsmith_run, netsmith_serve and perfbench_driver from
the checkout (Release, into .bench_build/), generates the workload's inputs
from --seed, measures for about --seconds, checks every output, and prints
one JSON object as the last line of stdout:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ledger. Progress and the thread widths go to stderr and to an
info line on stdout before the result.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "runs"
DIGESTS = ROOT / ".bench_build" / "digests"

# Thread budget (4 cores): batch studies run a 2-wide pool whose sweeps each
# open a 2-wide OpenMP team; the daemon runs a 2-wide pool with 1-wide
# OpenMP and is driven by 2 client connections; the serve warm-up runs
# netsmith_run 4-wide with 1-wide OpenMP. OpenMP width is a report input
# (omp_threads, sweep cache keys), so it is pinned for every process.
BATCH_POOL, BATCH_OMP = 2, 2
SERVE_POOL, SERVE_OMP, SERVE_CLIENTS = 2, 1, 2
WARMUP_POOL = 4
# In-memory LRU of the daemon, MiB: below the warm working set (two paper48
# plan seeds, about 0.85 MiB of artifacts each, plus smoke), so requests
# hit both the memory and the disk tier.
SERVE_LRU_MB = 1
# serve_mixed request mix, in percent: warm repeats of paper48 at two plan
# seeds, warm smoke repeats, and smoke requests with a fresh sim_seed (the
# topologies and plans hit, the sweeps miss and are simulated and stored).
MIX = (("paper48a", 20), ("paper48b", 20), ("smoke", 45), ("fresh", 15))
QUALITY_ITERS = 3  # batch sub-seeds the synth_* metrics average over

# BENCHMARK.json is the single list of metric names and units.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) \
    if (ROOT / "BENCHMARK.json").is_file() else None
LAYERS = ["api", "core", "topo", "routing", "vc", "sim", "power", "serve"]


class CheckFailed(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def check(cond, msg):
    if not cond:
        raise CheckFailed(msg)


# ------------------------------------------------------------- inputs ---

def subseed_rng(workload, seed, i):
    return random.Random(f"perfbench:{workload}:{seed}:{i}")


def paper48_spec(rng):
    """Fig. 11 point: the 48-router catalog + parametric baselines, plus one
    move-budgeted NS-LatOp medium 6x8 synthesis."""
    return {
        "schema_version": 1,
        "name": "paper48",
        "topologies": [
            {"source": "catalog", "catalog_routers": 48,
             "include_baselines": True},
            {"source": "synthesize", "name": "NS-LatOp-synth-medium-48",
             "rows": 6, "cols": 8, "link_class": "medium",
             "objectives": ["latop"], "radix": 4, "restarts": 1,
             "max_moves": 4000, "time_limit_s": 600,
             "synth_seed": rng.randrange(1, 1 << 31)},
        ],
        "routing": "auto",
        "num_vcs": 6,
        "max_paths_per_flow": 24,
        "seeds": [rng.randrange(1, 1 << 31)],
        "analytic": True,
        "traffic": [{"kind": "coherence"}],
        "sweep": {"points": 8, "adaptive": True,
                  "sim_seed": rng.randrange(1, 1 << 31)},
        "power": {"enabled": True, "flits_per_node_cycle": 0.25},
    }


def scale256_spec(rng):
    """n = 256 point, the `fig_scale --smoke --n 256` shape with 8 VCs: with
    6, about one synthesized graph in ten needs a 7th VC layer and its plan
    job fails."""
    return {
        "schema_version": 1,
        "name": "scale256",
        "topologies": [
            {"source": "synthesize", "rows": 16, "cols": 16,
             "link_class": "medium", "objectives": ["latop"], "radix": 4,
             "restarts": 1, "max_moves": 3000, "landmark_sources": 64,
             "time_limit_s": 600, "synth_seed": rng.randrange(1, 1 << 31)},
        ],
        "routing": "auto",
        "num_vcs": 8,
        "max_paths_per_flow": 4,
        "seeds": [rng.randrange(1, 1 << 31)],
        "analytic": True,
        "traffic": [{"kind": "coherence"}],
        "sweep": {"points": 3, "warmup": 300, "measure": 800, "drain": 3000,
                  "sim_seed": rng.randrange(1, 1 << 31)},
    }


def smoke_spec(sim_seed):
    """The specs/smoke.json shape: three tiny topologies, one sweep each."""
    return {
        "schema_version": 1,
        "name": "smoke",
        "topologies": [
            {"source": "baseline", "baseline": "mesh:rows=3,cols=4"},
            {"source": "explicit", "name": "ring-2x4",
             "adjacency": "8:0>1,1>0,1>2,2>1,2>3,3>2,3>7,7>3,7>6,6>7,6>5,"
                          "5>6,5>4,4>5,4>0,0>4",
             "rows": 2, "cols": 4, "link_class": "small"},
            {"source": "synthesize", "name": "synth-2x4", "rows": 2,
             "cols": 4, "link_class": "small", "objectives": ["latop"],
             "restarts": 1, "max_moves": 3000, "synth_seed": 7},
        ],
        "routing": "auto",
        "num_vcs": 6,
        "seeds": [7],
        "analytic": True,
        "traffic": [{"kind": "coherence"}],
        "sweep": {"points": 4, "warmup": 300, "measure": 800, "drain": 3000,
                  "sim_seed": sim_seed},
        "power": {"enabled": True, "flits_per_node_cycle": 0.25},
    }


class ServeSequence:
    """The serve_mixed request stream, generated from the seed on demand."""

    def __init__(self, seed):
        rng = random.Random(f"perfbench:serve_mixed:{seed}")
        a = paper48_spec(rng)
        b = json.loads(json.dumps(a))
        b["seeds"] = [rng.randrange(1, 1 << 31)]
        b["sweep"]["sim_seed"] = rng.randrange(1, 1 << 31)
        self.warm = {"paper48a": a, "paper48b": b,
                     "smoke": smoke_spec(rng.randrange(1, 1 << 31))}
        self._rng = random.Random(f"perfbench:serve_mixed:{seed}:stream")
        self._used = {self.warm["smoke"]["sweep"]["sim_seed"]}
        self.kinds, self.lines = [], []

    def get(self, i):
        while len(self.lines) <= i:
            r = self._rng.randrange(100)
            kind = MIX[-1][0]
            for name, pct in MIX:
                if r < pct:
                    kind = name
                    break
                r -= pct
            if kind in self.warm:
                spec = self.warm[kind]
            else:
                sim_seed = self._rng.randrange(1, 1 << 31)
                while sim_seed in self._used:
                    sim_seed = self._rng.randrange(1, 1 << 31)
                self._used.add(sim_seed)
                spec = smoke_spec(sim_seed)
            self.kinds.append(kind)
            self.lines.append(json.dumps({"op": "run", "spec": spec},
                                         separators=(",", ":")))
        return self.kinds[i], self.lines[i]


# -------------------------------------------------------------- build ---

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "api" / "study.hpp").is_file():
        raise SystemExit("perfbench: netsmith sources not found next to "
                         "perfbench/; run from a full checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    logf = BUILD / "build.log"
    with open(logf, "w") as out:
        steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", str(BUILD), "-j4", "--target",
                  "perfbench_driver", "netsmith_run", "netsmith_serve"]]
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=880).returncode != 0:
                sys.stderr.write(logf.read_text()[-4000:])
                raise SystemExit(f"perfbench: build failed: {' '.join(cmd)}")


def exe(name):
    return str(BUILD / name) if name == "perfbench_driver" else \
        str(BUILD / "netsmith" / name)


def env_with(omp):
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = str(omp)
    env["OMP_DYNAMIC"] = "false"
    return env


def wait_child(p, timeout):
    """Reaps `p` (killing it after `timeout` s); returns (exit code, peak
    RSS in MiB). wait4 gives this child's own peak, unlike RUSAGE_CHILDREN,
    which keeps the maximum over every child ever reaped."""
    timer = threading.Timer(timeout, p.kill)
    timer.start()
    try:
        _, status, ru = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, ru.ru_maxrss / 1024.0


# Every run ends within 180 s of its measuring start (main sets this): a
# child still running at the deadline is killed and the run fails.
DEADLINE = float("inf")
SOURCE_ID = ""  # set by main


def time_left():
    return max(1.0, DEADLINE - time.monotonic())


def run_child(cmd, omp):
    """Runs a child process to completion; returns (stdout, peak RSS MiB)."""
    with tempfile.TemporaryFile(dir=WORK) as out, \
            tempfile.TemporaryFile(dir=WORK) as err:
        p = subprocess.Popen(cmd, stdout=out, stderr=err, env=env_with(omp),
                             cwd=str(ROOT))
        rc, rss = wait_child(p, time_left())
        out.seek(0)
        err.seek(0)
        if rc != 0:
            raise CheckFailed(f"{Path(cmd[0]).name} exited {rc}: "
                              f"{err.read().decode(errors='replace')[-800:]}")
        return out.read().decode(), rss


# ------------------------------------------------------------- checks ---

def canonical(report_text):
    """Result fields of a report: drops the synthesis wall-clock trace times
    and the metrics block (process telemetry)."""
    r = json.loads(report_text)
    r.pop("metrics", None)
    for t in r.get("topologies", []):
        for p in t.get("trace", []):
            p.pop("seconds", None)
    return hashlib.sha256(json.dumps(r, sort_keys=True).encode()).hexdigest()


def check_report(report_text, omp, what):
    r = json.loads(report_text)
    failed = r.get("provenance", {}).get("failed_jobs")
    check(not failed, f"{what}: failed jobs {failed}")
    check(r.get("sweeps"), f"{what}: no sweeps")
    for sw in r["sweeps"]:
        check(sw["zero_load_latency_cycles"] > 0 and
              sw["saturation_pkt_node_cycle"] > 0,
              f"{what}: sweep {sw['traffic']} of plan {sw['plan']} has "
              f"non-positive zero-load latency or saturation")
        if "omp_threads" in sw:
            check(sw["omp_threads"] == omp,
                  f"{what}: sweep ran {sw['omp_threads']} OpenMP threads, "
                  f"pinned {omp}")
    width = r.get("provenance", {}).get("omp_max_threads", omp)
    check(width == omp, f"{what}: report omp_max_threads {width}, pinned {omp}")
    return r


def source_id():
    """Digest of the sources the measured programs are built from, so result
    digests of one version never meet another version's."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted(
        f for d in ("src", "tools", "perfbench") for f in (ROOT / d).rglob("*")
        if f.is_file())
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def check_repeat(workload, spec_text, report_text):
    """Result fields must repeat exactly whenever a spec is run again by the
    same sources; the digest of each spec's first result is kept in the
    build directory."""
    key = hashlib.sha256(spec_text.encode()).hexdigest()[:32]
    path = DIGESTS / SOURCE_ID / f"{workload}-{key}.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    digest = canonical(report_text)
    if path.is_file():
        check(path.read_text().strip() == digest,
              f"{workload}: result differs from an earlier run of the same "
              f"spec")
    else:
        path.write_text(digest + "\n")


def synth_row(r):
    """(avg hops, zero-load latency ns, saturation pkt/node/ns) of the
    report's synthesized topology."""
    for sw in r["sweeps"]:
        plan = r["plans"][sw["plan"]]
        t = r["topologies"][plan["topology"]]
        if t["source"] == "synthesize":
            return (t["avg_hops"], sw["zero_load_latency_ns"],
                    sw["saturation_pkt_node_ns"])
    raise CheckFailed("report has no synthesized topology")


def ns_vs_experts(r):
    """Mean over link classes of the catalog NS-LatOp row against the best
    catalog expert of its class: (saturation gain %, avg-hop cut %)."""
    ns, experts = {}, {}
    for sw in r["sweeps"]:
        t = r["topologies"][r["plans"][sw["plan"]]["topology"]]
        if t["source"] != "catalog":
            continue
        row = (sw["saturation_pkt_node_ns"], t["avg_hops"])
        if t["is_netsmith"]:
            ns[t["link_class"]] = row
        else:
            experts.setdefault(t["link_class"], []).append(row)
    classes = sorted(set(ns) & set(experts))
    if not classes:
        return 0.0, 0.0
    gain = statistics.mean(
        100.0 * (ns[c][0] / max(e[0] for e in experts[c]) - 1.0)
        for c in classes)
    cut = statistics.mean(
        100.0 * (1.0 - ns[c][1] / min(e[1] for e in experts[c]))
        for c in classes)
    return gain, cut


def p99(values):
    v = sorted(values)
    return v[max(0, min(len(v) - 1, -(-99 * len(v) // 100) - 1))]


# -------------------------------------------------------------- batch ---

def batch_iteration(workload, seed, i, work, trace=False):
    spec = (paper48_spec if workload == "paper48" else scale256_spec)(
        subseed_rng(workload, seed, i))
    spec_text = json.dumps(spec, indent=1)
    spec_path = work / f"spec{i}.json"
    spec_path.write_text(spec_text)
    out_path = work / f"report{i}{'t' if trace else ''}.json"
    cmd = [exe("perfbench_driver"), "batch", "--spec", str(spec_path),
           "--out", str(out_path), "--threads", str(BATCH_POOL)]
    cmd += ["--trace"] if trace else []
    out, rss = run_child(cmd, BATCH_OMP)
    res = json.loads(out.strip().splitlines()[-1])
    report_text = out_path.read_text()
    report = check_report(report_text, BATCH_OMP, f"{workload} iteration {i}")
    check_repeat(workload, spec_text, report_text)
    return res, rss, report, report_text


def run_batch(workload, seed, seconds, trace, work):
    if trace:
        base, _, report, text = batch_iteration(workload, seed, 0, work)
        traced, _, _, ttext = batch_iteration(workload, seed, 0, work, True)
        check(canonical(text) == canonical(ttext),
              f"{workload}: traced and untraced results differ")
        m = dict(traced["metrics"])
        m["obs.trace_overhead_pct"] = 100.0 * (traced["wall_s"] /
                                               base["wall_s"] - 1.0)
        m["quality.synth_sat"] = synth_row(report)[2]
        gain, cut = ns_vs_experts(report)
        m["quality.ns_sat_gain_pct"], m["quality.ns_hop_cut_pct"] = gain, cut
        m["threads.pool"], m["threads.omp"] = BATCH_POOL, BATCH_OMP
        m["threads.clients"] = 1
        return 2, 0, m

    # At least QUALITY_ITERS iterations (the modelled/simulated metrics
    # average those sub-seeds, so they repeat exactly at a seed); new ones
    # start until the measuring window is used up. Each iteration is a fresh
    # process on its own sub-seed of --seed.
    walls, setups, rsss, quality = [], [], [], []
    start = time.monotonic()
    i = 0
    while True:
        res, rss, report, _ = batch_iteration(workload, seed, i, work)
        log(f"iteration {i}: wall {res['wall_s']:.3f} s, set-up "
            f"{1e6 * res['setup_s']:.1f} us, peak RSS {rss:.1f} MiB")
        walls.append(res["wall_s"])
        setups.append(res["setup_s"])
        rsss.append(rss)
        if i < QUALITY_ITERS:
            quality.append(synth_row(report))
        i += 1
        if i >= QUALITY_ITERS and time.monotonic() - start >= seconds:
            break
    return i, 0, {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(rsss),
        "ok_frac": 1.0,
        "req_p50_ms": 1e3 * statistics.median(walls),
        "req_p99_ms": 1e3 * p99(walls),
        "req_per_s": len(walls) / sum(walls),
        "synth_avg_hops": statistics.mean(q[0] for q in quality),
        "synth_lat0_ns": statistics.mean(q[1] for q in quality),
    }


# -------------------------------------------------------------- serve ---

class Daemon:
    """netsmith_serve on a Unix socket inside the run directory."""

    def __init__(self, work, store):
        self.work = work
        self.sock = "serve.sock"  # relative: keeps sun_path short
        self.log = open(work / "serve.log", "wb")
        self.proc = subprocess.Popen(
            [exe("netsmith_serve"), "--socket", self.sock, "--cache",
             str(store), "--lru-mb", str(SERVE_LRU_MB), "--threads",
             str(SERVE_POOL)],
            cwd=str(work), env=env_with(SERVE_OMP),
            stdout=subprocess.DEVNULL, stderr=self.log)
        self.rss_mb = 0.0

    def connect(self, timeout=30.0):
        deadline = time.monotonic() + timeout
        while True:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(str(self.work / self.sock))
                return Conn(s)
            except OSError:
                s.close()
                if self.proc.poll() is not None or \
                        time.monotonic() > deadline:
                    raise CheckFailed("netsmith_serve did not come up")
                time.sleep(0.005)

    def stop(self):
        if self.proc.poll() is None:
            try:
                c = self.connect(5.0)
                c.send({"op": "shutdown"})
                c.close()
            except (CheckFailed, OSError):
                self.proc.terminate()
        rc, self.rss_mb = wait_child(self.proc, time_left())
        self.log.close()
        return rc


class Conn:
    def __init__(self, s):
        self.s = s
        self.f = s.makefile("rb")

    def send(self, obj_or_line):
        line = obj_or_line if isinstance(obj_or_line, str) else \
            json.dumps(obj_or_line)
        self.s.sendall(line.encode() + b"\n")

    def recv(self):
        line = self.f.readline()
        if not line:
            raise CheckFailed("daemon closed the connection")
        return line

    def request(self, line):
        """Sends one run request; returns (accepted_s, report_s, event)."""
        t0 = time.perf_counter()
        self.send(line)
        accepted = None
        while True:
            ev = self.recv()
            if ev.startswith(b'{"event":"accepted"'):
                accepted = time.perf_counter() - t0
            elif ev.startswith(b'{"event":"progress"'):
                continue
            elif ev.startswith(b'{"event":"report"') or \
                    ev.startswith(b'{"event":"error"'):
                return accepted, time.perf_counter() - t0, ev

    def close(self):
        self.f.close()
        self.s.close()


def serve_setup(seq, work):
    """Warm-up pass (cold netsmith_run of each warm spec into the store,
    whose reports are the golden bytes) plus daemon start until ping."""
    store = work / "store"
    t0 = time.perf_counter()
    golden = {}
    for name, spec in seq.warm.items():
        spec_path = work / f"{name}.json"
        spec_path.write_text(json.dumps(spec))
        out = work / f"{name}.golden.json"
        run_child([exe("netsmith_run"), str(spec_path), "--cache", str(store),
                   "--threads", str(WARMUP_POOL), "--out", str(out)],
                  SERVE_OMP)
        golden[name] = out.read_text()
        check_report(golden[name], SERVE_OMP, f"warm-up {name}")
    pristine = work / "store.warm"
    shutil.copytree(store, pristine)
    daemon = Daemon(work, store)
    try:
        c = daemon.connect()
        c.send({"op": "ping"})
        check(b"pong" in c.recv(), "daemon did not answer ping")
        c.close()
    except (CheckFailed, OSError):
        daemon.stop()
        raise
    return daemon, golden, time.perf_counter() - t0, pristine


def closed_loop(daemon, seq, seconds):
    """SERVE_CLIENTS connections, each sending its next request as soon as
    the previous report arrives, until `seconds` have passed."""
    results = {}
    lock = threading.Lock()
    counter = [0]
    errors = []
    start = time.perf_counter()

    def client():
        try:
            conn = daemon.connect()
        except CheckFailed as e:
            errors.append(str(e))
            return
        try:
            while time.perf_counter() - start < seconds:
                with lock:
                    i = counter[0]
                    counter[0] += 1
                    kind, line = seq.get(i)
                try:
                    acc, lat, ev = conn.request(line)
                except (CheckFailed, OSError) as e:
                    results[i] = (kind, None, None, None)
                    errors.append(f"request {i}: {e}")
                    return
                results[i] = (kind, acc, lat, ev)
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(SERVE_CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    return [results[i] for i in sorted(results)], wall, errors


def check_served(results, golden, seq, work, store):
    """Checks every served report; returns (ok count, failed count)."""
    fresh = []
    failed = 0
    for i, (kind, acc, lat, ev) in enumerate(results):
        if ev is None or not ev.startswith(b'{"event":"report"'):
            failed += 1
            continue
        e = json.loads(ev)
        cache = e["cache"]
        misses = cache["topology_misses"] + cache["plan_misses"] + \
            cache["sweep_misses"]
        check(not e["partial"], f"request {i}: partial report")
        if kind == "fresh":
            check(cache["topology_misses"] == 0 and cache["plan_misses"] == 0
                  and cache["sweep_misses"] > 0,
                  f"request {i}: fresh-seed request should miss only sweeps,"
                  f" got {cache}")
            check_report(e["report"], SERVE_OMP, f"request {i}")
            fresh.append((i, e["report"]))
        else:
            check(misses == 0, f"request {i}: warm request missed {cache}")
            check(e["report"] == golden[kind],
                  f"request {i}: served {kind} report differs from the cold "
                  f"netsmith_run report")
    # Fresh requests: the daemon's reports must equal netsmith_run's against
    # the same store (now warm for those specs too). A fixed handful.
    for i, text in fresh[:4]:
        spec_path = work / f"fresh{i}.json"
        spec_path.write_text(json.dumps(json.loads(seq.get(i)[1])["spec"]))
        out = work / f"fresh{i}.report.json"
        run_child([exe("netsmith_run"), str(spec_path), "--cache", str(store),
                   "--threads", str(SERVE_POOL), "--out", str(out)],
                  SERVE_OMP)
        check(out.read_text() == text,
              f"request {i}: served report differs from netsmith_run")
    return len(results) - failed, failed


def run_serve(seed, seconds, trace, work):
    seq = ServeSequence(seed)
    daemon, golden, setup_s, pristine = serve_setup(seq, work)
    try:
        loop_s = seconds / 2.0 if trace else seconds
        results, wall, errors = closed_loop(daemon, seq, loop_s)
        if trace:
            c = daemon.connect()
            c.send({"op": "stats"})
            stats = json.loads(c.recv())
            c.close()
    finally:
        rc = daemon.stop()
    check(rc == 0, f"netsmith_serve exited {rc}")
    check(not errors, "; ".join(errors[:3]))
    ok, failed = check_served(results, golden, seq, work, work / "store")
    attempted = ok + failed

    if not trace:
        lats = [r[2] for r in results if r[2] is not None]
        warm48 = [r[2] for r in results if r[0].startswith("paper48") and r[2]]
        check(warm48, "no paper48 request completed")
        hops, lat0, _ = synth_row(json.loads(golden["paper48a"]))
        return attempted, failed, {
            "wall_s": statistics.median(warm48),
            "setup_s": setup_s,
            "peak_rss_mb": daemon.rss_mb,
            "ok_frac": ok / attempted,
            "req_p50_ms": 1e3 * statistics.median(lats),
            "req_p99_ms": 1e3 * p99(lats),
            "req_per_s": ok / wall,
            "synth_avg_hops": hops,
            "synth_lat0_ns": lat0,
        }

    # Traced: replay a third of the served requests in-process, untraced
    # then traced, each on a copy of the store as the warm-up left it.
    count = max(1, len(results) // 3)
    req_path = work / "requests.jsonl"
    req_path.write_text("".join(seq.get(i)[1] + "\n" for i in range(count)))
    runs = {}
    dump = work / "replayed"
    dump.mkdir()
    for mode in ("plain", "traced"):
        store = work / f"store.{mode}"
        shutil.copytree(pristine, store)
        cmd = [exe("perfbench_driver"), "replay", "--requests", str(req_path),
               "--count", str(count), "--store", str(store), "--lru-mb",
               str(SERVE_LRU_MB), "--threads", str(SERVE_POOL), "--clients",
               str(SERVE_CLIENTS)]
        cmd += ["--trace"] if mode == "traced" else ["--dump", str(dump)]
        out, _ = run_child(cmd, SERVE_OMP)
        runs[mode] = json.loads(out.strip().splitlines()[-1])
    for i in range(count):
        check((dump / f"{i}.json").read_text() ==
              json.loads(results[i][3])["report"],
              f"request {i}: in-process replay report differs from the "
              f"daemon's")
    m = dict(runs["traced"]["metrics"])
    m["obs.trace_overhead_pct"] = 100.0 * (runs["traced"]["wall_s"] /
                                           runs["plain"]["wall_s"] - 1.0)
    store_stats = stats["store"]
    m["serve.accept_ms"] = 1e3 * statistics.median(
        r[1] for r in results if r[1] is not None)
    for k in ("mem_hits", "disk_hits", "misses", "stores", "evictions"):
        m[f"serve.{k}"] = store_stats[k]
    lookups = store_stats["mem_hits"] + store_stats["disk_hits"] + \
        store_stats["misses"]
    m["serve.hit_ratio"] = (lookups - store_stats["misses"]) / lookups
    # Warm kinds repeat a spec the warm-up already ran; fresh ones never do.
    m["serve.repeat_frac"] = sum(r[0] != "fresh" for r in results) / \
        len(results)
    m["quality.synth_sat"] = synth_row(json.loads(golden["paper48a"]))[2]
    gain, cut = ns_vs_experts(json.loads(golden["paper48a"]))
    m["quality.ns_sat_gain_pct"], m["quality.ns_hop_cut_pct"] = gain, cut
    m["threads.pool"], m["threads.omp"] = SERVE_POOL, SERVE_OMP
    m["threads.clients"] = SERVE_CLIENTS
    return attempted, failed, m


# --------------------------------------------------------------- main ---

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["paper48", "scale256", "serve_mixed"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if SPEC is None:
        raise SystemExit("perfbench: BENCHMARK.json not found at the "
                         "checkout root")
    t_build = time.monotonic()
    build()
    log(f"build up to date in {time.monotonic() - t_build:.1f} s")
    global DEADLINE, SOURCE_ID
    DEADLINE = time.monotonic() + 170.0
    SOURCE_ID = source_id()

    work = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    correct, attempted, failed, metrics = True, 1, 0, {}
    try:
        if args.workload == "serve_mixed":
            attempted, failed, metrics = run_serve(
                args.seed, args.seconds, args.trace, work)
        else:
            attempted, failed, metrics = run_batch(
                args.workload, args.seed, args.seconds, args.trace, work)
        correct = failed == 0
    except CheckFailed as e:
        log(f"CHECK FAILED: {e}")
        correct, failed = False, max(failed, 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    listed = SPEC["per_layer" if args.trace else "end_to_end"]
    if correct:
        names = {m["name"] for m in listed}
        extra = set(metrics) - names
        missing = names - set(metrics) if not args.trace else set()
        if extra or missing:
            raise SystemExit(f"perfbench: metrics out of step with "
                             f"BENCHMARK.json: extra {sorted(extra)}, "
                             f"missing {sorted(missing)}")
    # Per-layer metrics a workload does not exercise read 0.
    out = {m["name"]: {"value": float(metrics.get(m["name"], 0.0)),
                       "unit": m["unit"]} for m in listed}
    if args.trace:
        selfs = {l: metrics.get(f"{l}.self_s", 0.0) for l in LAYERS}
        log(f"dominant layer: {max(selfs, key=selfs.get)}")
    print(json.dumps({"widths": {
        "pool": SERVE_POOL if args.workload == "serve_mixed" else BATCH_POOL,
        "omp": SERVE_OMP if args.workload == "serve_mixed" else BATCH_OMP,
        "clients": SERVE_CLIENTS if args.workload == "serve_mixed" else 1}}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))


if __name__ == "__main__":
    main()
