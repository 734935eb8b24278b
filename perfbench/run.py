#!/usr/bin/env python3
"""The repository's end-to-end benchmark.

    python3 perfbench/run.py --workload scale-1e5|serve-mix|verify-mix \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the release `sa` binary and the
benchmark's tracer helper (`perfbench/tracer`), generates the workload's
inputs from `--seed`, measures, checks every output, and prints one JSON
line last: `{"correct", "attempted", "failed", "metrics"}`. With
`--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json,
measured on the untraced `sa` binary; with `--trace 1` they are the
per-layer metrics, from spans the tracer records around the same calls.
See perfbench/README.md.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402
from benchlib import median, percentile  # noqa: E402

WORKLOADS = ("scale-1e5", "serve-mix", "verify-mix")
TARGET = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
SA = os.path.join(TARGET, "release", "sa")
TRACER = os.path.join(TARGET, "release", "sa-perfbench-tracer")
WORK = ".bench_work"
REAPER = benchlib.Reaper()


def log(msg):
    """Human-readable lines go to stdout, before the final result line;
    build noise goes to stderr."""
    print(msg, flush=True)


# ---------------------------------------------------------------------------
# Build and run hygiene
# ---------------------------------------------------------------------------

def build():
    """Builds `sa` and the tracer from the checkout's sources (a no-op when
    they are current)."""
    if not (os.path.isfile("Cargo.toml") and os.path.isdir(os.path.join("crates", "sa-cli"))):
        raise SystemExit("perfbench: run from the root of a repository checkout "
                         "(Cargo.toml and crates/sa-cli are missing)")
    env = benchlib.scrubbed_env()
    env["CARGO_TARGET_DIR"] = TARGET
    for argv in (["cargo", "build", "--release", "--offline", "-p", "sa-cli"],
                 ["cargo", "build", "--release", "--offline", "--manifest-path",
                  os.path.join("perfbench", "tracer", "Cargo.toml")]):
        if run_group(argv, env):
            raise SystemExit(f"perfbench: build failed: {' '.join(argv)}")


def run_group(argv, env):
    """Runs `argv` in its own process group and returns its exit code. If
    this process is stopped meanwhile (SIGTERM, Ctrl-C), the whole group is
    killed, cargo and the compilers it started, and the wait lasts until
    every member has exited."""
    proc = subprocess.Popen(argv, env=env, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait()
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)
        raise


def source_digest():
    """Identifies the measured code: the git commit when the checkout is a
    repository, else a digest of the workspace's sources."""
    if os.path.isdir(".git"):
        head = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if head.returncode == 0:
            return head.stdout.strip()
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in paths:
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def fresh_dir(name):
    """An empty per-run directory; the previous run's files are removed and
    the removal flushed before anything is measured."""
    path = os.path.join(WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    os.sync()
    return path


def write_json(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def run_timed(argv, out_dir, timeout_s=170):
    """Runs `sa` untraced; returns (exit code, wall s, cpu s, peak RSS MB)."""
    with open(os.path.join(out_dir, "stdout.txt"), "w") as out, \
            open(os.path.join(out_dir, "stderr.txt"), "w") as err:
        t0 = time.perf_counter()
        proc = REAPER.spawn(argv, out, err)
        code, cpu, rss = benchlib.wait_rusage(proc, timeout_s)
        wall = time.perf_counter() - t0
    return code, wall, cpu, rss


def run_tracer(args, timeout_s=170):
    """Runs the tracer helper and returns its JSON counters."""
    proc = subprocess.run([TRACER] + [str(a) for a in args], env=benchlib.scrubbed_env(),
                          capture_output=True, text=True, timeout=timeout_s)
    if proc.returncode:
        raise RuntimeError(f"tracer {args[0]} failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def launch_setup(argv, marker, groups=3, per_group=7, warmup=3, pause_s=0.02):
    """Set-up time of a batch command: launch until the stderr line that
    says its work starts (for `sa verify`, the first instance starts
    exploring); each launch is killed at that line.

    Returns one sample per group: the fastest of `per_group` launches. The
    measured time includes this process's own wake-up when the line
    arrives, which on an idle vCPU adds waits in ~2.5 ms steps to a ~2 ms
    launch; the fastest launch of a group is the one without that wait.
    The first `warmup` launches (binary not yet in the page cache) are not
    counted, and a pause after each kill lets its teardown finish."""
    times = []
    for _ in range(warmup + groups * per_group):
        t0 = time.perf_counter()
        proc = REAPER.spawn(argv, subprocess.DEVNULL, subprocess.PIPE)
        line = proc.stderr.readline()
        times.append(time.perf_counter() - t0)
        proc.kill()
        proc.wait()
        proc.stderr.close()
        time.sleep(pause_s)
        if marker not in line:
            raise RuntimeError(f"{argv[1]}: unexpected first line {line!r}")
    times = times[warmup:]
    return [min(times[g * per_group:(g + 1) * per_group]) for g in range(groups)]


def repeat_passes(workload, seconds, trace, units, one_pass, warmup=0):
    """Runs `one_pass(out_dir)` -> (sample, problems) until `seconds` have
    passed (at least once; exactly once when traced), after `warmup`
    passes whose samples are dropped (their outputs are still checked).
    Returns the median sample, the attempted unit count and the failed
    count."""
    samples, attempted, failed = [], 0, 0
    for _ in range(warmup):
        _, problems = one_pass(fresh_dir(os.path.join(workload, "program")))
        attempted += units
        failed += min(units, len(problems))
        for p in problems:
            log(f"{workload}: FAILED (warm-up) {p}")
    start = time.perf_counter()
    while not samples or (not trace and time.perf_counter() - start < seconds):
        sample, problems = one_pass(fresh_dir(os.path.join(workload, "program")))
        samples.append(sample)
        attempted += units
        failed += min(units, len(problems))
        for p in problems:
            log(f"{workload}: FAILED {p}")
    log(f"{workload}: {len(samples)} pass(es); wall_s {[round(s['wall_s'], 3) for s in samples]}")
    return {key: median([s[key] for s in samples]) for key in samples[0]}, attempted, failed


def ms(ns_list):
    return [x / 1e6 for x in ns_list]


# ---------------------------------------------------------------------------
# scale-1e5: `sa run` on one random 4-regular graph with 10^5 nodes
# ---------------------------------------------------------------------------

# 10^5, not 10^6: one `sa run` at 10^6 takes 33-53 s, a single sample per
# run, and on a shared host those samples spread by a quarter of their
# median from run to run. At 10^5 a pass takes ~1.5 s, so a run takes the
# median of about ten passes spread over its whole measuring time.
SCALE_N = 100_000
SCALE_MAX_ROUNDS = 400
SCALE_VERIFY_ROUNDS = 64
SCALE_CHECKPOINT_EVERY = 23  # checkpoints at steps 23, 46 and 69 of 69
# Pinned, not drawn from --seed: whole-pairing rejection makes the build's
# attempt count geometric in the graph seed (acceptance ~2.4%), so build
# time would vary several-fold from seed to seed. 13 is the committed
# examples/specs/scale.json graph seed.
SCALE_GRAPH_SEED = 13


def scale_spec(seed):
    del seed  # see SCALE_GRAPH_SEED; the unit seeds are the spec's 0 and 1
    return {
        "name": "scale-1e5",
        "graph_seed": SCALE_GRAPH_SEED,
        "checkpoint_format": "binary",
        "tasks": [{
            "id": "SCALE",
            "kind": "stabilization",
            "algorithms": ["min-plus-one"],
            "topologies": [{"kind": "random-regular", "n": SCALE_N, "deg": 4}],
            "schedulers": ["synchronous"],
            "seeds": 2,
            "diameter_bound": 25,
            "max_rounds": SCALE_MAX_ROUNDS,
            "verify_rounds": SCALE_VERIFY_ROUNDS,
        }],
    }


def scale_pass(spec_path, out_dir):
    """One untraced `sa run`; returns (sample, problems)."""
    code, wall, cpu, rss = run_timed(
        [SA, "run", spec_path, "--out", out_dir,
         "--checkpoint-every", str(SCALE_CHECKPOINT_EVERY)], out_dir)
    problems = [] if code == 0 else [f"sa run exited {code}"]
    try:
        with open(os.path.join(out_dir, "EXPERIMENTS.json")) as f:
            doc = json.load(f)
        problems += benchlib.check_scale(doc, 2, SCALE_MAX_ROUNDS, SCALE_VERIFY_ROUNDS)
    except (OSError, ValueError) as e:
        problems.append(f"EXPERIMENTS.json unreadable: {e}")
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss}, problems


def workload_scale(seed, seconds, trace):
    work = fresh_dir("scale-1e5")
    spec_path = os.path.join(work, "spec.json")
    write_json(spec_path, scale_spec(seed))
    setup = []

    def one_pass(out_dir):
        # One set-up sample per pass, so that the samples spread over the
        # run like the passes do.
        if not trace:
            setup.append(run_tracer(["setup", spec_path])["setup_ns"] / 1e9)
        return scale_pass(spec_path, out_dir)

    values, attempted, failed = repeat_passes("scale-1e5", seconds, trace, 2, one_pass, warmup=1)
    if not trace:
        setup = setup[1:]  # the warm-up pass's sample goes with its pass
        values["setup_s"] = median(setup)
        log(f"scale-1e5: setup_s samples = {[round(x, 4) for x in setup]}")
    else:
        spans_path = os.path.join(work, "spans.jsonl")
        counts = run_tracer(["scale", spec_path, work, SCALE_CHECKPOINT_EVERY, spans_path])
        attempted += counts["units"]
        failed += counts["replay_mismatches"]
        values = layer_values(spans_path, counts, values["wall_s"])
    return values, attempted, failed


# ---------------------------------------------------------------------------
# verify-mix: `sa verify` on three instances
# ---------------------------------------------------------------------------

def verify_spec(seed):
    # The instances are fixed: their order changes the explorer's peak RSS
    # by ~10% (allocator reuse), so the seed does not permute them either.
    del seed
    tasks = [
        {"id": "AU", "kind": "verify", "algorithms": ["algau"],
         "topologies": [{"kind": "cycle", "n": 4}]},
        {"id": "MIS", "kind": "verify", "algorithms": ["mis"],
         "topologies": [{"kind": "path", "n": 2}], "space": "reachable", "fault_radius": 2},
        {"id": "RESET", "kind": "verify",
         "algorithms": [{"kind": "reset-attempt", "period": 3}],
         "topologies": [{"kind": "cycle", "n": 7}]},
    ]
    return {"name": "verify-mix", "tasks": tasks}


def verify_pass(spec_path, out_dir):
    # Exit code 1 is the expected verdict: one instance is VIOLATED.
    code, wall, cpu, rss = run_timed([SA, "verify", spec_path, "--out", out_dir], out_dir)
    problems = [] if code == 1 else [f"sa verify exited {code}, expected 1"]
    try:
        with open(os.path.join(out_dir, "VERIFY.json")) as f:
            doc = json.load(f)
        problems += benchlib.check_verify(doc, os.path.join(out_dir, "traces"))
    except (OSError, ValueError) as e:
        problems.append(f"VERIFY.json unreadable: {e}")
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss}, problems


def workload_verify(seed, seconds, trace):
    work = fresh_dir("verify-mix")
    spec_path = os.path.join(work, "spec.json")
    write_json(spec_path, verify_spec(seed))
    values = {}
    if not trace:
        setup = launch_setup([SA, "verify", spec_path, "--out", fresh_dir(
            os.path.join("verify-mix", "setup"))], b"exploring")
        values["setup_s"] = median(setup)
        log(f"verify-mix: setup_s samples = {[round(x, 5) for x in setup]}")
    sample, attempted, failed = repeat_passes(
        "verify-mix", seconds, trace, 3, lambda out_dir: verify_pass(spec_path, out_dir))
    values.update(sample)
    if trace:
        spans_path = os.path.join(work, "spans.jsonl")
        traced_dir = fresh_dir(os.path.join("verify-mix", "traced"))
        counts = run_tracer(["verify", spec_path, traced_dir, spans_path])
        with open(os.path.join(traced_dir, "VERIFY.json")) as f:
            problems = benchlib.check_verify(json.load(f), os.path.join(traced_dir, "traces"))
        attempted += 3
        failed += min(3, len(problems))
        values = layer_values(spans_path, counts, values["wall_s"])
    return values, attempted, failed


# ---------------------------------------------------------------------------
# serve-mix: two closed-loop socket clients against `sa serve`
# ---------------------------------------------------------------------------

# A pass is one daemon life serving a short job stream; a run makes passes
# until both `--seconds` and SERVE_MIN_JOBS are reached and reports the
# median pass. On a shared host the hypervisor steals 2-40% of the vCPUs in
# phases of tens of seconds, and the closed loop's many thread hand-offs
# stretch with it: one 1000-job stream took 26-53 s back to back. Short
# passes leave most of a steal phase to a few passes, which the median
# drops.
SERVE_PASS_JOBS = 100
SERVE_MIN_JOBS = 1000      # per run: a p99 needs 1000 samples
SERVE_CLIENTS = 2          # nproc of the reference host; one connection each
SOCKET_TIMEOUT_S = 60
SERVE_THINK_S = 0.025      # client think time between jobs: uniform in [0, this)


# A vCPU with nothing to run halts, and waking it again waits until the
# hypervisor runs it. The closed loop wakes its threads dozens of times per
# job, so on a busy host serve-mix showed 20-40% steal in phases, against
# 1-7% for the CPU-bound workloads, and its passes took up to twice as
# long. One spinner per CPU at SCHED_IDLE keeps every vCPU running: the
# kernel hands the CPU to any other runnable thread at once, so the
# measured threads wait for no one, and in back-to-back passes steal fell
# to 1-10% (from 33-40% next to them).
SPINNER = """import os, sys
os.sched_setaffinity(0, {int(sys.argv[1])})
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
while True:
    pass
"""


@contextlib.contextmanager
def vcpus_awake():
    """Runs a SCHED_IDLE spinner on every CPU this process may use; a
    spinner that cannot get that policy exits at once instead of spinning."""
    procs = [REAPER.spawn([sys.executable, "-c", SPINNER, str(cpu)],
                          subprocess.DEVNULL, subprocess.DEVNULL)
             for cpu in sorted(os.sched_getaffinity(0))]
    try:
        time.sleep(0.1)
        log(f"serve-mix: {sum(p.poll() is None for p in procs)} of {len(procs)} "
            f"SCHED_IDLE spinner(s) keep the vCPUs awake")
        yield
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()


def serve_job_spec(index, graph_seed):
    return {
        "name": f"serve-mix-{index}",
        "graph_seed": graph_seed,
        "tasks": [{
            "id": "MIX",
            "kind": "stabilization",
            "algorithms": ["algau", "le", "mis"],
            "topologies": [{"kind": "random-regular", "n": 16, "deg": 4},
                           {"kind": "torus", "rows": 4, "cols": 4}],
            "schedulers": [{"kind": "uniform-random", "p": 0.5}],
            "seeds": 1,
        }],
    }


SERVE_UNITS = 6


def serve_jobs(seed, count):
    """A job stream (`seed` may be any value `random.Random` takes). Each
    client thinks a random 0-25 ms before each job, so its reconnects do
    not phase-lock to the daemon's 25 ms accept poll (without it,
    throughput swings by +-10% between runs)."""
    rng = random.Random(seed)
    return [{"index": i, "client": f"c{i % SERVE_CLIENTS}",
             "spec": serve_job_spec(i, rng.randrange(1, 2 ** 31)),
             "think_s": rng.uniform(0, SERVE_THINK_S)} for i in range(count)]


class Conn:
    """One NDJSON connection to the daemon."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(SOCKET_TIMEOUT_S)
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.reader = self.sock.makefile("rb")

    def send(self, obj):
        self.sock.sendall(json.dumps(obj).encode() + b"\n")

    def recv(self):
        line = self.reader.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return json.loads(line)

    def close(self):
        self.reader.close()
        self.sock.close()


def spawn_daemon(state_dir):
    """Starts `sa serve` (default workers, fsync on) and returns (proc,
    socket path, seconds from spawn until the first answered ping)."""
    sock_path = os.path.join(state_dir, "s.sock")
    err = open(os.path.join(state_dir, "daemon.log"), "w")
    t0 = time.perf_counter()
    proc = REAPER.spawn([SA, "serve", "--socket", sock_path, "--state-dir",
                         os.path.join(state_dir, "state")], subprocess.DEVNULL, err)
    err.close()
    while True:
        try:
            conn = Conn(sock_path)
            break
        except (FileNotFoundError, ConnectionRefusedError):
            if proc.poll() is not None or time.perf_counter() - t0 > 30:
                raise RuntimeError("daemon did not come up")
            time.sleep(0.0005)
    hello = conn.recv()
    conn.send({"op": "ping"})
    resp = conn.recv()
    ready = time.perf_counter() - t0
    conn.close()
    if hello.get("event") != "hello" or resp.get("ok") is not True:
        raise RuntimeError(f"bad handshake {hello!r} {resp!r}")
    return proc, sock_path, ready


def stop_daemon(proc, sock_path):
    """Asks the daemon to shut down and reaps it; returns (exit, cpu, rss)."""
    try:
        conn = Conn(sock_path)
        conn.recv()
        conn.send({"op": "shutdown"})
        conn.recv()
        conn.close()
    except OSError:
        pass
    return benchlib.wait_rusage(proc, 30)


def client_loop(sock_path, jobs, results, spans, pass_no):
    """A closed-loop client: one connection per job — connect, ping,
    submit, watch until job-finished, close. Spans carry the pass number
    with the job id, because every daemon life numbers its jobs afresh."""
    for job in jobs:
        rec = {"index": job["index"], "ops": 0, "problems": []}
        conn = None
        time.sleep(job["think_s"])
        try:
            t0 = time.perf_counter()
            conn = Conn(sock_path)
            hello = conn.recv()
            t_hello = time.perf_counter()
            if hello.get("event") != "hello":
                rec["problems"].append(f"no hello: {hello!r}")
            conn.send({"op": "ping"})
            rec["ops"] += 1
            resp = conn.recv()
            t_ping = time.perf_counter()
            rec["problems"] += benchlib.check_response(resp)
            t_submit = time.perf_counter()
            conn.send({"op": "submit", "spec": job["spec"], "client": job["client"]})
            rec["ops"] += 1
            ack = conn.recv()
            t_ack = time.perf_counter()
            rec["problems"] += benchlib.check_response(ack, "job")
            job_id = ack.get("job")
            conn.send({"op": "watch", "job": job_id})
            rec["ops"] += 1
            rec["problems"] += benchlib.check_response(conn.recv())
            while True:
                event = conn.recv()
                if event.get("event") == "job-finished":
                    break
            t_done = time.perf_counter()
            problems, rec["clean"] = benchlib.check_job_finished(event, SERVE_UNITS)
            rec["problems"] += problems
            rec.update(job=job_id, connect_ms=(t_hello - t0) * 1e3,
                       ping_ms=(t_ping - t_hello) * 1e3,
                       connect_ping_ms=(t_ping - t0) * 1e3,
                       submit_ack_ms=(t_ack - t_submit) * 1e3,
                       job_done_ms=(t_done - t_submit) * 1e3,
                       t0=t0, t_done=t_done)
            if spans is not None:
                for name, a, b in (("client.connect", t0, t_hello), ("client.ping", t_hello, t_ping),
                                   ("client.submit", t_submit, t_ack),
                                   ("client.watch", t_ack, t_done)):
                    spans.append({"name": name, "req": f"{pass_no}/{job_id}",
                                  "start": a, "end": b})
        except (OSError, ValueError, ConnectionError) as e:
            rec["problems"].append(f"{type(e).__name__}: {e}")
            rec["ops"] = 3
        finally:
            if conn is not None:
                conn.close()
        results.append(rec)


def batch_check(work, spec, daemon_path):
    """Problems if the daemon's EXPERIMENTS.json is not byte-identical to
    the one an in-process batch run of the same spec renders."""
    spec_path = os.path.join(work, "checked-spec.json")
    batch_path = os.path.join(work, "batch-EXPERIMENTS.json")
    write_json(spec_path, spec)
    batch = run_tracer(["batch", spec_path, batch_path])
    problems = [] if batch.get("rows_match") else [
        f"{spec['name']}: run_spec_in_process rows differ from the rendered batch rows"]
    try:
        with open(batch_path, "rb") as a, open(daemon_path, "rb") as b:
            if a.read() != b.read():
                problems.append(f"{spec['name']}: daemon EXPERIMENTS.json differs from batch")
    except OSError as e:
        problems.append(f"batch check: {e}")
    return problems


def serve_pass(work, jobs, setup_samples, spans, pass_no):
    """Spawns the measured daemon, drives the job stream through it, shuts
    the daemon down and checks jobs against in-process batch runs. Returns
    (sample, per-job records, problems, number of jobs batch-checked)."""
    state_dir = fresh_dir(os.path.join("serve-mix", "daemon"))
    proc, sock_path, ready = spawn_daemon(state_dir)
    setup_samples.append(ready)
    results = []
    lanes = [[j for j in jobs if j["client"] == f"c{k}"] for k in range(SERVE_CLIENTS)]
    threads = [threading.Thread(target=client_loop,
                                args=(sock_path, lane, results, spans, pass_no), daemon=True)
               for lane in lanes]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    code, cpu, rss = stop_daemon(proc, sock_path)
    problems = [] if code == 0 else [f"daemon exited {code}"]
    done = [r for r in results if "t_done" in r]
    wall = (max(r["t_done"] for r in done) - min(r["t0"] for r in done)) if done else 0.0
    # The batch = daemon invariant, on one sampled job and on every job that
    # came back with an unclean unit (the daemon must have computed the
    # verdict the in-process batch run computes).
    checked = [r for r in done if not r.get("clean")]
    checked.append(random.Random(len(jobs) * 7919 + jobs[0]["spec"]["graph_seed"]).choice(done))
    for rec in checked:
        problems += batch_check(work, jobs[rec["index"]]["spec"], os.path.join(
            state_dir, "state", "jobs", rec["job"], "out", "EXPERIMENTS.json"))
    unclean = len(checked) - 1
    if unclean:
        log(f"serve-mix: {unclean} job(s) with an unclean unit, each byte-identical to "
            f"the in-process batch run: {[r['job'] for r in checked[:-1]]}")
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss}, results, problems, len(checked)


def workload_serve(seed, seconds, trace):
    with vcpus_awake():
        return serve_passes(seed, seconds, trace)


def serve_passes(seed, seconds, trace):
    work = fresh_dir("serve-mix")
    setup_samples, jobs = [], []
    samples, records, attempted, failed = [], [], 0, 0
    client_spans = [] if trace else None
    start = time.perf_counter()
    while len(records) < SERVE_MIN_JOBS or (not trace and time.perf_counter() - start < seconds):
        stream = serve_jobs(f"{seed}/{len(samples)}", SERVE_PASS_JOBS)
        jobs += stream
        sample, results, problems, checks = serve_pass(work, stream, setup_samples,
                                                       client_spans, len(samples))
        samples.append(sample)
        records += results
        attempted += sum(r["ops"] for r in results) + checks
        failed += (sum(min(r["ops"], len(r["problems"])) for r in results)
                   + min(checks, len(problems)))
        for p in problems + [p for r in results for p in r["problems"]][:20]:
            log(f"serve-mix: FAILED {p}")
    log(f"serve-mix: {len(samples)} pass(es) of {SERVE_PASS_JOBS} jobs; "
        f"wall_s {[round(s['wall_s'], 3) for s in samples]}")
    ok = [r for r in records if "job_done_ms" in r]
    client = {key: [r[key] for r in ok] for key in
              ("connect_ms", "ping_ms", "connect_ping_ms", "submit_ack_ms", "job_done_ms")}
    n = len(ok)
    report = {
        "connect_ping_ms_p50": percentile(client["connect_ping_ms"], 50),
        "connect_ping_ms_p99": percentile(client["connect_ping_ms"], 99),
        "submit_ack_ms_p50": percentile(client["submit_ack_ms"], 50),
        "submit_ack_ms_p99": percentile(client["submit_ack_ms"], 99),
        "job_done_ms_p50": percentile(client["job_done_ms"], 50),
        "job_done_ms_p99": percentile(client["job_done_ms"], 99),
        "jobs_per_s": len(ok) / sum(s["wall_s"] for s in samples) if ok else 0.0,
        "error_rate": failed / attempted,
    }
    for key, value in report.items():
        log(f"serve-mix: {key} = {value:.4f}" + ("" if key in ("jobs_per_s", "error_rate")
                                                   else f" (n={n})"))
    values = {key: median([s[key] for s in samples]) for key in ("wall_s", "cpu_s", "peak_rss_mb")}
    if not trace:
        values["setup_s"] = median(setup_samples)
        log(f"serve-mix: setup_s samples = {[round(s, 4) for s in setup_samples]}")
        return values, attempted, failed
    # Traced: replay the same jobs through an in-process JobScheduler.
    replay_dir = fresh_dir(os.path.join("serve-mix", "replay"))
    jobs_path = os.path.join(work, "jobs.jsonl")
    with open(jobs_path, "w") as f:
        for job in jobs:
            f.write(json.dumps({"client": job["client"], "think_s": job["think_s"],
                                "spec": job["spec"]}) + "\n")
    spans_path = os.path.join(work, "spans.jsonl")
    counts = run_tracer(["replay", jobs_path, replay_dir, SERVE_CLIENTS, spans_path])
    attempted += counts["units"]
    failed += counts["replay_mismatches"]
    with open(os.path.join(work, "client-spans.jsonl"), "w") as f:
        for s in client_spans:
            f.write(json.dumps(s) + "\n")
    # The replay serves every pass's jobs in one stream, so it is compared
    # with the passes' total wall.
    out = layer_values(spans_path, counts, sum(s["wall_s"] for s in samples),
                       traced_wall=counts["scheduler_phase_s"])
    spans = benchlib.read_spans(spans_path)
    submit_ms = [(s["end"] - s["start"]) / 1e6 for s in spans if s["name"] == "jobs.submit"]
    out["jobs.submit_ms_p50"] = median(submit_ms)
    out["jobs.queue_wait_ms_p50"] = percentile(ms(counts["queue_wait_ns"]), 50)
    out["jobs.queue_wait_ms_p99"] = percentile(ms(counts["queue_wait_ns"]), 99)
    out["jobs.unit_ms_p50"] = percentile(ms(counts["unit_ns"]), 50)
    out["jobs.finish_ms_p50"] = percentile(ms(counts["finish_ns"]), 50)
    out["serve.connect_ms_p50"] = percentile(client["connect_ms"], 50)
    out["serve.connect_ms_p99"] = percentile(client["connect_ms"], 99)
    out["serve.ping_ms_p50"] = percentile(client["ping_ms"], 50)
    out["serve.ack_overhead_ms_p50"] = report["submit_ack_ms_p50"] - out["jobs.submit_ms_p50"]
    log(f"serve-mix: replay samples: {len(submit_ms)} submits, {len(counts['queue_wait_ns'])} "
        f"queue waits, {len(counts['unit_ns'])} units, {len(counts['finish_ns'])} finishes")
    return out, attempted, failed


# ---------------------------------------------------------------------------
# Per-layer metrics (trace 1)
# ---------------------------------------------------------------------------

def layer_values(spans_path, counts, untraced_wall, traced_wall=None):
    """Per-layer metrics from a tracer's spans and counters. Layers a
    workload does not call report 0 (no spans, no work)."""
    spans = benchlib.read_spans(spans_path)
    layers, unattributed, wall = benchlib.layer_self_seconds(spans)
    if traced_wall is None:
        traced_wall = wall
    quiet, churn = ms(counts.get("quiet_step_ns", [])), ms(counts.get("churn_step_ns", []))
    activated = counts.get("activated", 0)
    explore_s = layers["explore.s"]
    states = counts.get("explore_states", 0)
    values = dict(layers)
    values.update({
        "executor.steps": counts.get("steps", 0),
        "executor.activated": activated,
        "executor.changed": counts.get("changed", 0),
        "executor.useful_frac": counts.get("changed", 0) / activated if activated else 0.0,
        "executor.quiet_step_ms_p50": median(quiet),
        "executor.churn_step_ms_p50": median(churn),
        "oracle.checks": counts.get("oracle_checks", 0),
        "checkpoint.bytes": counts.get("checkpoint_bytes", 0),
        "checkpoint.count": counts.get("checkpoint_count", 0),
        "explore.states": states,
        "explore.edges": counts.get("explore_edges", 0),
        "explore.states_per_s": states / explore_s if explore_s else 0.0,
        "unattributed_s": unattributed,
        "trace_overhead_s": traced_wall - untraced_wall,
        # Filled in by the serve-mix replay; no job or socket layer runs
        # in the other workloads' traced runs.
        "jobs.submit_ms_p50": 0.0,
        "jobs.queue_wait_ms_p50": 0.0,
        "jobs.queue_wait_ms_p99": 0.0,
        "jobs.unit_ms_p50": 0.0,
        "jobs.finish_ms_p50": 0.0,
        "serve.connect_ms_p50": 0.0,
        "serve.connect_ms_p99": 0.0,
        "serve.ping_ms_p50": 0.0,
        "serve.ack_overhead_ms_p50": 0.0,
    })
    log(f"trace: {len(spans)} spans; traced wall {traced_wall:.3f} s, untraced wall "
        f"{untraced_wall:.3f} s; quiet steps n={len(quiet)}, churn steps n={len(churn)}")
    declared = {m["name"] for m in benchlib.benchmark_spec()["per_layer"]}
    for name, secs in sorted(layers.items(), key=lambda kv: -kv[1]):
        if secs and name in declared:
            log(f"trace:   {name:<22} {secs:10.4f} s")
    log(f"trace:   {'unattributed_s':<22} {unattributed:10.4f} s")
    return values


# ---------------------------------------------------------------------------

def on_sigterm(signum, frame):
    raise SystemExit(f"perfbench: signal {signum}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGTERM, on_sigterm)
    build()
    commit = source_digest()
    log(f"perfbench: workload {args.workload}, seed {args.seed}, trace {args.trace}; "
        f"nproc {os.cpu_count()}, kernel {platform.release()}, commit {commit}")
    run = {"scale-1e5": workload_scale, "serve-mix": workload_serve,
           "verify-mix": workload_verify}[args.workload]
    before = benchlib.cpu_times()
    try:
        values, attempted, failed = run(args.seed, args.seconds, bool(args.trace))
    finally:
        REAPER.reap_all()
    steal = benchlib.steal_share(before, benchlib.cpu_times())
    if steal is not None:
        # Stolen vCPU time stretches every wall time; logged so that host
        # noise can be told from a change in the program.
        log(f"perfbench: hypervisor steal during the run = {steal:.1%}")
    log(f"perfbench: error_rate = {failed}/{attempted}")
    print(benchlib.result_line(values, attempted, failed, bool(args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
