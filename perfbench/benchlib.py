"""Shared pieces of the benchmark: statistics, span accounting, process
hygiene, output checks and the result line.

Everything here is a pure function or a small helper so that
`test_perfbench.py` can exercise it without building or running `sa`.
"""

import json
import os
import signal
import statistics
import subprocess
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_FILE = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values, q):
    """Nearest-rank percentile `q` (0-100) of `values`; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def median(values):
    return float(statistics.median(values)) if values else 0.0


# ---------------------------------------------------------------------------
# Span accounting
# ---------------------------------------------------------------------------

# Span name -> the per-layer self-time metric it feeds. Spans not listed
# here are glue (the run root, per-job and per-unit envelopes of a replay):
# their self time is the unattributed time. The `jobs.*` spans overlap (six
# units of a job wait and run side by side), so only their percentiles are
# reported; they are listed so that their time is not counted as glue.
LAYER_OF_SPAN = {
    "topology.build": "topology.build_s",
    "executor.setup": "executor.setup_s",
    "executor.step": "executor.step_s",
    "scheduler.fill": "scheduler.fill_s",
    "oracle.check": "oracle.check_s",
    "checkpoint.encode": "checkpoint.encode_s",
    "checkpoint.write": "checkpoint.write_s",
    "sweep.unit": "sweep.unit_s",
    "sweep.render": "sweep.render_s",
    "jobs.submit": "jobs.submit_s",
    "jobs.queue_wait": "jobs.queue_wait_s",
    "jobs.finish": "jobs.finish_s",
    "explore": "explore.s",
    "verify.render": "verify.render_s",
}


def _covered(intervals):
    """Total length of the union of `(start, end)` intervals."""
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time (ns) of every span: its duration minus the part of its
    interval that its children cover (folded children included)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        kids = [(max(a, s["start"]), min(b, s["end"]))
                for a, b in children.get(s["id"], []) if b > s["start"] and a < s["end"]]
        folded = sum(ns for ns, _ in s.get("folded", {}).values())
        out[s["id"]] = (s["end"] - s["start"]) - _covered(kids) - folded
    return out


def layer_self_seconds(spans):
    """Per-layer self seconds, plus `unattributed_s` (the self time of glue
    spans: time on a lane inside the traced run that no layer span covers)
    and the traced wall (the root span)."""
    selfs = self_times(spans)
    layers = {name: 0.0 for name in LAYER_OF_SPAN.values()}
    unattributed = 0.0
    wall = 0.0
    for s in spans:
        secs = selfs[s["id"]] / 1e9
        for name, (ns, _) in s.get("folded", {}).items():
            layers[LAYER_OF_SPAN[name]] += ns / 1e9
        layer = LAYER_OF_SPAN.get(s["name"])
        if layer:
            layers[layer] += secs
        else:
            unattributed += secs
        if s["parent"] == 0:
            wall = max(wall, (s["end"] - s["start"]) / 1e9)
    return layers, unattributed, wall


def read_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def scrubbed_env():
    """The environment minus every `SA_*` knob, so an inherited engine,
    fsync or fault-injection setting cannot change the measured program."""
    return {k: v for k, v in os.environ.items() if not k.startswith("SA_")}


class Reaper:
    """Tracks every child the benchmark starts; `reap_all` kills and waits
    for whatever is still running (used on every exit path)."""

    def __init__(self):
        self.children = []

    def spawn(self, argv, stdout, stderr, **kw):
        proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr,
                                env=scrubbed_env(), **kw)
        self.children.append(proc)
        return proc

    def reap_all(self):
        for proc in self.children:
            if proc.returncode is None:
                try:
                    proc.kill()
                except ProcessLookupError:
                    pass
                try:
                    _, status, _ = os.wait4(proc.pid, 0)
                    proc.returncode = os.waitstatus_to_exitcode(status)
                except ChildProcessError:
                    proc.returncode = -9
        self.children = []


def wait_rusage(proc, timeout_s):
    """Waits for `proc` (killing it after `timeout_s`), returning its exit
    code, user+sys CPU seconds and peak RSS in MB from its own rusage.

    The wait blocks: polling would wake this process hundreds of times a
    second on the vCPUs the measured program runs on."""
    def kill():
        if proc.returncode is None:
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    timer = threading.Timer(timeout_s, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    return proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def cpu_times():
    """The host's aggregate CPU time counters from /proc/stat (user, nice,
    system, idle, iowait, irq, softirq, steal), or None where there is no
    /proc/stat."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_share(before, after):
    """The share of CPU time the hypervisor stole between two `cpu_times`
    readings (None when either is missing)."""
    if not before or not after:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


# ---------------------------------------------------------------------------
# Output checks (each returns a list of problems; empty means correct)
# ---------------------------------------------------------------------------

def check_scale(doc, units, max_rounds, verify_rounds):
    """Every unit of the scale run is clean and stabilized within budget."""
    problems = []
    results = {u.get("id"): u.get("result", {}) for u in doc.get("units", [])}
    if len(results) != units:
        problems.append(f"expected {units} unit results, found {len(results)}")
    for uid, r in sorted(results.items()):
        rounds = r.get("stabilization_rounds")
        if rounds is None or rounds > max_rounds:
            problems.append(f"{uid}: did not stabilize within {max_rounds} rounds")
        if r.get("violations"):
            problems.append(f"{uid}: violations {r['violations'][:2]}")
        if r.get("verification_rounds") != verify_rounds:
            problems.append(f"{uid}: verified {r.get('verification_rounds')} rounds, "
                            f"expected {verify_rounds}")
        if r.get("unrecovered"):
            problems.append(f"{uid}: unrecovered bursts")
    return problems


# The verify-mix verdict table: unit-id prefix -> (space, mode, closure,
# convergence). These are properties of the algorithms, not digests.
EXPECTED_VERDICTS = {
    "AU": ("full", "fair-schedule", "certified", "certified"),
    "MIS": ("reachable-r2", "reachability-only", "certified", "certified"),
    "RESET": ("full", "fair-schedule", "certified", "VIOLATED"),
}


def check_verify(doc, traces_dir=None):
    """The verdict table equals the expected one (and the expected
    counterexample is on disk)."""
    problems = []
    seen = set()
    for u in doc.get("units", []):
        task = u.get("unit", "").split("-")[0]
        want = EXPECTED_VERDICTS.get(task)
        got = (u.get("space"), u.get("convergence_mode"), u.get("closure"),
               u.get("convergence"))
        if want is None:
            problems.append(f"unexpected unit {u.get('unit')}")
            continue
        seen.add(task)
        if got != want:
            problems.append(f"{u.get('unit')}: verdict {got}, expected {want}")
        if want[3] == "VIOLATED" and traces_dir is not None:
            path = os.path.join(traces_dir, f"{u.get('unit')}.convergence.json")
            try:
                with open(path) as f:
                    trace = json.load(f)
                if not trace:
                    problems.append(f"{path}: empty counterexample")
            except (OSError, ValueError) as e:
                problems.append(f"counterexample trace unreadable: {e}")
    for task in sorted(set(EXPECTED_VERDICTS) - seen):
        problems.append(f"missing unit for task {task}")
    if doc.get("certified") is not False:
        problems.append("report claims every unit certified")
    return problems


def check_response(resp, want_key=None):
    """A daemon response line is `ok` (and carries `want_key`)."""
    if not isinstance(resp, dict) or resp.get("ok") is not True:
        return [f"error response {resp!r}"[:200]]
    if want_key and want_key not in resp:
        return [f"response without {want_key}: {resp!r}"[:200]]
    return []


def check_job_finished(event, units):
    """A `job-finished` event reports a finished job with all `units` units
    done. Returns (problems, clean). An unclean unit is the simulated
    algorithm's verdict, not a serving failure: the caller checks such jobs
    against an in-process batch run instead."""
    status = event.get("status", {}) if isinstance(event, dict) else {}
    if status.get("state") != "finished" or status.get("units_done") != units:
        return [f"job ended {status.get('state')} with "
                f"{status.get('units_done')}/{units} units done"], False
    return [], status.get("clean") is True and status.get("units_clean") == units


# ---------------------------------------------------------------------------
# The result line
# ---------------------------------------------------------------------------

def benchmark_spec():
    with open(SPEC_FILE) as f:
        return json.load(f)


def result_line(values, attempted, failed, trace):
    """The final JSON line: every `end_to_end` metric (trace 0) or every
    `per_layer` metric (trace 1) of BENCHMARK.json, with its unit."""
    spec = benchmark_spec()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in declared}
    return json.dumps({
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    })
