"""Shared plumbing of the benchmark: paths, child processes, statistics.

The benchmark runs from the root of a source checkout.  Children find the
package through ``PYTHONPATH=src``; nothing is installed.  Scratch files
(service data directories, manifests, span dumps) live under
``.perfbench/`` in the checkout and are removed when a run ends.

Bounded times are host-normalized.  On a shared 2-CPU host the speed of
plain Python code drifts by up to 2x over seconds to minutes, and raw
wall times of runs a few minutes apart drift with it.  So the host's
speed is sampled with a fixed reference loop while each unit runs (by
:class:`HostProbe` inside the child doing the work, or by
:func:`ref_loop_s` around a block of service requests), and the unit's
wall time is scaled by ``REF_NOMINAL_S / reference time``: the result is
the unit's time on a host that runs the loop in ``REF_NOMINAL_S``.  The
loop touches no code of the repository, so a change to the program moves
normalized times by the same share as raw ones.  Raw times are printed
alongside.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench")

#: The paper's twelve experiments, in ``available_experiments()`` order.
EXPERIMENTS = (
    "adaptive",
    "availability",
    "calibration",
    "figure3",
    "figure4",
    "figure5",
    "figure6a",
    "figure6b",
    "headline",
    "network",
    "table1",
    "validation",
)

#: How many fresh set-ups one run times; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Iterations of the host-speed reference loop.
REF_LOOP_ITERATIONS = 100_000
#: A round figure for the reference loop's time on a 2-CPU Xeon VM with
#: Python 3.11 (3.3-12 ms measured); normalized times are seconds on a host
#: that runs the loop this fast.
REF_NOMINAL_S = 0.005

#: Bound on any child's lifetime, so a hung program fails the run instead
#: of hanging the benchmark.
CHILD_TIMEOUT_S = 150.0


def use_source_tree() -> None:
    """Make ``import repro`` resolve to the checkout's ``src``."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def scratch_dir(prefix: str) -> str:
    os.makedirs(SCRATCH, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=SCRATCH)


def remove_tree(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def python_child(args: list, **popen_kwargs) -> subprocess.Popen:
    """Start ``python <args>`` from the checkout root with the source tree."""
    return subprocess.Popen([sys.executable, *args], cwd=ROOT, env=_child_env(), **popen_kwargs)


def run_python(args: list, **run_kwargs) -> subprocess.CompletedProcess:
    """Run ``python <args>`` like :func:`python_child`, to completion."""
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=_child_env(), timeout=CHILD_TIMEOUT_S, **run_kwargs
    )


def stop_process(process: subprocess.Popen, grace_s: float = 10.0) -> None:
    """SIGTERM, then SIGKILL after ``grace_s``; always reaps the child."""
    if process.poll() is not None:
        return
    process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=grace_s)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest peak RSS of any child this process has reaped."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def median(values) -> float:
    return float(statistics.median(values))


def p50_p99(values) -> "tuple[float, float]":
    """Median and 99th percentile (inclusive method) of at least two values."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[49], cuts[98]


def _reference_loop(iterations: int) -> float:
    start = time.perf_counter()
    total = 0
    for value in range(iterations):
        total += value
    return time.perf_counter() - start


def ref_loop_s() -> float:
    """Host speed now: median of three timings of the reference loop."""
    return statistics.median(_reference_loop(REF_LOOP_ITERATIONS) for _ in range(3))


class HostProbe:
    """Samples the host's speed inside the process doing the work.

    A ``SIGALRM`` handler times a tenth of the reference loop every
    ``INTERVAL_S``, on whichever CPU the process runs at that moment, and
    keeps ``(start, seconds)``.  The handler runs between bytecodes of the
    main thread, so it costs the work about 2% of its time, the same share
    on every run.
    """

    ITERATIONS = REF_LOOP_ITERATIONS // 10
    INTERVAL_S = 0.02

    def __init__(self):
        self.samples: list = []
        self.started = None

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self.samples.append((start, _reference_loop(self.ITERATIONS)))

    def start(self) -> None:
        self.started = time.perf_counter()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def ref_s(self, start: float, end: float) -> float:
        """Median sample between ``start`` and ``end``, as reference-loop seconds."""
        inside = [seconds for at, seconds in self.samples if start <= at <= end]
        if not inside:
            # A unit shorter than the interval: its nearest sample.
            inside = [min(self.samples, key=lambda sample: abs(sample[0] - start))[1]]
        return statistics.median(inside) * REF_LOOP_ITERATIONS / self.ITERATIONS


#: The probe of a benchmark child process (``child.py`` starts it).
PROBE = HostProbe()


def timed(function) -> "tuple[object, float, float]":
    """Run ``function()`` after a full collection, under the running :data:`PROBE`.

    Returns ``(result, wall seconds, reference-loop seconds)``.  The
    collection keeps garbage left by earlier units from being collected
    inside this one, which otherwise varies a netsim leg's time by 1.5x.
    """
    gc.collect()
    start = time.perf_counter()
    result = function()
    end = time.perf_counter()
    return result, end - start, PROBE.ref_s(start, end)


def normalized(wall_s: float, ref_s: float) -> float:
    """``wall_s`` on a host that runs the reference loop in ``REF_NOMINAL_S``."""
    return wall_s * REF_NOMINAL_S / ref_s


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical(value) -> str:
    """Canonical JSON text, for exact comparison of served documents."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def load_pins() -> dict:
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as handle:
        return json.load(handle)


def host_info() -> dict:
    """Host facts printed with every result."""
    facts = {
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "git_sha": _git_sha(),
    }
    for module in ("numpy", "scipy"):
        try:
            facts[module] = __import__(module).__version__
        except ImportError:
            facts[module] = None
    return facts


def _git_sha() -> "str | None":
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else None


class Checks:
    """Counts checked operations and the ones whose output was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


def run_worker(
    role: str, seed: int, seconds: float, *, trace: bool = False, setup_only: bool = False
) -> "tuple[float, float, dict | None]":
    """Run one ``child.py`` worker.

    Returns ``(spawn-to-ready seconds, the worker's reference-loop seconds
    over its set-up, result)``.
    """
    args = [os.path.join(HERE, "child.py"), role, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        args.append("--trace")
    if setup_only:
        args.append("--setup-only")
    start = time.perf_counter()
    process = python_child(args, stdout=subprocess.PIPE, text=True)
    # Killing a hung worker closes its stdout, which ends the reads below.
    watchdog = threading.Timer(CHILD_TIMEOUT_S, process.kill)
    watchdog.start()
    try:
        ready = process.stdout.readline().split()
        setup_s = time.perf_counter() - start
        output = process.stdout.read()
    finally:
        watchdog.cancel()
        process.stdout.close()
        code = process.wait()
    if len(ready) != 2 or ready[0] != "ready" or code != 0:
        raise RuntimeError(f"{role} worker failed (exit code {code})")
    result = None if setup_only else json.loads(output.strip().splitlines()[-1])
    return setup_s, float(ready[1]), result


def worker_body(workload, seed: int, seconds: float, trace: bool, setup_only: bool) -> "dict | None":
    """Body of a ``netsim`` or ``coding`` worker process.

    ``workload`` provides ``prepare(seed)`` and ``run_round(state)``.  A
    round maps each timed unit to its outputs plus ``wall_s`` and ``ref_s``
    (see :func:`timed`).  Untraced, rounds repeat until ``seconds`` have
    passed.  Traced, one traced round sits between two untraced ones, so
    the overhead (traced minus untraced wall time) does not depend on order.
    """
    patches = recorder = None
    if trace:
        from spans import SpanRecorder, install_layer_patches

        recorder = SpanRecorder()
        patches = install_layer_patches(recorder)
    state = workload.prepare(seed)
    print("ready", PROBE.ref_s(PROBE.started, time.perf_counter()), flush=True)
    if setup_only:
        return None
    if trace:
        patches.uninstall()
        before = workload.run_round(state)
        patches.install()
        traced = workload.run_round(state)
        patches.uninstall()
        after = workload.run_round(state)
        return {"rounds": [before, traced, after], "spans": recorder.dump()}
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(workload.run_round(state))
    return {"rounds": rounds}


def run_in_worker(role: str, workload, seed: int, seconds: float, trace: bool, pins: dict):
    """Parent side of a worker workload; returns ``(metrics, checks, figures)``.

    ``workload`` also provides ``NAME``, ``WORKER_MODULES``,
    ``check_rounds(rounds, pin, checks)`` (returns the rounds that passed)
    and ``figures(rounds)`` (per-layer name -> ``(value, unit, samples)``).

    * ``setup_s``: median of ``SETUP_REPEATS`` normalized spawn-to-ready times.
    * ``work_s``: sum over units of the median normalized time of the unit.
    """
    pinned = pins[workload.NAME].get(str(seed))
    checks = Checks()
    if trace:
        metrics = import_breakdown(workload.WORKER_MODULES)
        _setup, _ref, result = run_worker(role, seed, seconds, trace=True)
        before, traced, after = result["rounds"]
        workload.check_rounds(result["rounds"], pinned, checks)
        from spans import layer_metrics

        metrics.update(layer_metrics(result["spans"], list(EXPERIMENTS)))
        metrics.update(
            {name: value for name, (value, _unit, _n) in workload.figures([before, after]).items()}
        )
        metrics["trace.overhead_s"] = sum(
            traced[unit]["wall_s"] - (before[unit]["wall_s"] + after[unit]["wall_s"]) / 2.0
            for unit in traced
        )
        return metrics, checks, {}

    setups = []
    for _ in range(SETUP_REPEATS - 1):
        setup_s, ref_s, _none = run_worker(role, seed, seconds, setup_only=True)
        setups.append(normalized(setup_s, ref_s))
    setup_s, ref_s, result = run_worker(role, seed, seconds)
    setups.append(normalized(setup_s, ref_s))
    passed = workload.check_rounds(result["rounds"], pinned, checks)
    metrics = {"setup_s": median(setups), "peak_rss_mb": result["peak_rss_mb"]}
    figures = {}
    if passed:
        metrics["work_s"] = sum(
            median([normalized(r[unit]["wall_s"], r[unit]["ref_s"]) for r in passed])
            for unit in passed[0]
        )
        figures = workload.figures(passed)
    if pinned is None:
        print(f"note: no {workload.NAME} pin for seed {seed}; pinned checks skipped")
    return metrics, checks, figures


def ref_figure(refs) -> dict:
    """The ``host.ref_loop_ms`` figure: median reference-loop time."""
    return {"host.ref_loop_ms": (median(refs) * 1e3, "ms", len(refs))}


def import_breakdown(modules: "list[str]") -> dict:
    """``import.*`` metrics: ``-X importtime`` self time per top package.

    Runs ``import <modules>`` in a fresh interpreter and sums the self
    time of every imported module by its top-level package.
    """
    statement = "; ".join(f"import {name}" for name in modules)
    completed = run_python(["-X", "importtime", "-c", statement], capture_output=True, text=True)
    if completed.returncode != 0:
        raise RuntimeError(f"import of {modules} failed:\n{completed.stderr[-2000:]}")
    by_package: dict[str, float] = {}
    for line in completed.stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, _cumulative, name = line[len("import time:") :].split("|")
        package = name.strip().split(".")[0]
        by_package[package] = by_package.get(package, 0.0) + int(self_us) / 1e6
    return {
        "import.scipy_s": by_package.get("scipy", 0.0),
        "import.numpy_s": by_package.get("numpy", 0.0),
        "import.repro_s": by_package.get("repro", 0.0),
    }
