"""Workload ``service_mixed``: ``repro-serve`` under one closed-loop client.

The server runs in a child process on a fresh data directory, pinned to
the same CPU as the client.  One keep-alive client (one connection, one
thread) repeats a cycle: a
``GET /design`` for a point not yet solved (a miss: a solve plus an
append to the persistent design cache, the write path), then ten
``GET /design`` for points already solved (hits: the read path).  A few
times per run it submits a small sweep job (``table1`` once, then
``figure5`` over seeded target BERs), polls it to ``done`` and fetches
the result; the forked worker runs while the client waits.  The seed
drives the target BERs, the codes and the order of the hits.

* ``setup_s``: spawn of ``repro-serve`` until ``/readyz`` answers 200.
* ``work_s``: the sum over the five codes of the median time of a client
  cycle (1 miss + 10 hits) whose miss asks for that code, so a change to
  coded solves, to uncoded points or to hits each moves it.
* ``peak_rss_mb``: peak RSS of the server process.
* checks (any seed): every reply is 2xx; each served point equals
  ``OpticalLinkDesigner().design_point`` computed here; each job ends
  ``done`` and its result equals a direct ``run_experiment``.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import random
import re
import time

from common import (
    CHILD_TIMEOUT_S,
    HERE,
    SETUP_REPEATS,
    Checks,
    canonical,
    median,
    normalized,
    p50_p99,
    python_child,
    ref_figure,
    ref_loop_s,
    remove_tree,
    scratch_dir,
    stop_process,
)

#: Codes the client asks about (registry names accepted by ``/design``).
CODES = ("h(71,64)", "secded(72,64)", "bch(63,t=2)", "h(7,4)", "uncoded")
MISSES_PER_SECOND = 100
#: At least ten samples lie beyond the miss p99.
MIN_MISSES = 1000
#: Client cycles between two probes of the host speed.
CYCLES_PER_REF = 25
HITS_PER_MISS = 10
JOBS_PER_RUN = 5
JOB_POLL_S = 0.002
WORKER_MODULES = ["repro.service.server"]


class _Client:
    """One keep-alive connection that times every request."""

    def __init__(self, url: str):
        host, port = url.split("//", 1)[1].rsplit(":", 1)
        self._connection = http.client.HTTPConnection(host, int(port), timeout=60)
        self.latencies: list[float] = []

    def request(self, method: str, path: str, body=None) -> "tuple[int, dict, float]":
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if payload is not None else {}
        start = time.perf_counter()
        self._connection.request(method, path, body=payload, headers=headers)
        response = self._connection.getresponse()
        data = response.read()
        elapsed = time.perf_counter() - start
        self.latencies.append(elapsed)
        return response.status, json.loads(data), elapsed

    def close(self) -> None:
        self._connection.close()


class _Server:
    """``repro-serve`` in a child process (through ``child.py serve``)."""

    def __init__(self, trace: bool):
        self.work = scratch_dir("service-")
        self.data_dir = os.path.join(self.work, "data")
        self._out = os.path.join(self.work, "out.json")
        self._log = os.path.join(self.work, "stderr.txt")
        args = [os.path.join(HERE, "child.py"), "serve", "--out", self._out]
        if trace:
            args.append("--trace")
        args += ["--port", "0", "--data-dir", self.data_dir, "--log-level", "warning"]
        gc.collect()
        ref_before = ref_loop_s()
        start = time.perf_counter()
        with open(self._log, "wb") as log:
            self.process = python_child(args, stderr=log)
        try:
            self.url = self._wait_for_url()
            self.client = _Client(self.url)
            while True:
                status, _payload, _elapsed = self.client.request("GET", "/readyz")
                if status == 200:
                    break
                self._guard()
                time.sleep(0.005)
        except BaseException:
            stop_process(self.process)
            remove_tree(self.work)
            raise
        wall = time.perf_counter() - start
        #: Spawn to ready, normalized by the host speed around it.
        self.setup_s = normalized(wall, (ref_before + ref_loop_s()) / 2.0)

    def _guard(self) -> None:
        if self.process.poll() is not None:
            with open(self._log, encoding="utf-8", errors="replace") as log:
                raise RuntimeError(f"repro-serve exited early:\n{log.read()[-2000:]}")

    def _wait_for_url(self) -> str:
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        pattern = re.compile(r"listening on (http://\S+)")
        while time.monotonic() < deadline:
            with open(self._log, encoding="utf-8", errors="replace") as log:
                match = pattern.search(log.read())
            if match:
                return match.group(1)
            self._guard()
            time.sleep(0.005)
        raise TimeoutError("repro-serve did not report its address")

    def job_runtimes(self) -> list:
        """Worker wall time of each finished job, from the job manifests."""
        runtimes = []
        jobs_dir = os.path.join(self.data_dir, "jobs")
        for job_id in sorted(os.listdir(jobs_dir)) if os.path.isdir(jobs_dir) else ():
            path = os.path.join(jobs_dir, job_id, f"job-{job_id}.manifest.json")
            if os.path.exists(path):
                with open(path, encoding="utf-8") as handle:
                    attempts = json.load(handle).get("attempts") or []
                runtimes += [attempt["elapsed_s"] for attempt in attempts if "elapsed_s" in attempt]
        return runtimes

    def stop(self) -> dict:
        """Drain the server (SIGTERM); returns what the child wrote on exit."""
        self.client.close()
        try:
            stop_process(self.process, grace_s=60.0)
            with open(self._out, encoding="utf-8") as handle:
                return json.load(handle)
        finally:
            remove_tree(self.work)


def _inputs(seed: int, seconds: float) -> dict:
    """The seeded request plan: miss points, hit order, job options."""
    rng = random.Random(seed)
    num_misses = max(MIN_MISSES, int(round(MISSES_PER_SECOND * seconds)))
    misses, seen = [], set()
    while len(misses) < num_misses:
        point = (rng.choice(CODES), float(f"{10 ** rng.uniform(-15.0, -4.0):.6e}"))
        if point not in seen:
            seen.add(point)
            misses.append(point)
    hits = [[rng.randrange(index + 1) for _ in range(HITS_PER_MISS)] for index in range(num_misses)]
    jobs = [("table1", None)]
    for _ in range(JOBS_PER_RUN - 1):
        bers = sorted(float(f"{10 ** rng.uniform(-13.0, -5.0):.3e}") for _ in range(3))
        jobs.append(("figure5", {"target_bers": bers, "codes": ["H(71,64)", "H(7,4)"]}))
    return {"misses": misses, "hits": hits, "jobs": jobs}


def _design_path(point) -> str:
    code, ber = point
    return f"/design?code={code}&target_ber={ber!r}"


def _run_job(client: _Client, experiment: str, options, checks: Checks):
    """Submit, poll to a terminal state, fetch; ``(seconds, result)``."""
    start = time.perf_counter()
    status, view, _ = client.request(
        "POST", "/jobs", {"experiment": experiment, "options": options}
    )
    if not checks.check(status in (200, 202), f"job submit answered {status}: {view}"):
        return None, None
    job_id = view["job_id"]
    while view["state"] not in ("done", "dead"):
        if time.perf_counter() - start > CHILD_TIMEOUT_S:
            break
        time.sleep(JOB_POLL_S)
        status, view, _ = client.request("GET", f"/jobs/{job_id}")
        if not checks.check(status == 200, f"job poll answered {status}"):
            return None, None
    elapsed = time.perf_counter() - start
    if not checks.check(view["state"] == "done", f"job {experiment} ended {view['state']}"):
        return None, None
    status, body, _ = client.request("GET", f"/jobs/{job_id}/result")
    if not checks.check(status == 200, f"job result answered {status}"):
        return None, None
    return elapsed, body["result"]


def _drive(server: _Server, plan: dict, checks: Checks) -> dict:
    """The closed-loop mix; returns latencies, cycles, served documents and jobs."""
    client = server.client
    misses, hits, jobs = plan["misses"], plan["hits"], plan["jobs"]
    job_at = {
        (index + 1) * len(misses) // (len(jobs) + 1): job for index, job in enumerate(jobs)
    }
    served: dict = {}
    miss_ms, hit_ms, job_s, job_results = [], [], [], []
    cycles = []  # (code of the miss, wall s, host-speed block)
    block_refs = [ref_loop_s()]
    for index, point in enumerate(misses):
        if index and index % CYCLES_PER_REF == 0:
            block_refs.append(ref_loop_s())
        if index in job_at:
            experiment, options = job_at[index]
            elapsed, result = _run_job(client, experiment, options, checks)
            if elapsed is not None:
                job_s.append(elapsed)
                job_results.append((experiment, options, result))
        cycle_start = time.perf_counter()
        cycle_ok = True
        for position, target in enumerate([index, *hits[index]]):
            status, body, elapsed = client.request("GET", _design_path(misses[target]))
            expect_cached = position > 0
            ok = checks.check(
                status == 200 and body.get("cached") is expect_cached,
                f"design {misses[target]} answered {status}, cached={body.get('cached')}",
            )
            cycle_ok &= ok
            if ok:
                served.setdefault(misses[target], set()).add(canonical(body["point"]))
                (hit_ms if expect_cached else miss_ms).append(elapsed * 1e3)
        if cycle_ok:
            cycles.append((point[0], time.perf_counter() - cycle_start, len(block_refs) - 1))
    block_refs.append(ref_loop_s())
    return {
        "miss_ms": miss_ms,
        "hit_ms": hit_ms,
        # Each cycle's reference time is the mean of its block's two probes.
        "cycles": [
            (code, wall, (block_refs[block] + block_refs[block + 1]) / 2.0)
            for code, wall, block in cycles
        ],
        "job_s": job_s,
        "served": served,
        "jobs": job_results,
    }


def _check_outputs(outcome: dict, checks: Checks) -> None:
    """Served points and job results against direct calls in this process."""
    from dataclasses import asdict

    from repro.coding import get_code
    from repro.experiments.orchestrator import run_experiment
    from repro.link.design import OpticalLinkDesigner

    designer = OpticalLinkDesigner()
    for (code, ber), documents in outcome["served"].items():
        expected = canonical(json.loads(json.dumps(asdict(designer.design_point(get_code(code), ber)))))
        checks.check(documents == {expected}, f"served point {code} @ {ber} differs from a direct solve")
    for experiment, options, result in outcome["jobs"]:
        text, rows = run_experiment(experiment, options=options)
        expected = canonical(json.loads(json.dumps({"text": text, "rows": rows})))
        checks.check(canonical(result) == expected, f"job {experiment} {options} differs from run_experiment")


def _work_s(cycles: list) -> float:
    """Sum over codes of the median normalized cycle time of the code's misses."""
    by_code: dict = {}
    for code, wall, ref in cycles:
        by_code.setdefault(code, []).append(normalized(wall, ref))
    return sum(median(times) for times in by_code.values())


def _figures(outcome: dict) -> dict:
    """Raw client latencies and job times, and the host speed."""
    figures = {}
    for kind in ("miss", "hit"):
        samples = outcome[f"{kind}_ms"]
        if len(samples) >= 2:
            p50, p99 = p50_p99(samples)
            figures[f"service.design_{kind}.p50_ms"] = (p50, "ms", len(samples))
            figures[f"service.design_{kind}.p99_ms"] = (p99, "ms", len(samples))
    if outcome["job_s"]:
        figures["service.job_s"] = (median(outcome["job_s"]), "s", len(outcome["job_s"]))
    if outcome["cycles"]:
        figures.update(ref_figure([ref for _code, _wall, ref in outcome["cycles"]]))
    return figures


def run(seed: int, seconds: float, trace: bool, pins: dict) -> "tuple[dict, Checks, dict]":
    """Returns ``(metrics, checks, per-layer figures)``."""
    from common import EXPERIMENTS, import_breakdown

    # Client and server share one CPU, so the reference loop the client
    # times between blocks of cycles runs where the server works.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    checks = Checks()
    plan = _inputs(seed, seconds)
    if trace:
        # The same plan on an untraced, then a traced server: the
        # difference of their summed cycle times is the tracing overhead.
        metrics = import_breakdown(WORKER_MODULES)
        cycle_walls = []
        for traced in (False, True):
            server = _Server(trace=traced)
            try:
                outcome = _drive(server, plan, checks)
                job_runtimes = server.job_runtimes()
            finally:
                latencies = sum(server.client.latencies)
                exit_report = server.stop()
            # Cycles exclude the job waits, whose length depends on the
            # forked worker, not on tracing.
            cycle_walls.append(sum(wall for _code, wall, _ref in outcome["cycles"]))
            _check_outputs(outcome, checks)
            if not traced:
                metrics.update(
                    {name: value for name, (value, _unit, _n) in _figures(outcome).items()}
                )
                continue
            from spans import ROUTES, layer_metrics

            dump = exit_report["spans"]
            metrics.update(layer_metrics(dump, list(EXPERIMENTS)))
            dispatched = sum(
                dump["spans"].get(f"service.dispatch.{route}", {}).get("total_s", 0.0)
                for route in (*ROUTES, "other")
            )
            metrics["service.http_s"] = latencies - dispatched
            if job_runtimes:
                metrics["service.job.run_s"] = median(job_runtimes)
        metrics["trace.overhead_s"] = cycle_walls[1] - cycle_walls[0]
        return metrics, checks, {}

    setups = []
    for attempt in range(SETUP_REPEATS):
        server = _Server(trace=False)
        setups.append(server.setup_s)
        if attempt < SETUP_REPEATS - 1:
            server.stop()
    try:
        outcome = _drive(server, plan, checks)
    finally:
        exit_report = server.stop()
    _check_outputs(outcome, checks)
    metrics = {"setup_s": median(setups), "peak_rss_mb": exit_report["peak_rss_mb"]}
    if outcome["cycles"]:
        metrics["work_s"] = _work_s(outcome["cycles"])
    return metrics, checks, _figures(outcome)
