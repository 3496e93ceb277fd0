"""Benchmark of the padiaphony CLI and library, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it uses ``src/`` directly.  A
pass runs the workload's jobs one after another, each job starting when the
previous one ends: a fresh ``python -m padiaphony ...`` child per CLI job,
and one child for the library calls of the pass.  Passes repeat for about
``--seconds`` seconds.  Every output is checked; a failed check counts as a
failed operation and the pass goes on.

Each child's wall and CPU times are scaled to a fixed host speed by a
calibration made just before and just after it (calibrate.py).  The pass
lines show both the raw and the scaled times.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones (medians over passes); with ``--trace 1`` passes
alternate untraced and traced, and the metrics are the per-layer ones,
taken from the traced passes.  See README.md for what each metric means.
"""

from __future__ import annotations

import os

# Fixed BLAS thread count for this process and every child, so OpenBLAS
# does not start threads of its own inside the Weyl-sum matmuls.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

from calibrate import REF_S, loop_time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(ROOT, ".perfbench_cache")
PY = sys.executable
SETUP_IMPORTS = 4  # before the passes, and one more after each pass
MIN_PASSES = 2
JOB_TIMEOUT_S = 150


class Child:
    """A finished child process: exit status, stdout and its resource use."""

    def __init__(self, argv: list[str], env: dict[str, str]):
        out_path = os.path.join(CACHE, "child.out")
        err_path = os.path.join(CACHE, "child.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.wall = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
        with open(out_path, "rb") as fh:
            self.stdout = fh.read()
        with open(err_path, "rb") as fh:
            self.stderr = fh.read().decode(errors="replace")[-2000:]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Bench:
    def __init__(self, workload: str, seed: int):
        from refs import load_halton_refs
        from workloads import LIBRARY_WORKLOADS, cli_jobs

        self.workload, self.seed = workload, seed
        self.env = child_env()
        self.jobs = cli_jobs(workload, seed, load_halton_refs())
        self.library = workload in LIBRARY_WORKLOADS
        if workload == "ingested-points":
            # Exact references, outside the timed passes and in a child: on
            # Linux a child's peak RSS includes that of the process it was
            # forked from, so the runner itself must stay small.
            child = Child([PY, os.path.join(HERE, "refs.py"), str(seed), CACHE], self.env)
            if child.code != 0:
                raise RuntimeError(f"ingested-points references failed:\n{child.stderr}")
        self.first_stdout: dict[str, bytes] = {}
        self.problems: list[str] = []
        self.loop_time = loop_time()

    def run_child(self, argv: list[str]) -> Child:
        """Run one child between two calibrations (the one that ends a child
        starts the next).  ``scaled_wall`` and ``scaled_cpu`` are its times
        at the reference host speed."""
        before = self.loop_time
        child = Child(argv, self.env)
        self.loop_time = loop_time()
        scale = REF_S / ((before + self.loop_time) / 2)
        child.scaled_wall, child.scaled_cpu = child.wall * scale, child.cpu * scale
        return child

    def setup_time(self) -> float:
        """Scaled wall time of one fresh-interpreter ``import padiaphony``."""
        child = self.run_child([PY, "-c", "import padiaphony"])
        if child.code != 0:
            raise RuntimeError(f"import padiaphony failed:\n{child.stderr}")
        return child.scaled_wall

    def run_pass(self, traced: bool) -> dict:
        from tracing import summarize
        from workloads import check_cli

        rec = {"wall": 0.0, "cpu": 0.0, "raw_wall": 0.0, "raw_cpu": 0.0, "rss": 0.0,
               "attempted": 0, "ok": 0, "failed": 0, "known": 0, "kernel_errs": [],
               "totals": {}}
        spans = os.path.join(CACHE, "spans.json")

        def account(child: Child):
            rec["wall"] += child.scaled_wall
            rec["cpu"] += child.scaled_cpu
            rec["raw_wall"] += child.wall
            rec["raw_cpu"] += child.cpu
            rec["rss"] = max(rec["rss"], child.rss_mb)
            if traced and os.path.exists(spans):
                with open(spans, encoding="utf-8") as fh:
                    sums = summarize(json.load(fh))
                sums["child_start_s"] = child.wall - sums["cli_main_s"] if sums["cli_main_s"] else 0.0
                for key, value in sums.items():
                    rec["totals"][key] = rec["totals"].get(key, 0) + value

        for job in self.jobs:
            if os.path.exists(spans):
                os.remove(spans)
            if traced:
                argv = [PY, os.path.join(HERE, "tracing.py"), spans, *job.argv]
            else:
                argv = [PY, "-m", "padiaphony", *job.argv]
            child = self.run_child(argv)
            account(child)
            outcome = check_cli(job, child.code, child.stdout)
            first = self.first_stdout.setdefault(job.name, child.stdout)
            if child.stdout != first:
                outcome.problems.append(f"{job.name}: stdout differs from the first pass")
            if child.code != 0:
                outcome.problems.append(child.stderr)
            self._record(rec, [{"ok": not outcome.problems, "known": False,
                                "problems": outcome.problems,
                                "kernel_errs": outcome.kernel_errs}])
        if self.library:
            if os.path.exists(spans):
                os.remove(spans)
            argv = [PY, os.path.join(HERE, "libjobs.py"), self.workload, str(self.seed), CACHE]
            child = self.run_child(argv + ([spans] if traced else []))
            account(child)
            try:
                ops = json.loads(child.stdout.decode().splitlines()[-1])["ops"]
            except (ValueError, IndexError, KeyError):
                ops = [{"ok": False, "known": False, "kernel_errs": [],
                        "problems": [f"library child exited {child.code}: {child.stderr}"]}]
            self._record(rec, ops)
        return rec

    def _record(self, rec: dict, ops: list[dict]) -> None:
        for op in ops:
            rec["attempted"] += 1
            rec["ok"] += op["ok"]
            rec["known"] += op["known"]
            rec["failed"] += bool(op["problems"])
            rec["kernel_errs"] += op["kernel_errs"]
            self.problems += op["problems"]


def report(name: str, unit: str, values: list[float], what: str) -> float:
    q1, med, q3 = quartiles(values)
    print(f"{name}: median {med:.6g} {unit}, q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)} {what}")
    return med


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like on Ctrl-C, so the running child is killed too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "padiaphony", "__init__.py")):
        print(f"error: no padiaphony sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    os.makedirs(CACHE, exist_ok=True)

    import numpy

    print(json.dumps({"machine": {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "blas_threads": BLAS_THREADS}}))
    bench = Bench(args.workload, args.seed)
    setup = [bench.setup_time() for _ in range(SETUP_IMPORTS)]

    passes: list[tuple[bool, dict]] = []
    began = time.perf_counter()
    pass_time = 0.0
    while len(passes) < MIN_PASSES or time.perf_counter() - began + pass_time <= args.seconds:
        traced = bool(args.trace) and len(passes) % 2 == 1
        t0 = time.perf_counter()
        rec = bench.run_pass(traced)
        pass_time = time.perf_counter() - t0
        passes.append((traced, rec))
        setup.append(bench.setup_time())
        print(f"pass {len(passes)}{' traced' if traced else ''}: wall {rec['wall']:.4f} s "
              f"(raw {rec['raw_wall']:.4f}), cpu {rec['cpu']:.4f} s (raw {rec['raw_cpu']:.4f}), "
              f"peak rss {rec['rss']:.1f} MB, "
              f"ok {rec['ok']}/{rec['attempted']}, known defects {rec['known']}")

    plain = [rec for traced, rec in passes if not traced]
    attempted = sum(rec["attempted"] for _, rec in passes)
    ok = sum(rec["ok"] for _, rec in passes)
    failed = sum(rec["failed"] for _, rec in passes)
    for problem in bench.problems:
        print(f"check failed: {problem}")

    metrics = {}
    if not args.trace:
        npass = "passes"
        metrics["wall_s"] = (report("wall_s", "s", [r["wall"] for r in plain], npass), "s")
        metrics["cpu_s"] = (report("cpu_s", "s", [r["cpu"] for r in plain], npass), "s")
        metrics["peak_rss_mb"] = (report("peak_rss_mb", "MB", [r["rss"] for r in plain], npass), "MB")
        metrics["setup_s"] = (report("setup_s", "s", setup, "imports"), "s")
        metrics["ok_ratio"] = (ok / attempted, "1")
        print(f"ok_ratio: {ok}/{attempted} operations")
    else:
        metrics.update(layer_report(passes))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "1" if name.endswith("rel_err") else "count"


def layer_report(passes) -> dict[str, tuple[float, str]]:
    from tracing import layer_metrics

    traced = [rec for t, rec in passes if t]
    plain = [rec for t, rec in passes if not t]
    per_pass = []
    for rec in traced:
        row = layer_metrics(rec["totals"])
        row["diaphony.f2_max_rel_err"] = max(rec["kernel_errs"], default=0.0)
        per_pass.append(row)
    out = {}
    for name in per_pass[0]:
        unit = layer_unit(name)
        out[name] = (report(name, unit, [row[name] for row in per_pass], "traced passes"), unit)
    overhead = (statistics.median(r["wall"] for r in traced)
                - statistics.median(r["wall"] for r in plain))
    print(f"trace_overhead_s: {overhead:.6g} s (traced minus untraced median wall_s)")
    out["trace_overhead_s"] = (overhead, "s")
    return out


if __name__ == "__main__":
    sys.exit(main())
