"""In-memory span tracing of padiaphony's public functions, from outside.

``Tracer.install`` replaces each traced function at the module globals its
callers look it up in (``padiaphony.cli``, ``padiaphony.diaphony`` and the
package namespace) by a wrapper that records a span: name, start, end,
parent, whether it ended in an exception, and a work count.  Spans are
written out once, when the process ends.  The library is not edited.

Run as a script it traces one CLI invocation:

    python3 perfbench/tracing.py SPANS.json diaphony --dim 4 --count 2048
"""

from __future__ import annotations

import json
import math
import sys
import time

LAYERS = ("cli", "halton", "padic", "kernel", "weights", "diaphony")


def _table_work(args, kwargs, table):
    system = kwargs.get("system", args[3] if len(args) > 3 else "padic")
    n = int(round(table.flat[0].real))  # the origin entry is the point count
    return {"entries": table.size, "ops": n * table.size, "walsh": system == "walsh"}


def _verify_work(args, kwargs, report):
    bases, box = args[1], args[2] if len(args) > 2 else kwargs["box"]
    return {"indices": math.prod(p**g for p, g in zip(bases.primes, box.exponents)) - 1}


def _prefix_work(args, kwargs, reports):
    n = max((r.n_points for r in reports), default=0)
    return {"pairs": n * (n - 1) // 2}


# function name -> work count taken from (args, kwargs, result)
_WORK = {
    "diaphony_kernel_prefixes": _prefix_work,
    "weyl_sum_table": _table_work,
    "verify_weyl_bound": _verify_work,
    "point_from_values": lambda a, k, r: {"coords": r.dimension},
}

# module -> names wrapped at that module's globals
_TARGETS = {
    "padiaphony": ("diaphony_kernel", "diaphony_spectral", "enclosure_grid",
                   "weyl_sum_table", "point_from_values", "halton_stream"),
    "padiaphony.cli": ("halton_stream", "diaphony_kernel", "diaphony_kernel_prefixes",
                       "diaphony_spectral", "halton_diaphony_bound", "verify_weyl_bound",
                       "worst_case_error"),
    "padiaphony.diaphony": ("halton_stream", "kernel_value", "weyl_sum_table",
                            "diaphony_kernel_prefixes", "truncated_spectral_sum",
                            "truncated_weight_mass"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, error, work]
        self._stack: list[int] = []
        self._wrappers: dict[int, object] = {}

    def _open(self, name: str) -> int:
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1, False, None])
        return len(self.spans) - 1

    def wrap(self, fn):
        """A wrapper recording one span per call of ``fn``."""
        if id(fn) in self._wrappers:
            return self._wrappers[id(fn)]
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        work = _WORK.get(fn.__name__)
        if fn.__name__ == "halton_stream":
            wrapper = self._wrap_stream(fn, name)
        else:
            def wrapper(*args, **kwargs):
                idx = self._open(name)
                self._stack.append(idx)
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    self.spans[idx][4] = True
                    raise
                finally:
                    self._stack.pop()
                    self.spans[idx][2] = time.perf_counter()
                if work is not None:
                    self.spans[idx][5] = work(args, kwargs, result)
                return result
        self._wrappers[id(fn)] = wrapper
        return wrapper

    def _wrap_stream(self, fn, name):
        # halton_stream returns a lazy generator: its span runs until the
        # generator is exhausted or closed, so it covers the consumption.
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                gen = fn(*args, **kwargs)
            except BaseException:
                self.spans[idx][2] = time.perf_counter()
                self.spans[idx][4] = True
                raise

            def consume():
                count = 0
                try:
                    for point in gen:
                        count += 1
                        yield point
                except BaseException:
                    self.spans[idx][4] = True
                    raise
                finally:
                    self.spans[idx][2] = time.perf_counter()
                    self.spans[idx][5] = {"points": count}
            return consume()
        return wrapper

    def install(self) -> None:
        for module_name, names in _TARGETS.items():
            __import__(module_name)
            module = sys.modules[module_name]
            for attr in names:
                setattr(module, attr, self.wrap(getattr(module, attr)))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer sums over one process's spans; self time is a span's time
    minus the time its direct children cover."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, error, work in spans:
        if parent >= 0 and end is not None:
            child_time[parent] += end - start
    out = {f"{layer}.errors": 0 for layer in LAYERS}
    out.update({key: 0.0 for key in (
        "kernel_fast_s", "pairs", "table_s", "entries", "dense_ops", "walsh_s",
        "reduce_s", "verify_self_s", "indices", "stream_s", "points", "ingest_s",
        "coords", "value_s", "oracle_pairs", "tail_s", "cli_self_s", "cli_main_s")})
    for i, (name, start, end, parent, error, work) in enumerate(spans):
        if end is None:
            continue
        dur = end - start
        own = dur - child_time[i]
        work = work or {}
        out[f"{name.split('.', 1)[0]}.errors"] += bool(error)
        func = name.split(".", 1)[1]
        if func == "diaphony_kernel_prefixes":
            out["kernel_fast_s"] += dur
            out["pairs"] += work.get("pairs", 0)
        elif func == "weyl_sum_table":
            if work.get("walsh"):
                out["walsh_s"] += dur
            else:
                out["table_s"] += dur
                out["entries"] += work.get("entries", 0)
                out["dense_ops"] += work.get("ops", 0)
        elif func in ("diaphony_spectral", "truncated_spectral_sum", "enclosure_grid"):
            out["reduce_s"] += own
        elif func == "verify_weyl_bound":
            out["verify_self_s"] += own
            out["indices"] += work.get("indices", 0)
        elif func == "halton_stream":
            out["stream_s"] += dur
            out["points"] += work.get("points", 0)
        elif func == "point_from_values":
            out["ingest_s"] += dur
            out["coords"] += work.get("coords", 0)
        elif func == "kernel_value":
            out["value_s"] += dur
            out["oracle_pairs"] += 1
        elif func == "truncated_weight_mass":
            out["tail_s"] += dur
        elif func == "main":
            out["cli_self_s"] += own
            out["cli_main_s"] += dur
    return out


def layer_metrics(totals: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics of one pass from its summed span totals."""
    def rate(work, secs):
        return work / secs if secs > 0 else 0.0

    t = totals
    out = {
        "diaphony.kernel_fast_s": t["kernel_fast_s"],
        "diaphony.kernel_pairs_per_s": rate(t["pairs"], t["kernel_fast_s"]),
        "diaphony.table_s": t["table_s"],
        "diaphony.table_entries": t["entries"],
        "diaphony.table_dense_ops_per_s": rate(t["dense_ops"], t["table_s"]),
        "diaphony.walsh_table_s": t["walsh_s"],
        "diaphony.reduce_s": t["reduce_s"],
        "diaphony.verify_self_s": t["verify_self_s"],
        "diaphony.verify_indices_per_s": rate(t["indices"], t["verify_self_s"]),
        "halton.stream_s": t["stream_s"],
        "halton.points_per_s": rate(t["points"], t["stream_s"]),
        "padic.ingest_s": t["ingest_s"],
        "padic.ingest_coords_per_s": rate(t["coords"], t["ingest_s"]),
        "kernel.value_s": t["value_s"],
        "kernel.oracle_pairs_per_s": rate(t["oracle_pairs"], t["value_s"]),
        "weights.tail_s": t["tail_s"],
        "cli.self_s": t["cli_self_s"],
        "cli.child_start_s": t["child_start_s"],
    }
    out.update({f"{layer}.errors": t[f"{layer}.errors"] for layer in LAYERS})
    return out


def _cli_child() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from padiaphony import cli

    try:
        return tracer.wrap(cli.main)(argv)
    finally:
        tracer.dump(path)


if __name__ == "__main__":
    sys.exit(_cli_child())
