"""Span tracer for the traced benchmark run.

Installed only in the traced iteration, from the benchmark's own files:
it wraps formlap's public functions where the layers meet, records one
span per call (name, start, end, parent span) in memory, and writes
them out when the run ends.  All spans of one run share a run id.

Q(J) arithmetic is counted, not spanned: at over a million calls per
sweep a span each would dominate the run.  Operands of a sample of
additions and multiplications are kept and timed after the run.
Torus matrix products are counted the same way, together with their
scalar multiplications computed from the operand shapes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import sys
import time
import uuid
from collections import Counter
from pathlib import Path

# (module, attribute, span name, hook); a hook wraps the call to record
# the span's extra value (cache miss, matrix identity, mesh size)
SPANNED = [
    ("formlap.forms", "OperatorPoly.__mul__", "forms.opoly_mul", None),
    ("formlap.forms", "to_operator_poly", "forms.to_operator_poly", None),
    ("formlap.tractor", "apply_box", "tractor.apply_box", None),
    ("formlap.factory", "run_pipeline", "factory.run_pipeline", "cache"),
    ("formlap.factory", "build_tmodbox", "factory.tmodbox", "cache"),
    ("formlap.factory", "closed_factors", "factory.closed_factors", None),
    ("formlap.verify", "verify_factorization", "verify.factorization", None),
    ("formlap.verify", "verify_MMstar", "verify.MMstar", None),
    ("formlap.verify", "verify_LG", "verify.LG", None),
    ("formlap.verify", "verify_bezout_pairs", "verify.bezout", None),
    ("formlap.verify", "verify_kernel_decomposition", "verify.kernel", None),
    ("formlap.verify", "bezout", "verify.bezout_solve", None),
    ("formlap.spectral", "synthetic_model", "spectral.synthetic_model", None),
    ("formlap.spectral", "kernel_dim", "spectral.kernel_dim", None),
    ("formlap.torus", "pipeline_L_numeric", "torus.pipeline", None),
    ("formlap.torus", "box_matrix", "torus.box_matrix", None),
    ("formlap.torus", "symbolic_mode_matrix", "torus.symbolic", None),
    ("formlap.dec", "build_mesh", "dec.build_mesh", "mesh"),
    ("formlap.dec", "subdivide_barycentric", "dec.subdivide", "mesh"),
    ("formlap.dec", "integer_rank", "dec.rank", "matrix"),
    ("formlap.dec", "is_well_centered", "dec.well_centered", None),
    ("formlap.dec", "hodge_stars", "dec.hodge_stars", None),
    ("formlap.dec", "spectrum", "dec.spectrum", None),
    ("formlap.whitney", "whitney_masses", "whitney.masses", None),
    ("formlap.whitney", "galerkin_laplacian", "whitney.galerkin", None),
    ("formlap.cli", "_emit_report", "cli.emit", None),
]

THEOREM_SPANS = ("verify.factorization", "verify.MMstar", "verify.LG",
                 "verify.bezout", "verify.kernel")

RATJ_OPS = {"__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
            "__mul__": "mul", "__rmul__": "mul", "__truediv__": "div",
            "__rtruediv__": "div", "inv": "inv"}
SAMPLE_EVERY = 997      # keep the operands of every 997th addition / multiplication
SAMPLE_MAX = 400
SAMPLE_REPS = 5

# (name, unit, better): every per-layer metric the traced run reports
LAYER_METRICS = [
    ("coeffring.ratj_ops", "count", "lower"),
    ("coeffring.ratj_add_us", "us", "lower"),
    ("coeffring.ratj_mul_us", "us", "lower"),
    ("forms.opoly_mul_calls", "count", "lower"),
    ("forms.opoly_mul_s", "s", "lower"),
    ("forms.to_operator_poly_s", "s", "lower"),
    ("tractor.apply_box_calls", "count", "lower"),
    ("tractor.apply_box_s", "s", "lower"),
    ("tractor.apply_box_us", "us", "lower"),
    ("factory.run_pipeline_s", "s", "lower"),
    ("factory.run_pipeline_ms", "ms", "lower"),
    ("factory.pipelines_built", "count", "lower"),
    ("factory.pipeline_hit_ratio", "ratio", "higher"),
    ("factory.tmodbox_s", "s", "lower"),
    ("factory.tmodbox_hit_ratio", "ratio", "higher"),
    ("factory.closed_factors_s", "s", "lower"),
    ("verify.factorization_s", "s", "lower"),
    ("verify.MMstar_s", "s", "lower"),
    ("verify.LG_s", "s", "lower"),
    ("verify.bezout_s", "s", "lower"),
    ("verify.kernel_s", "s", "lower"),
    ("verify.checks", "count", "higher"),
    ("verify.check_p50_ms", "ms", "lower"),
    ("verify.check_p99_ms", "ms", "lower"),
    ("verify.bezout_solves", "count", "lower"),
    ("verify.bezout_solve_us", "us", "lower"),
    ("spectral.synthetic_model_s", "s", "lower"),
    ("spectral.kernel_dim_s", "s", "lower"),
    ("torus.modes", "count", "higher"),
    ("torus.mode_p50_ms", "ms", "lower"),
    ("torus.mode_p95_ms", "ms", "lower"),
    ("torus.pipeline_s", "s", "lower"),
    ("torus.box_matrix_s", "s", "lower"),
    ("torus.symbolic_s", "s", "lower"),
    ("torus.matmuls", "count", "lower"),
    ("torus.entry_mults", "count_computed", "lower"),
    ("dec.build_mesh_s", "s", "lower"),
    ("dec.subdivide_s", "s", "lower"),
    ("dec.edges", "count", "higher"),
    ("dec.rank_s", "s", "lower"),
    ("dec.rank_calls", "count", "lower"),
    ("dec.rank_unique_ratio", "ratio", "higher"),
    ("dec.flag_passes", "count", "lower"),
    ("dec.well_centered_s", "s", "lower"),
    ("dec.hodge_stars_s", "s", "lower"),
    ("dec.solve_s", "s", "lower"),
    ("whitney.masses_s", "s", "lower"),
    ("whitney.galerkin_s", "s", "lower"),
    ("cli.emit_s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("trace_overhead", "ratio", "lower"),
]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list (layer not exercised)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tracer:
    """Spans and counters of one traced iteration."""

    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex
        self.spans: list[list] = []     # [name, start, end, parent index, extra]
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.ratj_counts: Counter = Counter()
        self.samples: dict[str, list] = {"add": [], "mul": []}
        self._ratj_depth = [0]

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import formlap.cli  # noqa: F401  (every module the wrappers reach)
        import formlap.dec  # noqa: F401
        import formlap.torus  # noqa: F401
        import formlap.verify  # noqa: F401
        import formlap.whitney  # noqa: F401
        from formlap.coeffring import RatJ
        from formlap.torus import CMat

        modules = [m for name, m in list(sys.modules.items())
                   if name == "formlap" or name.startswith("formlap.")]
        for modname, attr, name, hook in SPANNED:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._spanned(name, cls.__dict__[meth], hook))
                continue
            original = getattr(owner, attr)
            wrapper = self._spanned(name, original, hook)
            # rebind every module-level reference, since formlap modules
            # import these functions by name from each other
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        for meth, op in RATJ_OPS.items():
            setattr(RatJ, meth, self._counted(op, RatJ.__dict__[meth]))
        CMat.__matmul__ = self._matmul_counted(CMat.__dict__["__matmul__"])

    def _spanned(self, name: str, fn, hook: str | None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extra = {"cache": _cache_miss, "matrix": _matrix_key, "mesh": _mesh_edges}.get(hook)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                if extra is None:
                    return fn(*args, **kwargs)
                out, rec[4] = extra(fn, args, kwargs)
                return out
            finally:
                rec[2] = clock()
                stack.pop()
        return wrapper

    def _counted(self, op: str, fn):
        counts, depth, samples = self.ratj_counts, self._ratj_depth, self.samples.get(op)

        def wrapper(*args):
            if depth[0]:
                return fn(*args)       # nested inside another Q(J) op
            counts[op] += 1
            if samples is not None and counts[op] % SAMPLE_EVERY == 1 and len(samples) < SAMPLE_MAX:
                samples.append((fn, args))
            depth[0] = 1
            try:
                return fn(*args)
            finally:
                depth[0] = 0
        return wrapper

    def _matmul_counted(self, fn):
        counters = self.counters

        def wrapper(a, b):
            counters["torus.matmuls"] += 1
            rows, inner = a.re.shape
            # four real object-array products per complex product
            counters["torus.entry_mults"] += 4 * rows * inner * b.re.shape[1]
            return fn(a, b)
        return wrapper

    def root(self, fn, *args):
        """Run fn under a root span covering the whole workload call."""
        return self._spanned("workload", fn, None)(*args)

    # -- results -----------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        path.write_text(json.dumps({
            "run_id": self.run_id,
            "spans": [{"name": n, "start": s, "end": e, "parent": p}
                      for n, s, e, p, _ in self.spans],
        }))

    def _op_us(self, op: str) -> float:
        per_call = []
        self._ratj_depth[0] = 1     # the timing loop itself is not counted
        for fn, args in self.samples[op]:
            t0 = time.perf_counter()
            for _ in range(SAMPLE_REPS):
                fn(*args)
            per_call.append((time.perf_counter() - t0) / SAMPLE_REPS * 1e6)
        self._ratj_depth[0] = 0
        return percentile(per_call, 0.5)

    def layer_metrics(self, report_bytes: int) -> dict[str, float]:
        """Every per-layer metric except trace_overhead, which needs the untraced runs."""
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        covered = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                covered[s[3]] += dur[i]
        by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            by_name.setdefault(s[0], []).append(i)

        def outermost(i: int) -> bool:
            p = spans[i][3]
            while p >= 0:
                if spans[p][0] == spans[i][0]:
                    return False
                p = spans[p][3]
            return True

        def busy(name: str) -> float:
            return sum(dur[i] for i in by_name.get(name, ()) if outermost(i))

        def self_time(name: str) -> float:
            return sum(dur[i] - covered[i] for i in by_name.get(name, ()))

        def calls(name: str) -> int:
            return len(by_name.get(name, ()))

        def durations(name: str, only=None) -> list[float]:
            return [dur[i] for i in by_name.get(name, ()) if only is None or only(spans[i][4])]

        def hit_ratio(name: str) -> float:
            n = calls(name)
            hits = sum(1 for i in by_name.get(name, ()) if spans[i][4] is False)
            return hits / n if n else 0.0

        checks = [d for name in THEOREM_SPANS for d in durations(name)]
        modes = [a + b for a, b in zip(durations("torus.pipeline"), durations("torus.symbolic"))]
        rank_keys = [spans[i][4] for i in by_name.get("dec.rank", ())]
        edges = [spans[i][4] for name in ("dec.build_mesh", "dec.subdivide")
                 for i in by_name.get(name, ())]
        return {
            "coeffring.ratj_ops": sum(self.ratj_counts.values()),
            "coeffring.ratj_add_us": self._op_us("add"),
            "coeffring.ratj_mul_us": self._op_us("mul"),
            "forms.opoly_mul_calls": calls("forms.opoly_mul"),
            "forms.opoly_mul_s": busy("forms.opoly_mul"),
            "forms.to_operator_poly_s": busy("forms.to_operator_poly"),
            "tractor.apply_box_calls": calls("tractor.apply_box"),
            "tractor.apply_box_s": busy("tractor.apply_box"),
            "tractor.apply_box_us": percentile(durations("tractor.apply_box"), 0.5) * 1e6,
            "factory.run_pipeline_s": busy("factory.run_pipeline"),
            "factory.run_pipeline_ms": percentile(
                durations("factory.run_pipeline", only=bool), 0.5) * 1e3,
            "factory.pipelines_built": len(durations("factory.run_pipeline", only=bool)),
            "factory.pipeline_hit_ratio": hit_ratio("factory.run_pipeline"),
            "factory.tmodbox_s": busy("factory.tmodbox"),
            "factory.tmodbox_hit_ratio": hit_ratio("factory.tmodbox"),
            "factory.closed_factors_s": busy("factory.closed_factors"),
            "verify.factorization_s": busy("verify.factorization"),
            "verify.MMstar_s": busy("verify.MMstar"),
            "verify.LG_s": busy("verify.LG"),
            "verify.bezout_s": busy("verify.bezout"),
            "verify.kernel_s": busy("verify.kernel"),
            "verify.checks": len(checks),
            "verify.check_p50_ms": percentile(checks, 0.5) * 1e3,
            "verify.check_p99_ms": percentile(checks, 0.99) * 1e3,
            "verify.bezout_solves": calls("verify.bezout_solve"),
            "verify.bezout_solve_us": percentile(durations("verify.bezout_solve"), 0.5) * 1e6,
            "spectral.synthetic_model_s": busy("spectral.synthetic_model"),
            "spectral.kernel_dim_s": busy("spectral.kernel_dim"),
            "torus.modes": calls("torus.pipeline"),
            "torus.mode_p50_ms": percentile(modes, 0.5) * 1e3,
            "torus.mode_p95_ms": percentile(modes, 0.95) * 1e3,
            "torus.pipeline_s": busy("torus.pipeline"),
            "torus.box_matrix_s": busy("torus.box_matrix"),
            "torus.symbolic_s": busy("torus.symbolic"),
            "torus.matmuls": self.counters["torus.matmuls"],
            "torus.entry_mults": self.counters["torus.entry_mults"],
            "dec.build_mesh_s": busy("dec.build_mesh"),
            "dec.subdivide_s": busy("dec.subdivide"),
            "dec.edges": max(edges, default=0),
            "dec.rank_s": busy("dec.rank"),
            "dec.rank_calls": len(rank_keys),
            "dec.rank_unique_ratio": len(set(rank_keys)) / len(rank_keys) if rank_keys else 0.0,
            "dec.flag_passes": calls("dec.well_centered") + calls("dec.hodge_stars"),
            "dec.well_centered_s": busy("dec.well_centered"),
            "dec.hodge_stars_s": busy("dec.hodge_stars"),
            "dec.solve_s": self_time("dec.spectrum"),
            "whitney.masses_s": busy("whitney.masses"),
            "whitney.galerkin_s": self_time("whitney.galerkin"),
            "cli.emit_s": busy("cli.emit"),
            "cli.report_bytes": report_bytes,
        }


def _cache_miss(fn, args, kwargs):
    before = fn.cache_info().misses
    out = fn(*args, **kwargs)
    return out, fn.cache_info().misses > before


def _matrix_key(fn, args, kwargs):
    m = args[0].tocsr()
    digest = hashlib.sha1(m.indptr.tobytes() + m.indices.tobytes() + m.data.tobytes())
    return fn(*args, **kwargs), (m.shape, digest.hexdigest())


def _mesh_edges(fn, args, kwargs):
    mesh = fn(*args, **kwargs)
    return mesh, len(mesh.simplices[1])
