"""Layer tracing from outside the package, and the per-layer report.

A traced child wraps the public functions below in every `kirwan.*` module
that binds them (so `kernels.nullspace` and `cohomology.rref` pass through the
same wrapper as `exactmath.rref`).  Each call records a span
[name, start, end, parent, job id] and, for some functions, counters; all of it
stays in memory until the child prints its result.  Hot scalar helpers (`rat`,
`restrict`, the `alpha_*_scalar` lookups, the `MatrixQ` constructors,
`localization_sum`, the residue of a monomial) stay unwrapped: their time is
self time of the wrapped function that calls them.

The parent turns spans into self time (a span's duration minus that of its
direct children) per layer, and into inclusive time for sets of layers (spans
not nested in another span of the same set).
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from time import perf_counter

# module -> function -> layer
TARGETS = {
    "momentdata": {
        "load_manifold": "momentdata.load",
        "make_manifold": "momentdata.load",
        "split_fixed_points": "momentdata.split",
        "manifold_to_dict": "momentdata.emit",
        "manifold_to_json": "momentdata.emit",
    },
    "cohomology": {
        "validate_alpha_basis": "cohomology.validate",
        "basis_points": "cohomology.basis",
        "degree_basis": "cohomology.basis",
        "make_class": "cohomology.classes",
        "subspace_from_rows": "cohomology.subspace",
        "subspace_sum": "cohomology.subspace",
        "subspace_contains": "cohomology.subspace",
        "subspace_intersection_dim": "cohomology.subspace",
        "subspace_classes": "cohomology.subspace",
        "subspace_scalar_rows": "cohomology.subspace",
        "class_to_dict": "kernels.serialize",
    },
    "kernels": {
        "pairing": "kernels.pairing",
        "pairing_matrix": "kernels.pairing",
        "kernel_residue": "kernels.residue",
        "kernel_tw": "kernels.tw",
        "kernels_equal": "kernels.compare",
        "decompose": "kernels.decompose",
        "b_matrix": "kernels.bmatrix",
        "report_to_dict": "kernels.serialize",
        "bmatrix_to_dict": "kernels.serialize",
        "certificate_to_dict": "kernels.serialize",
        "pairing_to_dict": "kernels.serialize",
    },
    "exactmath": {
        "rref": "exactmath.rref",
        "nullspace": "exactmath.rref",
        "solve_upper_triangular": "exactmath.solve",
    },
    "generators": {
        "gen_cpn": "generators.gen",
        "gen_sphere_product": "generators.gen",
    },
    "cli": {"main": "cli.main"},
}
LAYER = {f"{mod}.{fn}": layer for mod, fns in TARGETS.items() for fn, layer in fns.items()}
LAYERS = sorted(set(LAYER.values()))

# counters reported per traced job; max_bits is a maximum over the run
PER_JOB = (
    "exactmath.rref_calls", "exactmath.rref_cells", "exactmath.rank_sum",
    "kernels.pairing_entries", "momentdata.split_calls", "kernels.above",
    "kernels.below", "cohomology.validate_products", "cohomology.violations",
    "momentdata.points", "cli.output_bytes",
)


# --- child side -------------------------------------------------------------


def _bits(x) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _hook_rref(rec, args, result, parent):
    m, pivots = args[0], result[1]
    rec.add("exactmath.rref_calls")
    rec.add("exactmath.rref_cells", m.rows * m.cols)
    rec.add("exactmath.rank_sum", len(pivots))
    bits = max((_bits(e) for row in m.to_rows() for e in row), default=0)
    rec.counters["exactmath.max_bits"] = max(rec.counters.get("exactmath.max_bits", 0), bits)


def _hook_pairing_matrix(rec, args, result, parent):
    rec.add("kernels.pairing_entries", result.matrix.rows * result.matrix.cols)


def _hook_pairing(rec, args, result, parent):
    # scalar pairings outside a pairing matrix (decompose) count one entry each
    if parent < 0 or rec.spans[parent][0] != "kernels.pairing_matrix":
        rec.add("kernels.pairing_entries")


def _hook_split(rec, args, result, parent):
    rec.add("momentdata.split_calls")
    rec.counters["kernels.above"], rec.counters["kernels.below"] = len(result[0]), len(result[1])


def _hook_validate(rec, args, result, parent):
    n = len(args[0].fixed_points)
    rec.add("cohomology.validate_products", n * (n + 1) // 2)
    rec.add("cohomology.violations", len(result.violations))


def _hook_load(rec, args, result, parent):
    rec.add("momentdata.points", len(result.fixed_points))


HOOKS = {
    "exactmath.rref": _hook_rref,
    "kernels.pairing_matrix": _hook_pairing_matrix,
    "kernels.pairing": _hook_pairing,
    "momentdata.split_fixed_points": _hook_split,
    "cohomology.validate_alpha_basis": _hook_validate,
    "momentdata.load_manifold": _hook_load,
}


class Recorder:
    """Spans and counters of one traced job, kept in memory."""

    def __init__(self, job_id: int):
        self.job_id = job_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []

    def add(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(self, fn, name: str):
        spans, stack, hook = self.spans, self.stack, HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.job_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                try:
                    hook(self, args, result, parent)
                except (AttributeError, TypeError, IndexError):
                    self.add("trace.hook_errors")
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every target in every loaded `kirwan.*` module to its wrapper."""
        wrappers = {}
        for mod, fns in TARGETS.items():
            module = importlib.import_module(f"kirwan.{mod}")
            for fn in fns:
                original = getattr(module, fn, None)
                if original is None:
                    self.missing.append(f"{mod}.{fn}")
                else:
                    wrappers[id(original)] = (original, self._wrap(original, f"{mod}.{fn}"))
        for name, module in list(sys.modules.items()):
            if name != "kirwan" and not name.startswith("kirwan."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": self.counters, "missing": self.missing}


# --- parent side ------------------------------------------------------------

# Shares the workload rationale states, as inclusive shares of job_s (a layer
# set's spans not nested in another span of the set, like a profiler's
# cumulative time): (layers, stated low %, stated high %, the statement).  A
# measured share agrees when it lies within TOLERANCE of the stated range.
EXPECTED = {
    "betti-cpn": [
        (("kernels.pairing",), 58, 58, "pairing_matrix about 58% cumulative (cProfile)"),
        (("momentdata.split",), 17, 17, "split_fixed_points about 17% (cProfile)"),
        (("kernels.tw",), 27, 27, "kernel_tw about 27% (cProfile)"),
        (("exactmath.rref",), 26, 26, "rref about 26% (cProfile)"),
        (("cohomology.validate",), 8, 8, "validation about 8% (cProfile)"),
        (("kernels.serialize",), 0, 0, "serialization 0"),
    ],
    "kernel-report": [
        (("kernels.serialize", "cohomology.subspace"), 45, 55,
         "serialization with subspace_classes 45-55%"),
    ],
    "validate-query": [
        (("momentdata.load", "cohomology.validate"), 66, 99, "load and validation 66-99%"),
        (("exactmath.rref",), 0, 1, "rref about 0-1%"),
    ],
}
TOLERANCE = 0.25  # a quarter of the stated figure either way
# The layer set each workload is built to be dominated by.
DOMINANT = {
    "betti-cpn": ("kernels.pairing", "exactmath.rref"),
    "kernel-report": ("kernels.serialize", "cohomology.subspace"),
    "validate-query": ("cohomology.validate",),
}


def _self_and_inclusive(spans: list[list], sets: list[tuple[str, ...]]):
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for i, (name, start, end, _, _) in enumerate(spans):
        self_s[LAYER[name]] += end - start - child[i]
        calls[LAYER[name]] += 1
    inclusive = {}
    for layers in sets:
        total = 0.0
        for name, start, end, parent, _ in spans:
            if LAYER[name] not in layers:
                continue
            while parent >= 0 and LAYER[spans[parent][0]] not in layers:
                parent = spans[parent][3]
            if parent < 0:
                total += end - start
        inclusive[layers] = total
    return self_s, calls, inclusive


def summarize(workload: str, traced: list[dict], untraced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics and the printed report of one traced run.

    `traced` and `untraced` are runs of the same jobs, pairwise.  The tracing
    overhead is the median over jobs of traced / untraced job_s, which cancels
    the differences in size between jobs; the ratio of the two p50s is printed
    beside it.
    """
    sets = list(dict.fromkeys([e[0] for e in EXPECTED[workload]] + list(DOMINANT.values())))
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    inclusive = dict.fromkeys(sets, 0.0)
    counters: dict[str, float] = {}
    missing: set[str] = set()
    for r in traced:
        s, c, inc = _self_and_inclusive(r["trace"]["spans"], sets)
        for layer in LAYERS:
            self_s[layer] += s[layer]
            calls[layer] += c[layer]
        for layers in sets:
            inclusive[layers] += inc[layers]
        for name, value in r["trace"]["counters"].items():
            if name == "exactmath.max_bits":
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value
        counters["cli.output_bytes"] = counters.get("cli.output_bytes", 0) + len(r["stdout"].encode())
        missing.update(r["trace"]["missing"])
    jobs = len(traced)
    job_total = sum(r["job_s"] for r in traced)
    traced_p50 = statistics.median(r["job_s"] for r in traced)
    untraced_p50 = statistics.median(r["job_s"] for r in untraced)
    overhead = statistics.median(t["job_s"] / u["job_s"] for t, u in zip(traced, untraced))

    def pct(seconds: float) -> float:
        return 100 * seconds / job_total

    metrics = {"trace.overhead": {"value": overhead, "unit": "ratio"}}
    for layer in LAYERS:
        metrics[f"{layer}_s"] = {"value": self_s[layer] / jobs, "unit": "s/job"}
    for name in PER_JOB:
        metrics[name] = {"value": counters.get(name, 0) / jobs, "unit": "count/job"}
    metrics["cli.output_bytes"]["unit"] = "B/job"
    metrics["exactmath.max_bits"] = {"value": counters.get("exactmath.max_bits", 0), "unit": "bits"}

    lines = [
        f"traced jobs: {jobs}; sum of traced job_s: {job_total:.3f} s",
        f"tracing overhead: median of per-job traced/untraced job_s = {overhead:.3f};"
        f" traced/untraced job_s.p50 = {traced_p50:.4f}/{untraced_p50:.4f} s = {traced_p50 / untraced_p50:.3f}",
        f"{'layer':<22} {'calls':>9} {'self s':>10} {'self %':>7}",
    ]
    for layer in LAYERS:
        lines.append(f"{layer:<22} {calls[layer]:>9} {self_s[layer]:>10.4f} {pct(self_s[layer]):>7.2f}")
    lines.append(f"{'(not in any span)':<22} {'':>9} {job_total - sum(self_s.values()):>10.4f}")
    for layers, low, high, words in EXPECTED[workload]:
        share = pct(inclusive[layers])
        low, high = low * (1 - TOLERANCE), min(100, high * (1 + TOLERANCE))
        verdict = "agrees" if low <= share <= high else "DISAGREES"
        lines.append(
            f"stated {words}: {' + '.join(layers)} inclusive {share:.1f}%"
            f" (agrees within {low:g}-{high:g}%) -> {verdict}"
        )
    shares = {w: pct(inclusive[layers]) for w, layers in DOMINANT.items()}
    top = max(shares, key=shares.get)
    for w, layers in DOMINANT.items():
        lines.append(f"layer set of {w}: {' + '.join(layers)} inclusive {shares[w]:.1f}%")
    lines.append(
        f"largest layer set here: that of {top}"
        + ("" if top == workload else f" -> DISAGREES: expected that of {workload}")
    )
    if missing:
        lines.append(f"functions not found (not traced): {', '.join(sorted(missing))}")
    if counters.get("trace.hook_errors"):
        lines.append(f"counter hooks failed {counters['trace.hook_errors']} times")
    return metrics, lines
