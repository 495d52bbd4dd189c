"""Outside-in span tracer for the arfrf benchmark.

The tracer changes no file of the package. It replaces each traced function
with a timing wrapper in every ``arfrf`` module namespace that binds it,
because the package imports its layers with ``from .x import f`` and a patch
on the defining module alone would miss those call sites. The three traced
``NumericalSemigroup`` methods are wrapped on the class.

Spans (name, parent, start, end) are kept in flat arrays in memory and saved
once at the end. Self time is a span's duration minus the time its direct
children cover; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

# (module, function, span name); the module is the one that defines the function
FUNCTIONS = (
    ("arfrf.semigroup", "from_generators", "semigroup.from_generators"),
    ("arfrf.factorization", "factorization_vectors", "factorization.factorization_vectors"),
    ("arfrf.factorization", "count_factorizations", "factorization.count_factorizations"),
    ("arfrf.intmat", "bareiss_determinant", "intmat.bareiss_determinant"),
    ("arfrf.intmat", "hermite_normal_form", "intmat.hermite_normal_form"),
    ("arfrf.intmat", "hnf_coordinates", "intmat.hnf_coordinates"),
    ("arfrf.rfmatrix", "rf_row_choices", "rfmatrix.rf_row_choices"),
    ("arfrf.rfmatrix", "determinant", "rfmatrix.determinant"),
    ("arfrf.rfmatrix", "find_frobenius_det_witness", "rfmatrix.find_frobenius_det_witness"),
    ("arfrf.rfmatrix", "check_sign_conjecture", "rfmatrix.check_sign_conjecture"),
    ("arfrf.lattice", "kernel_lattice", "lattice.kernel_lattice"),
    ("arfrf.lattice", "rf_difference_lattice", "lattice.rf_difference_lattice"),
    ("arfrf.lattice", "lattice_index", "lattice.lattice_index"),
    ("arfrf.lattice", "is_generic", "lattice.is_generic"),
    ("arfrf.families", "build_family", "families.build_family"),
    ("arfrf.families", "closed_form_rf", "families.closed_form_rf"),
    ("arfrf.verifier", "_reach_table", "verifier.oracles"),
    ("arfrf.verifier", "oracle_membership", "verifier.oracles"),
    ("arfrf.verifier", "oracle_pf", "verifier.oracles"),
    ("arfrf.verifier", "cofactor_determinant", "verifier.oracles"),
    ("arfrf.verifier", "verify_claim", "verifier.claim.{}"),  # named by the claim id
    ("arfrf.cli", "cmd_verify", "cli.cmd_verify"),
)
# each next() on the generator is one span: the Cartesian product step
GENERATORS = (("arfrf.rfmatrix", "iter_rf_matrices", "rfmatrix.product"),)
METHODS = (
    ("arfrf.semigroup", "NumericalSemigroup", "is_arf", "semigroup.is_arf"),
    ("arfrf.semigroup", "NumericalSemigroup", "arf_closure", "semigroup.arf_closure"),
    ("arfrf.semigroup", "NumericalSemigroup", "pseudo_frobenius", "semigroup.pseudo_frobenius"),
)
WITNESS_SPANS = ("rfmatrix.find_frobenius_det_witness", "rfmatrix.check_sign_conjecture")


class Tracer:
    """Span store plus argument-keyed counters for one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts = {"factorization.vectors_out": 0, "rfmatrix.matrices_out": 0, "rfmatrix.witness.scanned": 0}
        # argument keys (repr strings) seen per counter, for the ratio counters
        self.distinct: dict[str, set[str]] = {
            "rfmatrix.rf_enum": set(),
            "semigroup.from_generators": set(),
        }
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float) -> None:
        self.end[idx] = time.perf_counter()
        self.start[idx] = t0
        self._stack.pop()

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _function_wrapper(self, fn, name: str):
        per_call = "{}" in name  # the span name takes the first argument
        nid = None if per_call else self._id(name)
        on_call = _ON_CALL.get(name)
        on_result = _ON_RESULT.get(name)

        def traced(*args, **kwargs):
            if on_call is not None:
                args = on_call(self, args)
            idx = self._open(self._id(name.format(args[0])) if per_call else nid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, t0)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def _generator_wrapper(self, fn, name: str):
        nid = self._id(name)
        witness_ids = {self._id(w) for w in WITNESS_SPANS}

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    idx = self._open(nid)
                    t0 = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx, t0)
                    self._count("rfmatrix.matrices_out")
                    p = self.parent[idx]
                    if p >= 0 and self.name_id[p] in witness_ids:
                        self._count("rfmatrix.witness.scanned")
                    yield item
            finally:
                inner.close()

        return traced

    # -- installation ------------------------------------------------------

    def install(self, skip=frozenset()) -> None:
        """Wrap every traced function at every binding in loaded arfrf modules.

        ``skip`` holds (module, attribute) bindings to leave alone; the
        coverage test uses it to show that a missed binding is caught.
        A target that no longer exists is skipped and simply records no span.
        """
        modules = [m for n, m in sorted(sys.modules.items()) if n == "arfrf" or n.startswith("arfrf.")]
        for target in FUNCTIONS + GENERATORS:
            mod_name, attr, name = target
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                continue
            make = self._generator_wrapper if target in GENERATORS else self._function_wrapper
            wrapped = make(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original and (mod.__name__, key) not in skip:
                        self._patch(mod, key, wrapped)
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules.get(mod_name), cls_name, None)
            original = getattr(cls, attr, None)
            if original is not None:
                self._patch(cls, attr, self._function_wrapper(original, name))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output ------------------------------------------------------------

    def save(self, path: Path) -> None:
        """Write the spans as one JSON header line followed by the raw arrays."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "counts": self.counts,
            "distinct": {k: sorted(v) for k, v in self.distinct.items()},
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


def load_spans(path: Path) -> Tracer:
    """Read back a file written by :meth:`Tracer.save`."""
    tracer = Tracer()
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        for arr in (tracer.name_id, tracer.parent, tracer.start, tracer.end):
            arr.fromfile(fh, n)
    tracer.names = header["names"]
    tracer._ids = {name: i for i, name in enumerate(tracer.names)}
    tracer.counts = header["counts"]
    tracer.distinct = {k: set(v) for k, v in header["distinct"].items()}
    return tracer


# -- argument-keyed counters -------------------------------------------------


def _on_from_generators(tracer: Tracer, args):
    gens = tuple(args[0])  # may be any iterable; materialize it once
    tracer.distinct["semigroup.from_generators"].add(repr(sorted(set(gens))))
    return (gens, *args[1:])


def _on_rf_row_choices(tracer: Tracer, args):
    sg, f = args[0], args[1]
    tracer.distinct["rfmatrix.rf_enum"].add(repr((sg.generators, f)))
    return args


def _on_factorization_vectors(tracer: Tracer, result) -> None:
    tracer._count("factorization.vectors_out", len(result))


_ON_CALL = {
    "semigroup.from_generators": _on_from_generators,
    "rfmatrix.rf_row_choices": _on_rf_row_choices,
}
_ON_RESULT = {"factorization.factorization_vectors": _on_factorization_vectors}


# -- aggregation -------------------------------------------------------------


def summarize(tracers) -> dict:
    """Calls, total and self seconds per span name, and counters, merged over tracers."""
    stats: dict[str, dict] = {}
    counts: dict[str, int] = {}
    distinct: dict[str, set] = {}
    for tracer in tracers:
        n = len(tracer.start)
        durations = [e - s for s, e in zip(tracer.start, tracer.end)]
        child = [0.0] * n
        parent = tracer.parent
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += durations[i]
        per_name = [[0, 0.0, 0.0] for _ in tracer.names]
        for i, nid in enumerate(tracer.name_id):
            agg = per_name[nid]
            agg[0] += 1
            agg[1] += durations[i]
            agg[2] += durations[i] - child[i]
        for name, (calls, total, self_s) in zip(tracer.names, per_name):
            s = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            s["calls"] += calls
            s["total_s"] += total
            s["self_s"] += self_s
        for k, v in tracer.counts.items():
            counts[k] = counts.get(k, 0) + v
        for k, v in tracer.distinct.items():
            distinct.setdefault(k, set()).update(v)
    for k, v in distinct.items():
        counts[f"{k}.distinct"] = len(v)
    return {"spans": stats, "counts": counts}
