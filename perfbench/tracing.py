"""Spans around calls into minsurf's public functions, recorded from outside.

The library has no trace of its own yet, so the benchmark wraps each public
function in :data:`TRACED` wherever a ``minsurf`` module holds a reference to
it: in its defining module and in every module that imported it by name
(``acceptance.solve``, ``variation.immerse``, ...).  Calls the library makes
internally are therefore seen as well as the benchmark's own, and the
lazily imported names in ``minsurf.cli`` resolve to the wrappers at call
time.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

# layer (the minsurf module) -> traced attributes of that module
TRACED = {
    "pde": ("solve", "residual", "harmonic_extension"),
    "immersion": ("immerse", "normal_flow", "forms_from_immersion",
                  "ImmersionGrid.to_csv", "ImmersionGrid.from_csv"),
    "geometry": ("principal_curvatures", "embedding_data", "gauss_residual"),
    "fields": ("ScalarField.to_csv", "ScalarField.from_csv"),
    "deform": ("detect_z", "genericity_check", "assemble_f", "build_point_f",
               "build_halfturn_f", "solve_xi", "build_G",
               "build_translation_f"),
    "variation": ("shape_rate", "immersion_fd_rate", "curvature_rate_at_Z",
                  "metric_inverse_rate", "second_form_rate"),
    "invariant_ode": ("integrate", "estimate_delta", "to_surface",
                      "first_integral_residual"),
}


def _nodes(args) -> int | None:
    """Grid node count of the first argument, when it carries a grid."""
    spec = getattr(args[0], "spec", None) if args else None
    return None if spec is None else spec.nx * spec.ny


def _items(name: str, args) -> int | None:
    """Work items handed to a call: components given to assemble_f."""
    if name == "deform.assemble_f" and len(args) > 1:
        return len(args[1])
    return None


class Tracer:
    """Records (name, layer, start, end, parent, job, nodes, items, ok).

    Spans are recorded only while ``job`` is set; ``parent`` is the index
    of the enclosing span, -1 at top level.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._undo: list = []

    @contextmanager
    def span(self, name: str, layer: str, nodes=None, items=None):
        if self.job is None:
            yield
            return
        rec = [name, layer, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.job, nodes, items, False]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec[2] = time.perf_counter()
        try:
            yield
            rec[8] = True
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, layer, _nodes(args), _items(name, args)):
                return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Replace every traced function by its wrapper; undo with remove()."""
        import minsurf.acceptance  # noqa: F401  (load every caller first)
        import minsurf.cli  # noqa: F401

        mods = [m for k, m in sys.modules.items()
                if k == "minsurf" or k.startswith("minsurf.")]
        for layer, attrs in TRACED.items():
            home = sys.modules[f"minsurf.{layer}"]
            for attr in attrs:
                name = f"{layer}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self.wrap(name, layer, raw.__func__))
                    else:
                        new = self.wrap(name, layer, raw)
                    self._undo.append((cls, meth, raw))
                    setattr(cls, meth, new)
                    continue
                orig = getattr(home, attr)
                new = self.wrap(name, layer, orig)
                for mod in mods:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._undo.append((mod, key, orig))
                            setattr(mod, key, new)
        acc = sys.modules["minsurf.acceptance"]
        self._undo.append((acc, "REGISTRY", acc.REGISTRY))
        acc.REGISTRY = tuple(
            (key, self.wrap(f"acceptance.c{key[:2]}", "acceptance", fn))
            for key, fn in acc.REGISTRY)

    def remove(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def extend(self, spans: list[list], job) -> None:
        """Adopt spans recorded by another process under this run's job id."""
        base = len(self.spans)
        for rec in spans:
            rec = list(rec)
            rec[4] = rec[4] + base if rec[4] >= 0 else -1
            rec[5] = job
            self.spans.append(rec)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("name", "layer", "start", "end", "parent", "job",
                     "nodes", "items", "ok"), rec))) + "\n")


def empty_job() -> dict:
    return {"total": {}, "count": {}, "self": {}, "covered": 0.0,
            "sized": {}, "items": {}, "items_ok": {}}


def per_job(spans: list[list]) -> dict:
    """For each job: summed duration and count per span name, self time per
    layer, the time top-level spans cover, nodes/time pairs per name, and
    the items of calls that returned normally vs. all calls."""
    jobs: dict = {}
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[4] >= 0:
            child_time[rec[4]] += rec[3] - rec[2]
    for k, (name, layer, t0, t1, parent, job, nodes, items, ok) in enumerate(spans):
        j = jobs.setdefault(job, empty_job())
        dur = t1 - t0
        j["total"][name] = j["total"].get(name, 0.0) + dur
        j["count"][name] = j["count"].get(name, 0) + 1
        j["self"][layer] = j["self"].get(layer, 0.0) + dur - child_time[k]
        if parent < 0:
            j["covered"] += dur
        if nodes is not None:
            j["sized"].setdefault(name, []).append((nodes, dur))
        if items is not None:
            j["items"][name] = j["items"].get(name, 0) + items
            if ok:
                j["items_ok"][name] = j["items_ok"].get(name, 0) + items
    return jobs
