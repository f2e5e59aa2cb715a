"""Outside-in stage trace: temporary wrappers around the solver's functions.

Each traced stage is named by module and function, for example
("measure", "multiplication_matrices"). While a Tracer is installed, every
attribute of every loaded cubicmoment module that holds the stage's
function is replaced by a wrapper, so calls are seen whichever module
makes them. Uninstalling puts the original objects back.

A wrapper keeps, per stage: calls, inclusive time, and self time, which is
the inclusive time minus the time of traced stages called inside it. A
stage that a later version of the package deletes or renames is reported
as absent and counts nothing; it does not stop the run.
"""

from __future__ import annotations

import importlib
import sys
import time

PACKAGE = "cubicmoment"

STAGES = (
    ("normalize", "normalize_cubic"),
    ("normalize", "minors"),
    ("normalize", "degree_one_coeffs"),
    ("normalize", "transform_sequence"),
    ("normalize", "pullback_measure"),
    ("cubic", "extend"),
    ("cubic", "span_reductions"),
    ("cubic", "build_m3_kneg"),
    ("measure", "solve_cubic"),
    ("measure", "multiplication_matrices"),
    ("measure", "extract_atoms"),
    ("measure", "solve_densities"),
    ("measure", "verify_measure"),
    ("linalg", "joint_eigen"),
    ("linalg", "numeric_rank"),
    ("moments", "build_moment_matrix"),
    ("moments", "riesz"),
)

STAGE_NAMES = tuple(f"{module}.{name}" for module, name in STAGES)


class StageStats:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """Context manager that installs the stage wrappers and removes them."""

    def __init__(self, stages=STAGES) -> None:
        self.stages = stages
        self.stats = {f"{m}.{n}": StageStats() for m, n in stages}
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        # time spent in traced children of each open span, innermost last
        self._open: list[int] = []

    def _resolve(self, module: str, name: str):
        try:
            mod = importlib.import_module(f"{PACKAGE}.{module}")
        except ImportError:
            return None
        fn = getattr(mod, name, None)
        return fn if callable(fn) else None

    def _wrap(self, stats: StageStats, fn):
        open_spans = self._open
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            open_spans.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_spans.pop()
                stats.calls += 1
                stats.total_ns += elapsed
                stats.self_ns += elapsed - children
                if open_spans:
                    open_spans[-1] += elapsed

        return traced

    def install(self) -> "Tracer":
        found = []
        for module, name in self.stages:
            label = f"{module}.{name}"
            fn = self._resolve(module, name)
            if fn is None:
                self.absent.append(label)
            else:
                found.append((fn, self._wrap(self.stats[label], fn)))
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for fn, wrapper in found:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, fn))
        return self

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def calls(self) -> dict[str, int]:
        return {label: s.calls for label, s in self.stats.items()}
