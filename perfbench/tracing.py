"""Spans and counters around the package's layers, installed from outside.

Nothing under ``src/`` changes.  ``Tracer.install`` rebinds the module
globals that callers look up (so ``coloring`` reaches ``tribracket_solve``
through the wrapper) and swaps ``Tribracket.bracket`` and
``PartialProduct.mul`` for counting versions at class level;
``Tracer.uninstall`` puts every original back.

A span records its name, parent, duration, the bracket/mul calls made while
it was open, and per-name aggregates of the high-frequency leaf calls made
directly inside it, so memory grows with the number of top-level calls, not
with the number of leaf calls.  Self time is a span's duration minus its
child spans and leaf calls.
"""
from __future__ import annotations

import contextlib
import importlib
import time
import tracemalloc

# (module, global, span name): calls that open a span
SPANS = (
    ("tribrackets.coloring", "count_colorings", "coloring.count"),
    ("tribrackets.enumeration", "enumerate_tribrackets", "enumeration.tensor"),
    ("tribrackets.enumeration", "enumerate_products", "enumeration.product"),
    ("tribrackets.cli", "main", "cli.main"),
    ("tribrackets.cli", "check_move_invariance", "moves.check"),
    ("tribrackets.cli", "parse_algebra", "algebra.parse"),
    ("tribrackets.algebra", "parse_algebra", "algebra.parse"),
    ("tribrackets.diagram", "parse_diagram", "diagram.parse"),
)
# (module, global, leaf name): calls aggregated into the enclosing span
LEAVES = (
    ("tribrackets.coloring", "tribracket_solve", "algebra.solve"),
    ("tribrackets.coloring", "product_solve", "algebra.solve"),
    ("tribrackets.enumeration", "verify_tribracket", "algebra.verify_tribracket"),
    ("tribrackets.enumeration", "verify_algebra", "algebra.verify_algebra"),
)
# (class, method, counter index)
COUNTED = (("Tribracket", "bracket", 0), ("PartialProduct", "mul", 1))

# span names whose result size is recorded (colorings counted, tables found)
_SIZED = {"coloring.count": int, "enumeration.tensor": len, "enumeration.product": len}


class Span:
    __slots__ = ("name", "parent", "seconds", "child", "leaves", "counts", "size")

    def __init__(self, name: str, parent):
        self.name = name
        self.parent = parent
        self.seconds = 0.0
        self.child = 0.0
        self.leaves: dict = {}  # leaf name -> [calls, seconds]
        self.counts = [0, 0]  # bracket and mul calls while open
        self.size = 0

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child - sum(s for _, s in self.leaves.values())

    def root(self) -> "Span":
        span = self
        while span.parent is not None:
            span = span.parent
        return span


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts = [0, 0]
        self._saved: list = []

    @contextlib.contextmanager
    def section(self, name: str):
        """Open a span for the duration of the with block."""
        span = Span(name, self.stack[-1] if self.stack else None)
        self.spans.append(span)
        self.stack.append(span)
        before = list(self.counts)
        start = time.perf_counter()
        try:
            yield span
        finally:
            span.seconds = time.perf_counter() - start
            span.counts = [self.counts[0] - before[0], self.counts[1] - before[1]]
            self.stack.pop()
            if span.parent is not None:
                span.parent.child += span.seconds

    def _span(self, fn, name):
        size = _SIZED.get(name)

        def wrapper(*args, **kwargs):
            with self.section(name) as span:
                result = fn(*args, **kwargs)
            if size is not None:
                span.size = size(result)
            return result

        return wrapper

    def _leaf(self, fn, name):
        stack, perf = self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = perf() - start
                agg = stack[-1].leaves.setdefault(name, [0, 0.0])
                agg[0] += 1
                agg[1] += seconds

        return wrapper

    def _counter(self, fn, index):
        counts = self.counts

        def wrapper(*args):
            counts[index] += 1
            return fn(*args)

        return wrapper

    def install(self) -> None:
        for module, attr, name in SPANS:
            mod = importlib.import_module(module)
            self._rebind(mod, attr, self._span(getattr(mod, attr), name))
        for module, attr, name in LEAVES:
            mod = importlib.import_module(module)
            self._rebind(mod, attr, self._leaf(getattr(mod, attr), name))
        algebra = importlib.import_module("tribrackets.algebra")
        for cls_name, method, index in COUNTED:
            cls = getattr(algebra, cls_name)
            self._rebind(cls, method, self._counter(cls.__dict__[method], index))

    def _rebind(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


def peak_alloc(calls: list) -> int:
    """Largest tracemalloc peak, in bytes, of a single call among calls.

    Run apart from the timed and traced bodies, since tracing allocations
    slows allocation-heavy code several times over.
    """
    peak = 0
    for call in calls:
        tracemalloc.start()
        try:
            call()
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak


def layer_metrics(spans: list) -> dict:
    """Per-layer figures of one traced body (plus the traced set-up spans).

    Every value is a count, a ratio of counts, a time in seconds or a size;
    counts repeat exactly on the same inputs.
    """
    self_s: dict = {}
    n: dict = {}
    for span in spans:
        self_s[span.name] = self_s.get(span.name, 0.0) + span.self_seconds
        n[span.name] = n.get(span.name, 0) + 1

    def leaf(name: str, parent: str | None = None) -> tuple:
        calls = seconds = 0
        for span in spans:
            if parent is None or span.name == parent:
                c, s = span.leaves.get(name, (0, 0.0))
                calls += c
                seconds += s
        return calls, seconds

    def inside(name: str, index: int) -> int:
        return sum(s.counts[index] for s in spans if s.name == name)

    def sized(name: str) -> int:
        return sum(s.size for s in spans if s.name == name)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    counts = n.get("coloring.count", 0)
    checks = n.get("moves.check", 0)
    solve_calls, solve_s = leaf("algebra.solve")
    tensor_leaves, _ = leaf("algebra.verify_tribracket", "enumeration.tensor")
    product_leaves, _ = leaf("algebra.verify_algebra", "enumeration.product")
    roots = {id(s.root()): s.root() for s in spans}.values()
    return {
        "coloring.count_self_s": (self_s.get("coloring.count", 0.0), "s"),
        "coloring.counts": (counts, "count"),
        "coloring.colorings": (sized("coloring.count"), "count"),
        "algebra.solve_calls": (solve_calls, "count"),
        "algebra.solve_self_s": (solve_s, "s"),
        "coloring.solve_calls_per_count": (ratio(solve_calls, counts), "count"),
        "algebra.bracket_calls": (sum(r.counts[0] for r in roots), "count"),
        "algebra.mul_calls": (sum(r.counts[1] for r in roots), "count"),
        "moves.bracket_calls_per_check": (ratio(inside("moves.check", 0), checks), "count"),
        "coloring.bracket_calls_per_count": (ratio(inside("coloring.count", 0), counts), "count"),
        "enumeration.tensor_self_s": (self_s.get("enumeration.tensor", 0.0), "s"),
        "enumeration.tensor_leaves": (tensor_leaves, "count"),
        "enumeration.tensor_yield": (ratio(sized("enumeration.tensor"), tensor_leaves), "ratio"),
        "algebra.verify_tribracket_self_s": (leaf("algebra.verify_tribracket")[1], "s"),
        "enumeration.product_self_s": (self_s.get("enumeration.product", 0.0), "s"),
        "enumeration.product_leaves": (product_leaves, "count"),
        "enumeration.product_yield": (ratio(sized("enumeration.product"), product_leaves), "ratio"),
        "algebra.verify_algebra_self_s": (leaf("algebra.verify_algebra")[1], "s"),
        "moves.check_self_s": (self_s.get("moves.check", 0.0), "s"),
        "moves.checks": (checks, "count"),
        "cli.main_self_s": (self_s.get("cli.main", 0.0), "s"),
        "algebra.parse_self_s": (self_s.get("algebra.parse", 0.0), "s"),
        "diagram.parse_self_s": (self_s.get("diagram.parse", 0.0), "s"),
    }
