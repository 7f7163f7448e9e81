"""Per-layer spans recorded from outside the library.

The traced run replaces each public function in ``TARGETS`` by a wrapper
that records a span: its id, its parent's id, the id of the job it ran
in, its name, and its start and end in nanoseconds.  A name imported
with ``from .groebner import saturate`` is a second binding of the same
function, so every ``algstat`` module that binds the function gets the
wrapper; methods are replaced on their class.  ``uninstall`` puts every
original back.

Spans stay in memory and are written out once, at the end of the run.
A span's self time is its duration minus the durations of its child
spans; in one thread children run one after another inside their
parent, so that sum is the time the children cover.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter_ns

JOB = "bench.job"
BOOKKEEPING = "trace.bookkeeping"


def _coeff_bits(basis) -> int:
    """Largest coefficient bit length of the basis elements scaled to primitive integers."""
    bits = 0
    for g in basis:
        coeffs = [Fraction(c) for _, c in g.terms]
        scale = math.lcm(*(c.denominator for c in coeffs))
        ints = [c.numerator * (scale // c.denominator) for c in coeffs]
        content = math.gcd(*ints)
        bits = max(bits, max(abs(x // content).bit_length() for x in ints))
    return bits


def _after_buchberger(tracer, gb):
    lengths = [len(g.terms) for g in gb.basis]
    tracer.peak("groebner.buchberger.basis_len_max", len(lengths))
    tracer.peak("groebner.buchberger.terms_max", max(lengths, default=0))
    tracer.add("groebner.buchberger.terms_out", sum(lengths))
    tracer.peak("groebner.buchberger.coeff_bits_max", _coeff_bits(gb.basis))


def _after_minors(tracer, ideal):
    tracer.add("groebner.minors.gens", len(ideal.generators))


def _after_lc(tracer, lc):
    tracer.add("likelihood.lc_gens", len(lc))


# (span name, module, attribute, counters taken from the result)
TARGETS = (
    ("exactmath.hnf", "algstat.exactmath", "hnf", None),
    ("exactmath.integer_kernel", "algstat.exactmath", "integer_kernel", None),
    ("ring.map_to_ring", "algstat.ring", "map_to_ring", None),
    ("ring.parse_polynomial", "algstat.ring", "parse_polynomial", None),
    ("ring.print_polynomial", "algstat.ring", "print_polynomial", None),
    ("ring.Polynomial.substitute", "algstat.ring", "Polynomial.substitute", None),
    ("groebner.buchberger", "algstat.groebner", "buchberger", _after_buchberger),
    ("groebner.normal_form", "algstat.groebner", "normal_form", None),
    ("groebner.eliminate", "algstat.groebner", "eliminate", None),
    ("groebner.saturate", "algstat.groebner", "saturate", None),
    ("groebner.saturate_by_product", "algstat.groebner", "saturate_by_product", None),
    ("groebner.intersect", "algstat.groebner", "intersect", None),
    ("groebner.minors", "algstat.groebner", "minors", _after_minors),
    ("groebner.krull_dimension", "algstat.groebner", "krull_dimension", None),
    ("groebner.quotient_dimension", "algstat.groebner", "quotient_dimension", None),
    ("models.maximal_cliques", "algstat.models", "maximal_cliques", None),
    ("toric.toric_model", "algstat.toric", "toric_model", None),
    ("toric.toric_ideal", "algstat.toric", "toric_ideal", None),
    ("toric.make_loglinear_matrix", "algstat.toric", "make_loglinear_matrix", None),
    ("likelihood.compute_lc_toric", "algstat.likelihood", "compute_lc_toric", _after_lc),
    ("likelihood.compute_lc_general", "algstat.likelihood", "compute_lc_general", _after_lc),
    ("likelihood.ml_degree", "algstat.likelihood", "ml_degree", None),
    ("cli.run", "algstat.cli", "run", None),
)

LC_SPANS = ("likelihood.compute_lc_toric", "likelihood.compute_lc_general")

SUMS = ("groebner.buchberger.terms_out", "groebner.minors.gens",
        "likelihood.lc_gens", "cli.stdout_bytes")
PEAKS = ("groebner.buchberger.basis_len_max", "groebner.buchberger.terms_max",
         "groebner.buchberger.coeff_bits_max")


def algstat_modules():
    return [m for n, m in sorted(sys.modules.items())
            if n == "algstat" or n.startswith("algstat.")]


class Tracer:
    """Span recorder for one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [id, parent, job, name, start_ns, end_ns]
        self.sums: Counter = Counter()
        self.peaks: Counter = Counter()
        self._stack: list[int] = []
        self._job: int | None = None
        self._jobs = 0
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [len(self.spans), self._stack[-1] if self._stack else None,
               self._job, name, 0, 0]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[4] = perf_counter_ns()
        return rec

    def _close(self, rec: list):
        rec[5] = perf_counter_ns()
        self._stack.pop()

    def add(self, key: str, value: int):
        self.sums[key] += value

    def peak(self, key: str, value: int):
        self.peaks[key] = max(self.peaks[key], value)

    @contextmanager
    def job(self, name: str):
        """The root span of one job; wrappers record only inside it."""
        self._job = self._jobs
        self._jobs += 1
        rec = self._open(f"{JOB}:{name}")
        try:
            yield
        finally:
            self._close(rec)
            self._job = None

    def _wrap(self, name, fn, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._job is None:
                return fn(*args, **kwargs)
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if after is not None:
                # the counters' own cost is a span of its own, so it is
                # not charged to the caller's self time
                book = tracer._open(BOOKKEEPING)
                try:
                    after(tracer, result)
                finally:
                    tracer._close(book)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self):
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = algstat_modules()
        for name, modname, attr, after in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, after))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    @contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.uninstall()

    # -- aggregation -------------------------------------------------------

    def self_ns(self) -> list[int]:
        """Self time of every span, indexed by span id."""
        covered = [0] * len(self.spans)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [end - start - covered[sid] for sid, _, _, _, start, end in self.spans]

    def job_ns(self) -> int:
        """Total duration of the job root spans."""
        return sum(end - start for _, parent, _, _, start, end in self.spans if parent is None)

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics: calls, self times and summed counters per traced pass."""
        names = [s[3] for s in self.spans]
        self_ns = self.self_ns()
        calls: Counter = Counter(names)
        own: defaultdict = defaultdict(int)
        for name, ns in zip(names, self_ns):
            own[name] += ns
        out: dict[str, float] = {}
        for name, _, _, _ in TARGETS:
            out[f"{name}.calls"] = calls[name] / passes
            out[f"{name}.self_s"] = own[name] / 1e9 / passes
        for key in SUMS:
            out[key] = self.sums[key] / passes
        for key in PEAKS:
            out[key] = self.peaks[key]

        sbp = "groebner.saturate_by_product"
        nested = sum(1 for s in self.spans
                     if s[3] == "groebner.saturate" and s[1] is not None and names[s[1]] == sbp)
        out[f"{sbp}.saturations_per_call"] = nested / calls[sbp] if calls[sbp] else 0.0

        mld = "likelihood.ml_degree"
        mld_ns = sum(s[5] - s[4] for s in self.spans if s[3] == mld)
        lc_ns = sum(s[5] - s[4] for s in self.spans
                    if s[3] in LC_SPANS and s[1] is not None and names[s[1]] == mld)
        out[f"{mld}.lc_share"] = lc_ns / mld_ns if mld_ns else 0.0
        return out

    def check(self) -> list[str]:
        """Structural faults in the span tree (an empty list when there are none)."""
        faults = []
        for sid, parent, job, name, start, end in self.spans:
            if end < start:
                faults.append(f"span {sid} ({name}) ends before it starts")
            if parent is not None:
                p = self.spans[parent]
                if p[2] != job or not (p[4] <= start and end <= p[5]):
                    faults.append(f"span {sid} ({name}) lies outside its parent {parent}")
        if any(ns < 0 for ns in self.self_ns()):
            faults.append("a span has negative self time")
        entered = {s[1] for s in self.spans if s[1] is not None and s[3] != BOOKKEEPING}
        for sid, parent, _, name, _, _ in self.spans:
            if parent is None and sid not in entered:
                faults.append(f"{name} made no call through a wrapped function")
        return faults

    def write(self, path):
        """Write every span as one JSON line: id, parent, job, name, start_ns, end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
