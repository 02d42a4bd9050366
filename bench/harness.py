"""Measurement machinery of the wavescope benchmark, free of numpy.

Three pieces, each usable on its own and covered by ``test_harness.py``:

- :class:`Tally` runs operations, counts attempts and failures and keeps
  the largest oracle margin.
- :class:`Tracer` wraps functions in spans and aggregates calls, busy
  time and self time (busy time minus the time of child spans).
- :class:`PeakTracker` wraps functions to record the tracemalloc peak
  inside each call.

A module attribute is patched wherever it holds the original function,
so a name imported with ``from module import name`` is traced where its
caller looks it up.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import statistics
import time
import tracemalloc
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterable


def median(values: Iterable[float]) -> float:
    data = list(values)
    if not data:
        raise ValueError("median of no samples")
    return float(statistics.median(data))


def digest(*parts) -> str:
    """sha256 over the bytes of each part: bytes, str or a numpy array."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            part = part.encode()
        elif not isinstance(part, bytes):
            part = part.tobytes()
        h.update(part)
    return h.hexdigest()


# --------------------------------------------------------------------------
# operations and their checks


#: Reported margin of an estimate with no finite distance to its reference
#: (NaN, or a chaotic preset estimated at or below 0): a clear miss that
#: stays a number in the JSON result.
MARGIN_CAP = 1e6


@dataclass(frozen=True)
class Check:
    """One oracle verdict.

    ``margin`` is |estimate - reference| / tolerance (at most 1 passes)
    for checks with a tolerance, ``None`` for exact checks.
    """

    name: str
    ok: bool
    margin: float | None = None
    detail: str = ""


def within(name: str, estimate: float, reference: float, tolerance: float) -> Check:
    margin = abs(estimate - reference) / tolerance
    return Check(name, margin <= 1.0, margin, f"{estimate!r} vs {reference!r} +- {tolerance!r}")


def exact(name: str, ok: bool, detail: str = "") -> Check:
    return Check(name, bool(ok), None, detail)


class DigestLedger:
    """Remembers the first digest seen under each key; later ones must match."""

    def __init__(self, reference: dict[str, str] | None = None):
        self.reference = dict(reference or {})
        self.seen: dict[str, str] = {}

    def check(self, key: str, value: str) -> list[Check]:
        first = self.seen.setdefault(key, value)
        out = [exact(f"stable:{key}", value == first, f"{value[:12]} vs {first[:12]}")]
        if key in self.reference:
            ref = self.reference[key]
            out.append(exact(f"reference:{key}", value == ref, f"{value[:12]} vs {ref[:12]}"))
        return out


@dataclass(frozen=True)
class Op:
    """A unit of workload work.

    ``run`` is timed; ``check`` maps its output to oracle verdicts and is
    not timed.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], list[Check]] = lambda out: []


@dataclass
class Tally:
    """Attempted and failed operations plus the largest oracle margin.

    An operation fails once, whether it raised or missed one or more
    checks; ``failures`` keeps a line for each.
    """

    attempted: int = 0
    failed: int = 0
    oracle_margin: float = 0.0
    failures: list[str] = field(default_factory=list)

    def run(self, op: Op, clock=time.perf_counter, cpu=time.process_time):
        """Run one op; returns (wall seconds, cpu seconds) of ``op.run``."""
        self.attempted += 1
        with warnings.catch_warnings():
            # Library warnings (poor fits, embedding quality) are expected on
            # these inputs; the oracles judge the results instead.
            warnings.simplefilter("ignore")
            t0, c0 = clock(), cpu()
            try:
                out = op.run()
            except Exception as err:  # counted, reported, and the run goes on
                wall, cpu_s = clock() - t0, cpu() - c0
                self._fail(op.name, f"raised {type(err).__name__}: {err}")
                return wall, cpu_s
            wall, cpu_s = clock() - t0, cpu() - c0
        try:
            checks = op.check(out)
        except Exception as err:
            self._fail(op.name, f"check raised {type(err).__name__}: {err}")
            return wall, cpu_s
        missed = [c for c in checks if not c.ok]
        for c in checks:
            if c.margin is not None:
                margin = c.margin if math.isfinite(c.margin) else MARGIN_CAP
                self.oracle_margin = max(self.oracle_margin, min(margin, MARGIN_CAP))
        if missed:
            self._fail(op.name, "; ".join(f"{c.name} missed ({c.detail})" for c in missed))
        return wall, cpu_s

    def _fail(self, name: str, why: str):
        self.failed += 1
        self.failures.append(f"{name}: {why}")

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# --------------------------------------------------------------------------
# spans


def patch_sites(modules, original) -> list[tuple[object, str]]:
    """Every (module, attribute) pair that currently holds ``original``."""
    return [
        (mod, attr)
        for mod in modules
        for attr, value in list(vars(mod).items())
        if value is original
    ]


class _Patcher:
    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def patch(self, modules, original, replacement):
        for mod, attr in patch_sites(modules, original):
            self._undo.append((mod, attr, original))
            setattr(mod, attr, replacement)

    def patch_item(self, mapping: dict, key, replacement):
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = replacement

    def restore(self):
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()


class Tracer:
    """Aggregated spans: calls, busy seconds and self seconds per name.

    A span's self time is its duration minus the durations of its direct
    child spans.  ``labelled`` appends a suffix to the names registered as
    split, so one function can be reported per kind of input.  Hooks map
    a call's result to extra per-name counters (bytes written, array
    sizes), summed over calls.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, dict[str, float]] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list[float]] = []
        self._label: str | None = None
        self._patcher = _Patcher()

    def reset(self):
        self.stats = {}
        self.counters = {}

    @contextlib.contextmanager
    def labelled(self, label: str):
        prev, self._label = self._label, label
        try:
            yield
        finally:
            self._label = prev

    def wrap(self, name: str, fn, split: bool = False, hook=None):
        def traced(*args, **kwargs):
            span = f"{name}.{self._label}" if split and self._label else name
            frame = [0.0]  # child seconds
            self._stack.append(frame)
            t0 = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self.clock() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += dur
                st = self.stats.setdefault(span, {"calls": 0, "s": 0.0, "self_s": 0.0})
                st["calls"] += 1
                st["s"] += dur
                st["self_s"] += dur - frame[0]
            if hook is not None:
                for key, value in hook(result).items():
                    self.count(key, value)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, key: str, value: float):
        self.counters[key] = self.counters.get(key, 0) + value

    def install(self, modules, name: str, fn, split: bool = False, hook=None):
        self._patcher.patch(modules, fn, self.wrap(name, fn, split, hook))

    def install_item(self, mapping: dict, key, name: str):
        self._patcher.patch_item(mapping, key, self.wrap(name, mapping[key]))

    def uninstall(self):
        self._patcher.restore()

    def flat(self) -> dict[str, float]:
        """``<span>.<stat>`` and counter values in one mapping."""
        out = {f"{span}.{k}": v for span, st in self.stats.items() for k, v in st.items()}
        out.update(self.counters)
        return out


class PeakTracker:
    """tracemalloc peak (MiB) inside each call of the wrapped functions.

    tracemalloc runs only while a tracked call is active, so the rest of
    the pass runs at full speed.  Calls are assumed not to nest.
    """

    def __init__(self):
        self.peaks: dict[str, float] = {}
        self._patcher = _Patcher()

    def wrap(self, name: str, fn):
        def tracked(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                self.peaks[name] = max(self.peaks.get(name, 0.0), peak)

        tracked.__wrapped__ = fn
        return tracked

    def install(self, modules, name: str, fn):
        self._patcher.patch(modules, fn, self.wrap(name, fn))

    def uninstall(self):
        self._patcher.restore()

    def flat(self) -> dict[str, float]:
        return {f"{name}.peak_mb": v for name, v in self.peaks.items()}
