"""The exact law of a session's outcome, by enumerating its random draws.

Every random draw of the protocol cores is one uniform u in [0, 1)
compared with thresholds: the draft's ``bisect_right(cdf, u)``, the verify
scan's ``u <= alpha`` and recovery's ``bisect_right(sums, u * total)``.
``session_law`` hands a session a scripted stream instead of Philox: the
draws before the one being swept return fixed floats, and the swept draw
returns a ``Probe`` that answers each comparison at its value and records
the comparison as a cut ``u < t``.  The cuts nearest its value bound the
cell of u that takes the same path, so a depth-first sweep over the cells
of each draw, with each outcome weighted by the widths of its cells, gives
the exact law of the outcome, binary32 steering values and all.  Cell
widths are measured on the reals; the stream's uniforms are multiples of
2**-53, which moves no weight by more than 2**-53 a cell.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Callable, Hashable

from specsteer.core import RngStreams


class _NextDraw(Exception):
    """The session asked for the draw after the swept one."""


class Probe:
    """The swept draw: a uniform of value ``value`` that records, in
    ``cuts``, each threshold t at which the outcome of a comparison changes,
    as a test ``u < t``.  Only the comparisons the cores make are defined,
    so any other use of the draw fails loudly."""

    def __init__(self, value: float, cuts: list[float]) -> None:
        self.value = value
        self.cuts = cuts

    def __lt__(self, other: float) -> bool:
        # bisect_right's test: the cell ends where u reaches ``other``.
        self.cuts.append(float(other))
        return self.value < other

    def __le__(self, other: float) -> bool:
        # The scan's test closes its cell at ``other``: the next cell
        # starts one float above it.
        self.cuts.append(math.nextafter(float(other), math.inf))
        return self.value <= other

    def __mul__(self, total: float) -> "ScaledProbe":
        return ScaledProbe(self, float(total))


class ScaledProbe:
    """fl(u * total) for a probe u, compared by recovery's bisect."""

    def __init__(self, probe: Probe, total: float) -> None:
        self.probe = probe
        self.total = total

    def __lt__(self, other: float) -> bool:
        # fl(u * total) < s exactly when u is below the least u with
        # fl(u * total) >= s.  s / total is within a float or two of it,
        # and rounding is monotone, so nextafter steps find it; s / total
        # itself would give a cell its neighbour's outcome.
        s, total = float(other), self.total
        u = s / total
        while u * total >= s:
            u = math.nextafter(u, -math.inf)
        while u * total < s:
            u = math.nextafter(u, math.inf)
        self.probe.cuts.append(u)
        return self.probe.value * total < s


class ScriptedStream:
    """One script for all three roles: the draws in the order the session
    makes them, as one sequence.  Draw ``len(fixed)`` is the probe; a
    session that asks for one more is stopped."""

    def __init__(self, fixed: tuple[float, ...], value: float) -> None:
        self.fixed = fixed
        self.probe = Probe(value, [])
        self.drawn = 0

    def random(self):
        i = self.drawn
        self.drawn += 1
        if i < len(self.fixed):
            return self.fixed[i]
        if i == len(self.fixed):
            return self.probe
        raise _NextDraw

    def cell_end(self) -> float:
        """Where the probe's cell ends: its nearest cut above its value,
        or 1.0 (also when the session never drew the probe)."""
        value = self.probe.value
        return min((t for t in self.probe.cuts if t > value), default=1.0)


def session_law(run: Callable[[RngStreams], Hashable]) -> dict[Hashable, float]:
    """The exact law of ``run(streams)``'s result over the uniforms it
    draws from ``streams``.  ``run`` must be deterministic given its
    draws, and draw only through ``random()``."""
    law: dict[Hashable, float] = defaultdict(float)

    def sweep(fixed: tuple[float, ...], weight: float) -> None:
        lo = 0.0
        while lo < 1.0:
            script = ScriptedStream(fixed, lo)
            try:
                outcome = run(RngStreams(script, script, script))
            except _NextDraw:
                outcome = _NextDraw
            hi = script.cell_end()
            if outcome is _NextDraw:
                sweep(fixed + (lo,), weight * (hi - lo))
            else:
                law[outcome] += weight * (hi - lo)
            lo = hi

    sweep((), 1.0)
    return dict(law)
