"""Streaming three-point rainflow counter.

Feeds on raw samples, detects reversals internally, and emits closed half
cycles as (depth, mean) pairs as soon as they can be decided. An interior
closure is a full cycle and is emitted as two equal half cycles; a closure
involving the series start is emitted as a single half cycle. ``flush``
closes out whatever remains at the end of a series.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence


class HalfCycle(NamedTuple):
    depth: float
    mean: float


def _half(a: float, b: float) -> HalfCycle:
    return HalfCycle(depth=abs(a - b), mean=0.5 * (a + b))


class RainflowCounter:
    def __init__(self) -> None:
        self._stack: list[float] = []
        self._last: float | None = None
        self._direction = 0  # +1 rising, -1 falling, 0 undecided

    def feed(self, x: float) -> Sequence[HalfCycle]:
        """Ingest one sample; return any half cycles closed by it.

        Most samples close none and get the shared empty tuple.
        """
        if self._last is None:
            self._last = x
            self._stack.append(x)  # series start counts as a reversal
            return ()
        if x == self._last:
            return ()

        direction = 1 if x > self._last else -1
        if self._direction == 0:
            self._direction = direction
            self._last = x
            return ()
        if direction == self._direction:
            self._last = x
            return ()

        # direction flipped: the previous sample was a reversal point
        self._stack.append(self._last)
        self._direction = direction
        self._last = x
        return self._reduce()

    def _reduce(self) -> list[HalfCycle]:
        out: list[HalfCycle] = []
        s = self._stack
        while len(s) >= 3:
            x = abs(s[-1] - s[-2])
            y = abs(s[-2] - s[-3])
            if x < y:
                break
            if len(s) == 3:
                # the pair includes the series start: one half cycle
                out.append(_half(s[0], s[1]))
                s.pop(0)
            else:
                # interior pair: a full cycle, i.e. two half cycles
                hc = _half(s[-3], s[-2])
                out.append(hc)
                out.append(hc)
                del s[-3:-1]
        return out

    def flush(self) -> list[HalfCycle]:
        """Close out the series: the trailing point becomes the final reversal,
        closures are reduced as usual, and whatever remains pairs off as half
        cycles. Resets the counter for a fresh series."""
        out: list[HalfCycle] = []
        if self._last is not None and (not self._stack or self._last != self._stack[-1]):
            self._stack.append(self._last)
            out.extend(self._reduce())
        out.extend(_half(a, b) for a, b in zip(self._stack, self._stack[1:]))
        self._stack = [self._last] if self._last is not None else []
        self._direction = 0
        return out
