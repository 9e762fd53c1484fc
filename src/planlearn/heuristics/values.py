"""Heuristic values with a dedicated infinity marker.

INFINITY is a singleton, never a sentinel float; it compares greater than
every integer and arithmetic with it saturates.
"""

from __future__ import annotations

from dataclasses import dataclass


class _InfinityType:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"

    def __eq__(self, other):
        return isinstance(other, _InfinityType)

    def __hash__(self):
        return hash("planlearn.INFINITY")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, _InfinityType)

    def __gt__(self, other):
        return not isinstance(other, _InfinityType)

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __float__(self):
        return float("inf")


INFINITY = _InfinityType()


@dataclass(frozen=True)
class HeuristicValue:
    """A nonnegative integer or INFINITY, plus the fixpoint iteration count
    for dynamic-programming heuristics (0 where not applicable)."""

    value: int | _InfinityType
    iterations: int = 0

    @property
    def infinite(self) -> bool:
        return isinstance(self.value, _InfinityType)

    @property
    def json_value(self) -> int | str:
        """The value as the JSON outputs spell it: the integer, or "inf"."""
        return "inf" if self.infinite else self.value

    def __float__(self) -> float:
        return float("inf") if self.infinite else float(self.value)


def from_float(x: float, iterations: int = 0) -> HeuristicValue:
    """Boundary conversion: math.inf becomes the INFINITY marker."""
    if x == float("inf"):
        return HeuristicValue(INFINITY, iterations)
    return HeuristicValue(int(round(x)), iterations)
