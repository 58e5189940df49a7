"""One check record, one refinement ladder and one refinement-order rule.

Every verdict of the package (acceptance criteria, inequality sweeps, CLI
runners) is a :class:`Check`.  Every grid refinement halves the step,
r -> 2r - 1 (:func:`ladder`), refinement-order estimates all go through
:func:`refinement_order`, and the noise-floor waiver of the order rule is
:func:`order_ok`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

ORDER_MIN = 1.8


@dataclass
class Check:
    name: str
    value: float
    tolerance: float | None  # None marks an informational record
    passed: bool
    detail: dict = field(default_factory=dict)

    def as_dict(self):
        d = {"name": self.name, "value": self.value, "tolerance": self.tolerance,
             "pass": bool(self.passed)}
        if self.detail:
            d["detail"] = self.detail
        return d

    def prefixed(self, prefix):
        return replace(self, name=prefix + self.name)


def le(name, value, tolerance, /, **detail):
    """Check that passes when ``value <= tolerance``."""
    return Check(name, float(value), float(tolerance), bool(value <= tolerance), detail)


def ge(name, value, bound, /, **detail):
    """Check that passes when ``value >= bound``."""
    return Check(name, float(value), float(bound), bool(value >= bound), detail)


def ladder(res, levels):
    """``levels`` grid resolutions from ``res``, each halving the step of
    the one before: r -> 2r - 1."""
    return tuple(2**k * (res - 1) + 1 for k in range(levels))


def refinement_order(coarse, fine, zero):
    """Observed order log2(coarse/fine) of a discrepancy between two grid
    levels; inf when the fine discrepancy is at or below ``zero``."""
    if fine <= zero:
        return math.inf
    return math.log2(max(coarse, 1e-300) / fine)


def order_ok(order, rel, floor):
    """The order rule: the order reaches ORDER_MIN, or the relative
    discrepancy already sits at the noise ``floor`` where slopes are noise."""
    return order >= ORDER_MIN or rel <= floor
