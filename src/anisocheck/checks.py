"""One check record, one refinement ladder and one refinement-order rule.

Every verdict of the package (acceptance criteria, inequality sweeps, CLI
runners) is a :class:`Check`.  Every grid refinement halves the step,
r -> 2r - 1 (:func:`ladder`), and every refinement-order record, with the
noise-floor waiver of the order rule, is an :func:`order_check`.
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


def order_check(name, discrepancies, zero, rel=None, floor=None, /, **detail):
    """The order rule on ``discrepancies`` of one quantity from coarse to
    fine grid levels.

    The value is the observed order log2(coarse/fine) on the finest pair,
    inf when the finest discrepancy is at or below ``zero``.  It passes
    when the order reaches ORDER_MIN, or when the finest relative
    discrepancy ``rel`` already sits at the noise ``floor``, where slopes
    are noise (no waiver without a floor).  The detail holds the
    discrepancies.
    """
    coarse, fine = discrepancies[-2:]
    order = math.inf if fine <= zero else math.log2(max(coarse, 1e-300) / fine)
    ok = order >= ORDER_MIN or (floor is not None and rel <= floor)
    return Check(name, order, ORDER_MIN, ok, {"discrepancies": discrepancies, **detail})
