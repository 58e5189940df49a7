"""Closed-form constants of the volume growth estimates, each by two routes:
its expression string in 50-digit arithmetic (mpmath) rounded to a double
(`value`), and the same formula in plain double arithmetic (`value_double`).
Criterion 1 reports their relative difference as the ``double route <name>
(rel)`` record of each entry, so a mistyped expression or double formula fails.

The central quantities, for hypersurface dimension n and ellipticity
ratio Lambda > 1/2:

    c0     = 1 / (sqrt(2) - 1/2)
    beta   = 4 (Lambda - 1/2) / (n (c0 - 1))
    lambda = n/2 ( (n-2)/2 - n (c0 - 1) / (8 (Lambda - 1/2)) )
           = n/2 ( (n-2)/2 - 1/(2 beta) )

and the derived volume/ratio constants

    V0    = 8 pi e^E ||phi||_C1 / (3 lambda min phi),   E = 15 pi / sqrt(lambda)
            (the 'as-printed' variant uses E = 15 pi / lambda; both are
            computed and labeled, no silent choice)
    Q     = e^(7 pi / sqrt(lambda))
    rho0  = e^(-5 pi / sqrt(lambda))
    V1    = 8 pi ||phi||_C1 / (3 lambda min phi).

The isotropic case runs through the same pipeline with Lambda = 1 and
c0 = 1 (beta is then not needed), giving lambda = n(n-2)/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

SQRT2 = math.sqrt(2.0)
C0_EXPR = "1/(sqrt(2) - 1/2)"
C0 = 1.0 / (SQRT2 - 0.5)
#: the absorption weight beta at n = 3, Lambda = 1/sqrt 2
BETA = 4.0 * (1.0 / SQRT2 - 0.5) / (3 * (C0 - 1.0))
LAMBDA_EXPR = ("(3/2)*((3-2)/2 - 3*(1/(sqrt(2)-1/2) - 1)/(8*(1/sqrt(2) - 1/2)))")
LAMBDA_CLOSED_EXPR = "3*(5 + 3*sqrt(2))/56"
LAMBDA_MIN_EXPR = "(3/2)*((3-2)/2 - 3*(1 - 1)/(8*(1 - 1/2)))"
#: the exponent variants of V0; the first is the default
VARIANTS = ("sqrt-lambda", "as-printed")
#: default integrand norms of the table: ||phi||_C1 and min phi of the area
#: integrand phi(nu) = |nu| on the unit sphere
C1_NORM, PHI_MIN = SQRT2, 1.0


def eval_expression(expr):
    """Evaluate a constant expression string in 50-digit arithmetic: the
    mpmath route of every table entry.

    Only arithmetic plus sqrt/pi/exp/log is allowed.
    """
    from mpmath import mp, mpf

    with mp.workdps(50):
        namespace = {"sqrt": mp.sqrt, "pi": mp.pi, "exp": mp.exp, "log": mp.log,
                     "__builtins__": {}}
        value = eval(expr, namespace)  # noqa: S307 - restricted namespace
        return mpf(value)


@dataclass
class ConstantEntry:
    name: str
    expression: str
    value: float          # correctly rounded double of the expression
    value_double: float   # the same constant through plain double arithmetic
    description: str = ""

    def as_dict(self):
        return self.__dict__.copy()


@dataclass
class ConstantsTable:
    entries: dict = field(default_factory=dict)

    def add(self, name, expression, value_double, description=""):
        """Store both routes of a constant: the 50-digit evaluation of
        ``expression``, rounded to a double, and ``value_double``.  Their
        disagreement is judged by criterion 1, not here."""
        self.entries[name] = ConstantEntry(name, expression,
                                           float(eval_expression(expression)),
                                           float(value_double), description)

    def value(self, name):
        return self.entries[name].value

    def as_dict(self):
        return {k: v.as_dict() for k, v in self.entries.items()}

    def text_table(self):
        lines = [f"{'name':28s} {'value':>24s}  expression"]
        for e in self.entries.values():
            lines.append(f"{e.name:28s} {e.value:>24.15g}  {e.expression}")
        return "\n".join(lines)


def spectral_lambda(n, Lam, c0):
    """lambda = n/2 ((n-2)/2 - n (c0-1) / (8 (Lambda - 1/2))).

    May be nonpositive (the caller must treat that as 'no positive
    spectral constant'); requires Lambda > 1/2.
    """
    if Lam <= 0.5:
        raise ValueError("spectral constant needs Lambda > 1/2")
    if c0 < 1.0:
        raise ValueError("c0 must be at least 1")
    if n < 3:
        raise ValueError("the spectral constant needs n >= 3")
    return 0.5 * n * (0.5 * (n - 2) - n * (c0 - 1.0) / (8.0 * (Lam - 0.5)))


#: the pinched-case spectral constant, 3(5 + 3 sqrt 2)/56
LAMBDA = spectral_lambda(3, 1.0 / SQRT2, C0)


def v0_double(variant, ratio):
    """V0 of exponent ``variant`` in double arithmetic at ``ratio`` =
    ||phi||_C1 / min phi: the double route of the V0 entries, and the job
    schema's test of a ratio at which V0 overflows."""
    E = 15.0 * math.pi / (LAMBDA if variant == "as-printed" else math.sqrt(LAMBDA))
    return 8.0 * math.pi * math.exp(E) * ratio / (3.0 * LAMBDA)


def build_table(c1_norm=C1_NORM, phi_min=PHI_MIN, variant=VARIANTS[0]):
    """The constants table at the integrand norms ``c1_norm`` >= ``phi_min``
    > 0: the pinched-case chain, V0 in the exponent ``variant`` (selected)
    and then in the other one (alternate), V1, and the isotropic-case
    block, derived through the same spectral constant with Lambda = c0 = 1
    (nothing hand-entered)."""
    if not (c1_norm >= phi_min > 0 and variant in VARIANTS):
        raise ValueError(f"need c1_norm >= phi_min > 0 and a variant of {VARIANTS}")
    L, ratio = LAMBDA_EXPR, c1_norm / phi_min
    norms = f"{c1_norm!r}/(3*({L})*{phi_min!r})"
    table = ConstantsTable()
    table.add("c0", C0_EXPR, C0, "quadratic form comparison constant")
    table.add("beta", f"4*(1/sqrt(2) - 1/2)/(3*(({C0_EXPR}) - 1))", BETA,
              "weight of the mean curvature absorption step")
    table.add("lambda", L, LAMBDA, "spectral constant of the deformed metric, pinched "
              f"case; inputs c1={c1_norm!r}, min phi={phi_min!r}")
    table.add("lambda_closed_form", LAMBDA_CLOSED_EXPR, 3.0 * (5.0 + 3.0 * SQRT2) / 56.0,
              "closed form 3(5+3 sqrt 2)/56 of the same constant")
    table.add("Q", f"exp(7*pi/sqrt({L}))", math.exp(7.0 * math.pi / math.sqrt(LAMBDA)),
              "boundary radial ratio bound")
    table.add("rho0", f"exp(-5*pi/sqrt({L}))", math.exp(-5.0 * math.pi / math.sqrt(LAMBDA)),
              "inner radius of the local estimate")
    for v in sorted(VARIANTS, key=lambda v: v != variant):
        E = f"15*pi/({L})" if v == "as-printed" else f"15*pi/sqrt({L})"
        table.add(f"V0[{v}]", f"8*pi*exp({E})*{norms}", v0_double(v, ratio),
                  f"global volume coefficient, {v} exponent "
                  f"({'selected' if v == variant else 'alternate'})")
    table.add("V1", f"8*pi*{norms}", 8.0 * math.pi * ratio / (3.0 * LAMBDA),
              "local volume bound")
    lam, L = spectral_lambda(3, 1.0, 1.0), LAMBDA_MIN_EXPR
    table.add("lambda_min_case", L, lam, "spectral constant, isotropic case")
    table.add("area_bound_min_case", f"8*pi/({L})", 8.0 * math.pi / lam,
              "bubble boundary area bound 8 pi / lambda")
    table.add("diameter_bound_min_case", f"2*pi/sqrt({L})", 2.0 * math.pi / math.sqrt(lam),
              "bubble boundary intrinsic diameter bound 2 pi / sqrt(lambda)")
    table.add("rho0_min_case", f"exp(-5*pi/sqrt({L}))", math.exp(-5.0 * math.pi / math.sqrt(lam)),
              "inner radius of the local estimate, equals e^(-10 pi / sqrt 3)")
    table.add("volume_coefficient", f"(8*pi/({L}))**(3/2)*exp(3*5*pi/sqrt({L}))/(6*sqrt(pi))",
              (8.0 * math.pi / lam) ** 1.5
              * math.exp(15.0 * math.pi / math.sqrt(lam)) / (6.0 * math.sqrt(math.pi)),
              "cubic volume growth coefficient, complete case")
    table.add("local_volume_coefficient", f"(8*pi/({L}))**(3/2)/(6*sqrt(pi))",
              (8.0 * math.pi / lam) ** 1.5 / (6.0 * math.sqrt(math.pi)),
              "volume bound of the unit-ball estimate")
    return table
