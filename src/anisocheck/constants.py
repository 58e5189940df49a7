"""Closed-form constants of the volume growth estimates, with cross-checks.

Every constant is carried as a self-contained expression string together
with its double-precision value.  The expression strings re-evaluate in
extended precision (mpmath, 50 digits) and must reproduce the stored
values to 1e-14 relative, which is what the consistency tests assert.

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
LAMBDA_EXPR = ("(3/2)*((3-2)/2 - 3*(1/(sqrt(2)-1/2) - 1)/(8*(1/sqrt(2) - 1/2)))")
LAMBDA_CLOSED_EXPR = "3*(5 + 3*sqrt(2))/56"
LAMBDA_MIN_EXPR = "(3/2)*((3-2)/2 - 3*(1 - 1)/(8*(1 - 1/2)))"
#: the exponent variants of V0; the first is the default
VARIANTS = ("sqrt-lambda", "as-printed")
#: default integrand norms of the table: ||phi||_C1 and min phi of the area
#: integrand phi(nu) = |nu| on the unit sphere
C1_NORM, PHI_MIN = SQRT2, 1.0


def eval_expression(expr, dps=50):
    """Evaluate a constant expression string in extended precision.

    Only arithmetic plus sqrt/pi/exp/log is allowed; used as the second,
    independent evaluation path for the 1e-14 re-derivation checks.
    """
    from mpmath import mp, mpf

    with mp.workdps(dps):
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

    def rederive(self, dps=50):
        return float(eval_expression(self.expression, dps))

    def rederivation_error(self, dps=50):
        ref = self.rederive(dps)
        return abs(self.value - ref) / max(abs(ref), 1e-300)

    def as_dict(self):
        return self.__dict__.copy()


@dataclass
class ConstantsTable:
    entries: dict = field(default_factory=dict)

    def add(self, name, expression, value, description=""):
        """Store the extended-precision evaluation of ``expression`` (15
        correct digits) and the double-arithmetic ``value``; the two must
        agree, which catches mistyped expressions at build time."""
        exact = float(eval_expression(expression))
        if abs(exact - value) > 5e-13 * max(abs(exact), 1e-300):
            raise AssertionError(
                f"constant {name!r}: double path {value!r} disagrees with "
                f"expression {expression!r} -> {exact!r}")
        self.entries[name] = ConstantEntry(name, expression, exact, float(value),
                                           description)

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


def c0_and_beta(n=3, Lam=1.0 / SQRT2, c0=None):
    """(c0, beta) with the cross-check lambda(n/2 route) = lambda(beta route).

    c0 defaults to the pinched-case value 1/(sqrt2 - 1/2); c0 = 1 (the
    isotropic case) needs no beta and returns beta = inf.
    """
    c0 = C0 if c0 is None else float(c0)
    if c0 == 1.0:
        beta = math.inf
    else:
        beta = 4.0 * (Lam - 0.5) / (n * (c0 - 1.0))
    lam_direct = spectral_lambda(n, Lam, c0)
    lam_beta = 0.5 * n * (0.5 * (n - 2) - 0.5 / beta)
    if abs(lam_direct - lam_beta) > 1e-13 * max(1.0, abs(lam_direct)):
        raise AssertionError("beta route disagrees with the direct spectral constant")
    return c0, beta


@dataclass
class RemarkConstants:
    V0: float
    Q: float
    rho0: float
    V1: float
    lam: float
    variant: str
    expressions: dict


def remark_constants(c1_norm, phi_min, variant=VARIANTS[0], lam=None,
                     lam_expr=None):
    """Global and local volume constants from the integrand norms.

    ``variant`` selects the exponent of V0: 'sqrt-lambda' (the default,
    consistent with the proof chain Q * rho * boundary-area bound) or
    'as-printed' (15 pi / lambda).
    """
    if not (c1_norm >= phi_min > 0):
        raise ValueError("need c1_norm >= phi_min > 0")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if lam is None:
        lam = spectral_lambda(3, 1.0 / SQRT2, C0)
        lam_expr = LAMBDA_EXPR
    elif lam_expr is None:
        lam_expr = repr(float(lam))
    if lam <= 0:
        raise ValueError("volume constants need a positive spectral constant")
    E = 15.0 * math.pi / lam if variant == "as-printed" else 15.0 * math.pi / math.sqrt(lam)
    E_expr = (f"15*pi/({lam_expr})" if variant == "as-printed"
              else f"15*pi/sqrt({lam_expr})")
    V0 = 8.0 * math.pi * math.exp(E) * c1_norm / (3.0 * lam * phi_min)
    Q = math.exp(7.0 * math.pi / math.sqrt(lam))
    rho0 = math.exp(-5.0 * math.pi / math.sqrt(lam))
    V1 = 8.0 * math.pi * c1_norm / (3.0 * lam * phi_min)
    exprs = {
        "V0": f"8*pi*exp({E_expr})*{c1_norm!r}/(3*({lam_expr})*{phi_min!r})",
        "Q": f"exp(7*pi/sqrt({lam_expr}))",
        "rho0": f"exp(-5*pi/sqrt({lam_expr}))",
        "V1": f"8*pi*{c1_norm!r}/(3*({lam_expr})*{phi_min!r})",
    }
    return RemarkConstants(V0=V0, Q=Q, rho0=rho0, V1=V1, lam=lam, variant=variant,
                           expressions=exprs)


def minimal_case_constants():
    """Constants of the isotropic (area) case, derived through the generic
    pipeline with Lambda = 1, c0 = 1 (nothing hand-entered)."""
    lam = spectral_lambda(3, 1.0, 1.0)
    L = LAMBDA_MIN_EXPR
    table = ConstantsTable()
    table.add("lambda_min_case", L, lam, "spectral constant, isotropic case")
    table.add("area_bound_min_case", f"8*pi/({L})", 8.0 * math.pi / lam,
              "bubble boundary area bound 8 pi / lambda")
    table.add("diameter_bound_min_case", f"2*pi/sqrt({L})",
              2.0 * math.pi / math.sqrt(lam),
              "bubble boundary intrinsic diameter bound 2 pi / sqrt(lambda)")
    table.add("rho0_min_case", f"exp(-5*pi/sqrt({L}))",
              math.exp(-5.0 * math.pi / math.sqrt(lam)),
              "inner radius of the local estimate, equals e^(-10 pi / sqrt 3)")
    table.add("volume_coefficient", f"(8*pi/({L}))**(3/2)*exp(3*5*pi/sqrt({L}))/(6*sqrt(pi))",
              (8.0 * math.pi / lam) ** 1.5
              * math.exp(15.0 * math.pi / math.sqrt(lam)) / (6.0 * math.sqrt(math.pi)),
              "cubic volume growth coefficient, complete case")
    table.add("local_volume_coefficient", f"(8*pi/({L}))**(3/2)/(6*sqrt(pi))",
              (8.0 * math.pi / lam) ** 1.5 / (6.0 * math.sqrt(math.pi)),
              "volume bound of the unit-ball estimate")
    return table


def build_table(c1_norm=C1_NORM, phi_min=PHI_MIN, variant=VARIANTS[0]):
    """Full constants table: pinched-case chain, both V0 variants, and the
    isotropic-case block."""
    lam = spectral_lambda(3, 1.0 / SQRT2, C0)
    c0, beta = c0_and_beta(3, 1.0 / SQRT2)
    table = ConstantsTable()
    table.add("c0", C0_EXPR, c0, "quadratic form comparison constant")
    table.add("beta", f"4*(1/sqrt(2) - 1/2)/(3*(({C0_EXPR}) - 1))", beta,
              "weight of the mean curvature absorption step")
    table.add("lambda", LAMBDA_EXPR, lam,
              "spectral constant of the deformed metric, pinched case")
    table.add("lambda_closed_form", LAMBDA_CLOSED_EXPR,
              3.0 * (5.0 + 3.0 * SQRT2) / 56.0,
              "closed form 3(5+3 sqrt 2)/56 of the same constant")
    rc = remark_constants(c1_norm, phi_min, variant=variant)
    alt = remark_constants(c1_norm, phi_min,
                           variant=("as-printed" if variant == "sqrt-lambda"
                                    else "sqrt-lambda"))
    table.add("Q", rc.expressions["Q"], rc.Q, "boundary radial ratio bound")
    table.add("rho0", rc.expressions["rho0"], rc.rho0,
              "inner radius of the local estimate")
    table.add(f"V0[{rc.variant}]", rc.expressions["V0"], rc.V0,
              f"global volume coefficient, {rc.variant} exponent (selected)")
    table.add(f"V0[{alt.variant}]", alt.expressions["V0"], alt.V0,
              f"global volume coefficient, {alt.variant} exponent (alternate)")
    table.add("V1", rc.expressions["V1"], rc.V1, "local volume bound")
    for entry in minimal_case_constants().entries.values():
        table.add(entry.name, entry.expression, entry.value, entry.description)
    table.entries["lambda"].description += f"; inputs c1={c1_norm!r}, min phi={phi_min!r}"
    return table
