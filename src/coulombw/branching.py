"""Principal-branch powers and logarithms with explicit cut-edge tags.

All multivalued functions are taken on C \\ (-inf, 0].  Points on the
negative real axis are admitted only as limits from above or below,
carried around explicitly as an UpperEdge/LowerEdge tag (arg = +pi or
-pi).  A tag is portable and testable, unlike signed zeros.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

from .errors import BranchError, DomainError


class Branch(Enum):
    PRINCIPAL = "principal"
    UPPER_EDGE = "upper"
    LOWER_EDGE = "lower"


@dataclass(frozen=True)
class ComplexValue:
    """A complex number plus the branch tag for boundary-of-cut limits.

    Invariant: branch != PRINCIPAL is only allowed when the point lies on
    (-inf, 0], i.e. im == 0 and re <= 0.
    """

    re: float
    im: float
    branch: Branch = Branch.PRINCIPAL

    def __post_init__(self):
        if self.branch is not Branch.PRINCIPAL and not (self.im == 0.0 and self.re <= 0.0):
            raise BranchError(
                "edge tags are only meaningful on (-inf, 0]; got %r + %ri" % (self.re, self.im)
            )

    def __complex__(self):
        return complex(self.re, self.im)

    @property
    def on_cut(self) -> bool:
        return self.im == 0.0 and self.re < 0.0

    def arg(self) -> float:
        if self.branch is Branch.UPPER_EDGE:
            return math.pi
        if self.branch is Branch.LOWER_EDGE:
            return -math.pi
        return cmath.phase(complex(self))


def as_cvalue(z) -> ComplexValue:
    """Coerce a complex/float/ComplexValue into a ComplexValue (principal)."""
    if isinstance(z, ComplexValue):
        return z
    zc = complex(z)
    return ComplexValue(zc.real, zc.imag)


def upper_edge(x: float) -> ComplexValue:
    return ComplexValue(float(x), 0.0, Branch.UPPER_EDGE)


def lower_edge(x: float) -> ComplexValue:
    return ComplexValue(float(x), 0.0, Branch.LOWER_EDGE)


def _check_cut(zv: ComplexValue) -> ComplexValue:
    """zv itself, unless it lies on the cut (-inf,0) without an edge tag
    (the sign of a zero imaginary part is not read as one)."""
    if zv.branch is Branch.PRINCIPAL and zv.on_cut:
        raise BranchError("point on the cut (-inf,0) requires an edge tag")
    return zv


def principal_ln(z) -> complex:
    """ln z on C \\ (-inf,0], honoring edge tags (arg = +-pi on the cut)."""
    zv = _check_cut(as_cvalue(z))
    zc = complex(zv)
    if zc == 0:
        raise DomainError("ln(0) is undefined")
    if zv.branch is Branch.PRINCIPAL:
        return cmath.log(zc)
    return complex(math.log(abs(zc)), zv.arg())


def principal_pow(z, lam) -> complex:
    """z**lam = exp(lam * ln z) with the tagged argument convention."""
    lam = complex(lam)
    if lam == 0:
        return 1.0 + 0.0j
    return cmath.exp(lam * principal_ln(z))


def principal_sqrt(z) -> complex:
    return principal_pow(z, 0.5)


def rotate_half_pi(z, sign: int) -> ComplexValue:
    """Multiply by e^{i*sign*pi/2}, keeping track of cut crossings.

    The result must again satisfy arg in [-pi, pi]; rotations that would
    push the argument past the cut are rejected (out of the supported
    domain rather than silently re-branched).
    """
    zv = as_cvalue(z)
    a = zv.arg()
    new_a = a + sign * math.pi / 2.0
    if new_a > math.pi + 1e-15 or new_a < -math.pi - 1e-15:
        raise BranchError("rotation by pi/2 leaves the principal sheet")
    zc = complex(zv) * complex(0.0, float(sign))
    if abs(new_a - math.pi) <= 1e-15 and sign > 0:
        return ComplexValue(-abs(zc), 0.0, Branch.UPPER_EDGE)
    if abs(new_a + math.pi) <= 1e-15 and sign < 0:
        return ComplexValue(-abs(zc), 0.0, Branch.LOWER_EDGE)
    return ComplexValue(zc.real, zc.imag)


def rotate_pi(z, sign: int) -> ComplexValue:
    """Multiply by e^{i*sign*pi}; real positive input lands on the cut edge."""
    zv = as_cvalue(z)
    a = zv.arg()
    new_a = a + sign * math.pi
    if new_a > math.pi + 1e-15 or new_a < -math.pi - 1e-15:
        raise BranchError("rotation by pi leaves the principal sheet")
    zc = -complex(zv)
    if abs(new_a - math.pi) <= 1e-15:
        return ComplexValue(-abs(zc), 0.0, Branch.UPPER_EDGE)
    if abs(new_a + math.pi) <= 1e-15:
        return ComplexValue(-abs(zc), 0.0, Branch.LOWER_EDGE)
    return ComplexValue(zc.real, zc.imag)
