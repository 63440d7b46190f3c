"""Coupling/order parameters and the special-case classifier.

The (beta, m) plane carries a web of exceptional sets: half-integer 2m
(logarithmic series), Laguerre lines +-beta - m - 1/2 in N (polynomial
solutions), and their intersection lattice where both degeneracies meet.
Membership is decided with a snap tolerance; inside the narrow band just
outside it the evaluators flag accuracy loss instead of reclassifying.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

SNAP_TOL = 1e-8
WARN_TOL = 1e-6


@dataclass(frozen=True)
class WhittakerParams:
    """Coulomb coupling beta and order m (the x^-2 coefficient is m^2 - 1/4)."""

    beta: complex
    m: complex

    def __post_init__(self):
        object.__setattr__(self, "beta", complex(self.beta))
        object.__setattr__(self, "m", complex(self.m))

    def flip_m(self) -> "WhittakerParams":
        return WhittakerParams(self.beta, -self.m)


class RegionTag(Enum):
    GENERIC = "Generic"
    DEGENERATE_HALF_INTEGER = "DegenerateHalfInteger"
    LAGUERRE_DECAYING = "LaguerreDecaying"
    LAGUERRE_EXPLODING = "LaguerreExploding"
    DOUBLY_DEGENERATE = "DoublyDegenerate"


class DoubleRegion(Enum):
    I_MINUS = "I-"
    I_PLUS = "I+"
    II_MINUS = "II-"
    II_PLUS = "II+"


@dataclass(frozen=True)
class ParamRegion:
    tag: RegionTag
    p: Optional[int] = None           # 2m for the degenerate tags
    n: Optional[int] = None           # Laguerre index
    region: Optional[DoubleRegion] = None


def dist_to_integer(z: complex) -> float:
    return abs(z - round(z.real))


def dist_to_natural(z: complex) -> float:
    n = round(z.real)
    if n < 0:
        n = 0
    return abs(z - n)


def nu_order(m: complex) -> Optional[float]:
    """The order mm of the nu-families that m snaps to: 0.0 for m = 0, 0.5
    for m = +-1/2; None for every other (generic) m."""
    m = complex(m)
    if abs(m) <= SNAP_TOL:
        return 0.0
    if abs(abs(m.real) - 0.5) <= SNAP_TOL and abs(m.imag) <= SNAP_TOL:
        return 0.5
    return None


def is_integer(z: complex, tol: float = SNAP_TOL) -> bool:
    return dist_to_integer(complex(z)) <= tol


def is_natural(z: complex, tol: float = SNAP_TOL) -> bool:
    return dist_to_natural(complex(z)) <= tol


def classify_region(p: WhittakerParams, tol: float = SNAP_TOL) -> ParamRegion:
    """Classify (beta, m) against the exceptional sets.

    Doubly degenerate points (beta, m in Z/2 with beta+m+1/2 in Z) win over
    the pure Laguerre lines, which win over plain half-integer 2m.
    """
    beta, m = p.beta, p.m
    if (
        is_integer(2 * beta, tol)
        and is_integer(2 * m, tol)
        and is_integer(beta + m + 0.5, tol)
    ):
        bm = (beta + m).real
        mb = (-beta + m).real
        plus = round(bm - 0.5) >= 0      # beta+m in N+1/2 vs -(N+1/2)
        minus = round(mb - 0.5) >= 0
        if plus and minus:
            region = DoubleRegion.I_PLUS
        elif not plus and not minus:
            region = DoubleRegion.I_MINUS
        elif plus:
            region = DoubleRegion.II_PLUS
        else:
            region = DoubleRegion.II_MINUS
        return ParamRegion(RegionTag.DOUBLY_DEGENERATE, p=round((2 * m).real), region=region)
    if is_natural(beta - m - 0.5, tol):
        return ParamRegion(RegionTag.LAGUERRE_DECAYING, n=round((beta - m - 0.5).real))
    if is_natural(-beta - m - 0.5, tol):
        return ParamRegion(RegionTag.LAGUERRE_EXPLODING, n=round((-beta - m - 0.5).real))
    if is_integer(2 * m, tol):
        return ParamRegion(RegionTag.DEGENERATE_HALF_INTEGER, p=round((2 * m).real))
    return ParamRegion(RegionTag.GENERIC)
