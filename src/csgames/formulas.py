"""Closed-form counts: Fibonacci numbers and the distinguished-class formulas.

All arithmetic is exact.  Golden-ratio comparisons never touch floating point:
the target is bracketed by consecutive Fibonacci quotients, whose enclosure
width shrinks quadratically in the index.
"""

from __future__ import annotations

import enum
import math
import sys
from typing import TYPE_CHECKING

from .errors import CapacityError, DomainError

if TYPE_CHECKING:
    from fractions import Fraction

_LOG10_PHI = math.log10((1 + math.sqrt(5)) / 2)


def fib(k: int) -> int:
    """Fibonacci number with F(0)=0, F(1)=1, iterative.

    F(k) has at most ceil(k * log10(phi)) digits.  A k whose bound passes the
    interpreter's int-to-str digit limit (0 means no limit) is refused before
    the loop: the value could not be printed, and the loop would run for hours.
    """
    if k < 0:
        raise DomainError("fib requires k >= 0")
    limit = sys.get_int_max_str_digits()
    if limit and math.ceil(k * _LOG10_PHI) > limit:
        raise CapacityError(f"F({k}) may have more than {limit} digits, the int-to-str limit")
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


class Family(enum.Enum):
    FIB = "fib"
    CG_T1 = "cg_t1"
    CG_T2 = "cg_t2"
    CGV_T1 = "cgv_t1"
    CGV_T2 = "cgv_t2"
    CGV_T3 = "cgv_t3"
    CGVN_T2 = "cgvn_t2"
    CGVN_T3 = "cgvn_t3"
    CGVN_T4 = "cgvn_t4"
    CGD = "cgd"
    CGD_NT = "cgd_nt"
    CGDN = "cgdn"
    CGSVSP = "cgsvsp"
    CGSVSP_NT = "cgsvsp_nt"
    CGVSP = "cgvsp"
    CGVSP_NT = "cgvsp_nt"
    CGPSV = "cgpsv"
    CGPSV_NT = "cgpsv_nt"

    @classmethod
    def from_name(cls, name: str) -> "Family":
        for fam in cls:
            if fam.value == name:
                return fam
        raise DomainError(f"unknown formula family {name!r}")


_NEEDS_T = {Family.CGD_NT, Family.CGSVSP_NT, Family.CGVSP_NT, Family.CGPSV_NT}


def _guard(family: Family, n: int, minimum: int):
    if n < minimum:
        raise DomainError(f"{family.value} requires n >= {minimum}")


def evaluate(family: Family, n: int, t: int | None = None) -> int:
    """Exact value of a counting formula on its stated domain."""
    if family in _NEEDS_T:
        if t is None:
            raise DomainError(f"{family.value} needs the class count t")
    elif t is not None:
        raise DomainError(f"{family.value} does not take a class count")

    if family is Family.FIB:
        return fib(n)
    if family is Family.CG_T1:
        _guard(family, n, 1)
        return n
    if family is Family.CG_T2:
        _guard(family, n, 2)
        return fib(n + 6) - (n * n + 4 * n + 8)
    if family is Family.CGV_T1:
        _guard(family, n, 1)
        return 1
    if family is Family.CGV_T2:
        _guard(family, n, 2)
        return n * (n - 1) // 2
    if family is Family.CGV_T3:
        _guard(family, n, 4)
        return fib(n + 7) - (n**3 + 2 * n**2 + 13 * n + 26) // 2
    if family is Family.CGVN_T2:
        _guard(family, n, 2)
        return n - 1
    if family is Family.CGVN_T3:
        _guard(family, n, 4)
        return (n - 1) * (n - 2) * (n - 3) // 6
    if family is Family.CGVN_T4:
        _guard(family, n, 5)
        return fib(n + 8) - (n**4 - 2 * n**3 + 26 * n**2 + 47 * n + 132) // 6
    if family is Family.CGD:
        _guard(family, n, 1)
        return 1
    if family is Family.CGD_NT:
        _guard(family, n, 1)
        if (t == 1 and n == 1) or (t == 2 and n >= 2):
            return 1
        return 0
    if family is Family.CGDN:
        _guard(family, n, 1)
        return 1 if n >= 2 else 0
    # Duality swaps semi-vetoers and semi-passers, so this family is closed
    # under duality and its count has the parity of its self-dual members.
    # At n=3 these are majority {12,13,23} (t=1, self-dual) and the dual pair
    # {12,13} / {1,23} (t=2): the count is 3.  The lemma value 2, as it was
    # transcribed, is even and cannot hold; the program departs from it.
    if family is Family.CGSVSP:
        _guard(family, n, 1)
        if n == 1:
            return 0
        return 3 if n == 3 else 1
    if family is Family.CGSVSP_NT:
        _guard(family, n, 1)
        if t == 2 and n == 3:
            return 2
        if (t == 1 and n == 3) or (t == 2 and n >= 2):
            return 1
        return 0
    if family in (Family.CGVSP, Family.CGPSV):
        _guard(family, n, 1)
        if n == 1:
            return 0
        return 2 if n == 2 else 1
    if family in (Family.CGVSP_NT, Family.CGPSV_NT):
        _guard(family, n, 1)
        if (t == 1 and n == 2) or (t == 2 and n >= 2):
            return 1
        return 0
    raise DomainError(f"unhandled family {family}")


def phi_bounds(index: int = 120) -> tuple[Fraction, Fraction]:
    """A rational enclosure of the golden ratio from consecutive Fibonacci quotients.

    F(k+1)/F(k) approaches from below for odd k and from above for even k.
    """
    from fractions import Fraction  # here, as it slows the package's import (it loads decimal)

    if index < 3:
        raise DomainError("enclosure index must be at least 3")
    k = index if index % 2 else index + 1
    lo = Fraction(fib(k + 1), fib(k))
    hi = Fraction(fib(k + 2), fib(k + 1))
    return lo, hi


_GAP_TARGETS = {
    (Family.CGV_T3, Family.CG_T2): 1,  # golden ratio itself
    (Family.CGVN_T4, Family.CG_T2): 2,  # its square
}


def golden_ratio_gap(
    numerator: Family, denominator: Family, n: int
) -> tuple[Fraction, Fraction]:
    """Exact enclosure of |numerator(n)/denominator(n) - target|.

    The target is the golden ratio for the three-type veto family over the
    two-type totals, and its square for the four-type veto-and-null family.
    """
    try:
        power = _GAP_TARGETS[(numerator, denominator)]
    except KeyError:
        raise DomainError(
            "no documented limit ratio for this family pair"
        ) from None
    den = evaluate(denominator, n)
    if den == 0:
        raise DomainError(f"{denominator.value} vanishes at n={n}")
    return _enclosed_gap(evaluate(numerator, n), den, power)


def _enclosed_gap(num: int, den: int, power: int) -> tuple[Fraction, Fraction]:
    """Exact enclosure of |num/den - phi**power| for power 1 or 2 and den > 0."""
    from fractions import Fraction

    ratio = Fraction(num, den)
    lo, hi = phi_bounds()
    if power == 2:
        # phi^2 = phi + 1, which keeps the enclosure exact
        lo, hi = lo + 1, hi + 1
    if ratio >= hi:
        return ratio - hi, ratio - lo
    if ratio <= lo:
        return lo - ratio, hi - ratio
    return Fraction(0), max(hi - ratio, ratio - lo)
