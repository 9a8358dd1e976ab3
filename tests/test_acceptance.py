"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Counts are always compared exactly.  Stated wall-clock budgets are asserted
as-is; they are generous on commodity hardware.  Stretch targets (not required
for acceptance) run only when CSGAMES_STRETCH=1 is set.
"""

import os
import time
from fractions import Fraction
from functools import lru_cache

import pytest

from csgames.checks import (BIJECTION_PLAN, bijection_rows, dual_involution_row, formula_row,
                            oracle_row, reference_row, rows1_row)
from csgames.enumeration import EnumSpec, count_games, raw_pairs
from csgames.formulas import Family, evaluate, golden_ratio_gap
from csgames.invariants import Invariants, expand, extract
from csgames.refcounts import CG_LARGE, CG_T3, CGV_T3, CGVN_T4
from csgames.roles import Role, present_roles_raw
from csgames.transforms import Bijection

STRETCH = os.environ.get("CSGAMES_STRETCH") == "1"


def _report(num: int, label: str, ok: bool, elapsed: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} {label}: {status} ({elapsed:.1f}s)"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


@lru_cache(maxsize=None)
def catalog8(n: int, t: int):
    """(invariants, present-role set) pairs for one (n, t) slice, n <= 8, t <= 4."""
    return tuple(
        (Invariants(sizes, matrix), present_roles_raw(sizes, matrix))
        for sizes, matrix in raw_pairs(EnumSpec(n=n, t=t))
    )


def test_criterion_01_anonymous_counts():
    start = time.monotonic()
    ok = all(count_games(EnumSpec(n=n, t=1)) == n for n in range(1, 13))
    elapsed = time.monotonic() - start
    _report(1, "one-type counts equal n (n<=12)", ok and elapsed < 1.0, elapsed)


def test_criterion_02_two_type_fibonacci_form():
    start = time.monotonic()
    ok = all(formula_row(Family.CG_T2, n, 2)[-1] for n in range(2, 13))
    elapsed = time.monotonic() - start
    _report(2, "CG(n,2) matches F(n+6) form (n<=12)", ok and elapsed < 5.0, elapsed)


def test_criterion_03_three_type_sequence():
    start = time.monotonic()
    ok = all(reference_row(n, 3, CG_T3[n])[-1] for n in range(4, 10))
    elapsed = time.monotonic() - start
    _report(3, "CG(n,3) sequence (n=4..9)", ok and elapsed < 60.0, elapsed)


@pytest.mark.skipif(not STRETCH, reason="stretch target; set CSGAMES_STRETCH=1")
def test_criterion_03_stretch():
    start = time.monotonic()
    ok = all(reference_row(n, 3, CG_T3[n], jobs=4)[-1] for n in (10, 11))
    elapsed = time.monotonic() - start
    _report(3, "stretch CG(10..11,3)", ok and elapsed < 600.0, elapsed)


def test_criterion_04_sharded_count_10_4():
    start = time.monotonic()
    ok = reference_row(10, 4, CG_LARGE[(10, 4)], jobs=4)[-1]
    elapsed = time.monotonic() - start
    _report(4, "CG(10,4) by sharded counting (4 workers)", ok and elapsed < 600.0, elapsed)


@pytest.mark.skipif(not STRETCH, reason="stretch target; set CSGAMES_STRETCH=1")
def test_criterion_04_stretch():
    start = time.monotonic()
    ok = reference_row(11, 4, CG_LARGE[(11, 4)], jobs=4)[-1]
    elapsed = time.monotonic() - start
    _report(4, "stretch CG(11,4)", ok, elapsed)


def test_criterion_05_veto_two_types():
    start = time.monotonic()
    ok = all(formula_row(Family.CGV_T2, n, 2, {Role.VETOER})[-1] for n in range(2, 11))
    ok &= all(evaluate(Family.CGV_T2, n) == n * (n - 1) // 2 for n in range(2, 201))
    elapsed = time.monotonic() - start
    _report(5, "CGV(n,2) enumerated (n<=10) and closed form (n<=200)", ok, elapsed)


def test_criterion_06_veto_three_types():
    start = time.monotonic()
    ok = all(formula_row(Family.CGV_T3, n, 3, {Role.VETOER})[-1] for n in range(4, 10))
    ok &= all(evaluate(Family.CGV_T3, n) == CGV_T3[n] for n in CGV_T3)
    # closed form evaluates over the full range and obeys the removal recurrence
    for n in range(5, 201):
        lhs = evaluate(Family.CGV_T3, n) - evaluate(Family.CGV_T3, n - 1)
        rhs = evaluate(Family.CG_T2, n - 1) - evaluate(Family.CGV_T2, n - 1)
        ok &= lhs == rhs
    elapsed = time.monotonic() - start
    _report(6, "CGV(n,3) enumerated (n=4..9) and closed form (n<=200)", ok, elapsed)


def test_criterion_07_veto_null_four_types():
    start = time.monotonic()
    ok = all(formula_row(Family.CGVN_T4, n, 4, {Role.VETOER, Role.NULL})[-1] for n in range(5, 10))
    ok &= all(evaluate(Family.CGVN_T4, n) == CGVN_T4[n] for n in CGVN_T4)
    for n in range(6, 201):
        lhs = evaluate(Family.CGVN_T4, n) - evaluate(Family.CGVN_T4, n - 1)
        rhs = evaluate(Family.CGV_T3, n - 1) - evaluate(Family.CGVN_T3, n - 1)
        ok &= lhs == rhs
    elapsed = time.monotonic() - start
    _report(7, "CGVN(n,4) enumerated (n=5..9) and closed form (n<=200)", ok, elapsed)


# the verify plan, plus h1 pairing the vetoer+semi-vetoer and passer+semi-passer classes
_BIJECTIONS = {
    **BIJECTION_PLAN,
    "h1-semi": (Bijection.DUAL_SWAP, frozenset({Role.VETOER, Role.SEMI_VETOER}),
                frozenset({Role.PASSER, Role.SEMI_PASSER}), 2),
}


def test_criterion_08_bijection_exhaustion():
    start = time.monotonic()
    ok = True
    for n in range(2, 9):
        for t in range(1, min(n, 4) + 1):
            sizes = {}
            for _, _, name, domain, target, match in bijection_rows(_BIJECTIONS, catalog8(n, t), n, t):
                ok &= match
                _, need, want, _ = _BIJECTIONS[name]
                sizes[need] = domain
                sizes[want] = target
            # count corollaries
            v = sizes.get(frozenset({Role.VETOER}))
            if v is not None and n >= 2:
                ok &= v == sizes[frozenset({Role.PASSER})]
                ok &= v == sizes[frozenset({Role.SEMI_VETOER})]
                ok &= v == sizes[frozenset({Role.SEMI_PASSER})]
                if t >= 2:
                    ok &= v == sizes[frozenset({Role.NULL})]
            vsv = sizes.get(frozenset({Role.VETOER, Role.SEMI_VETOER}))
            if vsv is not None and t >= 2:
                ok &= vsv == sizes[frozenset({Role.PASSER, Role.SEMI_PASSER})]
                ok &= vsv == sizes[frozenset({Role.VETOER, Role.NULL})]
                ok &= vsv == sizes[frozenset({Role.PASSER, Role.NULL})]
    # single-player edge: the lone game has veto and passer but no semi roles
    one = catalog8(1, 1)
    roles = one[0][1]
    ok &= Role.VETOER in roles and Role.PASSER in roles
    ok &= Role.SEMI_VETOER not in roles and Role.SEMI_PASSER not in roles
    elapsed = time.monotonic() - start
    _report(8, "bijection exhaustion and count corollaries (n<=8, t<=4)",
            ok and elapsed < 300.0, elapsed)


def test_criterion_09_single_row_identity():
    start = time.monotonic()
    ok = all(rows1_row(n)[-1] for n in range(1, 13))
    elapsed = time.monotonic() - start
    _report(9, "sum_t CG(n,t,r=1) = 2^n - 1 (n<=12)", ok and elapsed < 60.0, elapsed)


def test_criterion_10_oracle_equivalence():
    start = time.monotonic()
    filters = [{}, {"rows": 1}] + [{"require": req} for req in [
        {Role.VETOER},
        {Role.VETOER, Role.NULL},
        {Role.DICTATOR},
        {Role.DICTATOR, Role.NULL},
        {Role.SEMI_VETOER, Role.SEMI_PASSER},
        {Role.VETOER, Role.SEMI_PASSER},
        {Role.PASSER, Role.SEMI_VETOER},
    ]]
    ok = all(
        oracle_row(EnumSpec(n=n, t=t, **kw))[-1]
        for n in range(1, 6)
        for t in range(1, n + 1)
        for kw in filters
    )
    elapsed = time.monotonic() - start
    _report(10, "extensional oracle reproduces every filtered count (n<=5)",
            ok and elapsed < 120.0, elapsed)


def test_criterion_11_piecewise_lemmas():
    start = time.monotonic()
    fams = {
        Family.CGD: frozenset({Role.DICTATOR}),
        Family.CGDN: frozenset({Role.DICTATOR, Role.NULL}),
        Family.CGSVSP: frozenset({Role.SEMI_VETOER, Role.SEMI_PASSER}),
        Family.CGVSP: frozenset({Role.VETOER, Role.SEMI_PASSER}),
        Family.CGPSV: frozenset({Role.PASSER, Role.SEMI_VETOER}),
    }
    mismatches = []
    for n in range(1, 9):
        t_max = n if n <= 7 else 4
        for fam, req in fams.items():
            got = sum(
                count_games(EnumSpec(n=n, t=t, require=req)) for t in range(1, t_max + 1)
            )
            want = evaluate(fam, n)
            if got != want:
                mismatches.append(f"{fam.value}({n}): enumerated {got}, lemma {want}")
    elapsed = time.monotonic() - start
    _report(
        11,
        "piecewise lemma counts (n<=7 all t; n=8 t<=4)",
        not mismatches,
        elapsed,
        "; ".join(mismatches),
    )


def test_criterion_12_golden_ratio_asymptotics():
    start = time.monotonic()
    tol = Fraction(1, 10**4)
    _, hi1 = golden_ratio_gap(Family.CGV_T3, Family.CG_T2, 50)
    _, hi2 = golden_ratio_gap(Family.CGVN_T4, Family.CG_T2, 50)
    elapsed = time.monotonic() - start
    _report(12, "ratios at n=50 within 1e-4 of the golden ratio and its square",
            hi1 < tol and hi2 < tol and elapsed < 1.0, elapsed)


def test_criterion_13_round_trips():
    start = time.monotonic()
    ok = True
    for n in range(1, 9):
        for t in range(1, min(n, 4) + 1):
            for g, _roles in catalog8(n, t):
                ok &= extract(expand(g)) == g
    ok &= all(dual_involution_row(n)[-1] for n in range(1, 7))
    elapsed = time.monotonic() - start
    _report(13, "extract(expand(I))=I (n<=8,t<=4); dual involution (n<=6)", ok, elapsed)
