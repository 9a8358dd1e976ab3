"""Verification checks, defined once for ``csgames verify`` and the acceptance gate.

Each check compares a count or an identity against an independent source and
gives a row whose last field is the match bool.  ``SUITES`` groups them into the
named ``verify`` suites, each with its CSV header.
"""

from __future__ import annotations

from typing import Iterator

from . import formulas, refcounts
from .enumeration import EnumSpec, catalog_with_roles, count_games, raw_pairs
from .formulas import Family
from .invariants import Invariants, expand
from .oracle import ORACLE_MAX_PLAYERS, oracle_count
from .roles import Role
from .transforms import DOMAINS, Bijection, apply_bijection, dual


def formula_row(family: Family, n: int, t: int, require=(), jobs: int = 1) -> tuple:
    """Closed form against the enumerated count with t types and the required roles."""
    expected = formulas.evaluate(family, n)
    actual = count_games(EnumSpec(n=n, t=t, require=frozenset(require)), jobs=jobs)
    return family.value, n, expected, actual, expected == actual


def reference_row(n: int, t: int, expected: int, jobs: int = 1) -> tuple:
    """A published count against the enumerated CG(n, t)."""
    actual = count_games(EnumSpec(n=n, t=t), jobs=jobs)
    return n, t, expected, actual, expected == actual


def oracle_row(spec: EnumSpec, jobs: int = 1) -> tuple:
    """The extensional oracle against the enumerator, under the same filters."""
    expected = oracle_count(spec.n, spec.t, spec.require, spec.forbid, spec.rows)
    actual = count_games(spec, jobs=jobs)
    return spec.n, spec.t, expected, actual, expected == actual


def rows1_row(n: int, jobs: int = 1) -> tuple:
    """Single-row games summed over t are the 2^n - 1 nonempty minimal coalitions,
    both as counted (a closed form) and as streamed."""
    expected = 2**n - 1
    specs = [EnumSpec(n=n, t=t, rows=1) for t in range(1, n + 1)]
    total = sum(count_games(spec, jobs=jobs) for spec in specs)
    streamed = sum(1 for spec in specs for _ in raw_pairs(spec))
    return n, "rows1_sum", expected, total, total == streamed == expected


def dual_involution_row(n: int) -> tuple:
    """dual(dual(G)) == G for every complete game on n players.

    The games are the expansions of the enumerated (n̄, M) pairs, so only
    complete games are checked.  The ``duality`` suite caps ``--max-n`` at 6
    without saying so: it runs n = 1..min(max_n, 6).
    """
    games = [
        expand(Invariants(sizes, matrix))
        for t in range(1, n + 1)
        for sizes, matrix in raw_pairs(EnumSpec(n=n, t=t))
    ]
    return n, "dual_involution", len(games), all(dual(dual(g)) == g for g in games)


def _plan_entry(bijection: Bijection) -> tuple:
    need, want, min_t = DOMAINS[bijection][:3]
    if bijection is Bijection.DUAL_SWAP:
        # h1 is checked on the null classes: duality maps vetoer+null onto passer+null
        need, want, min_t = need + (Role.NULL,), want + (Role.NULL,), 2
    return bijection, frozenset(need), frozenset(want), min_t


# name -> (bijection, roles of its domain class, roles of its target class, least t)
BIJECTION_PLAN = {b.value: _plan_entry(b) for b in Bijection}


def bijection_rows(plan: dict, catalog, n: int, t: int) -> Iterator[tuple]:
    """Each planned bijection maps its domain class one-to-one onto its target class.

    ``catalog`` is a sequence of the (invariants, present-role set) pairs of the
    (n, t) slice; the caller picks how the role sets are computed.
    """
    for name, (bijection, need, want, min_t) in plan.items():
        if t < min_t:
            continue
        domain = {inv for inv, roles in catalog if need <= roles}
        target = {inv for inv, roles in catalog if want <= roles}
        images = {apply_bijection(bijection, inv) for inv in domain}
        yield n, t, name, len(domain), len(target), len(images) == len(domain) and images == target


# (family, least n, greatest n, t, required roles) for the formulas suite
FORMULA_PLAN = (
    (Family.CG_T1, 1, 12, 1, ()),
    (Family.CG_T2, 2, 12, 2, ()),
    (Family.CGV_T2, 2, 10, 2, (Role.VETOER,)),
    (Family.CGV_T3, 4, 9, 3, (Role.VETOER,)),
    (Family.CGVN_T3, 4, 9, 3, (Role.VETOER, Role.NULL)),
    (Family.CGVN_T4, 5, 9, 4, (Role.VETOER, Role.NULL)),
)


def _formulas(max_n: int, jobs: int) -> Iterator[tuple]:
    for family, lo, hi, t, require in FORMULA_PLAN:
        for n in range(lo, min(max_n, hi) + 1):
            yield formula_row(family, n, t, require, jobs)


def _bijections(max_n: int, jobs: int) -> Iterator[tuple]:
    for n in range(2, max_n + 1):
        for t in range(1, min(n, 4) + 1):
            catalog = [(Invariants(sizes, matrix), roles)
                       for sizes, matrix, roles in catalog_with_roles(n, t, jobs=jobs)]
            yield from bijection_rows(BIJECTION_PLAN, catalog, n, t)


def _duality(max_n: int, jobs: int) -> Iterator[tuple]:
    return map(dual_involution_row, range(1, min(max_n, 6) + 1))


def _oracle(max_n: int, jobs: int) -> Iterator[tuple]:
    for n in range(1, min(max_n, ORACLE_MAX_PLAYERS) + 1):
        for t in range(1, n + 1):
            yield oracle_row(EnumSpec(n=n, t=t), jobs)


def _rows(max_n: int, jobs: int) -> Iterator[tuple]:
    return (rows1_row(n, jobs) for n in range(1, max_n + 1))


def _sequences(max_n: int, jobs: int) -> Iterator[tuple]:
    for n, expected in sorted(refcounts.CG_T3.items()):
        if n <= max_n:
            yield reference_row(n, 3, expected, jobs)
    for (n, t), expected in sorted(refcounts.CG_LARGE.items()):
        if n <= max_n:
            yield reference_row(n, t, expected, jobs)


# suite name -> (CSV header, rows(max_n, jobs))
SUITES = {
    "formulas": ("family,n,formula,enumerated,match", _formulas),
    "bijections": ("n,t,bijection,domain,codomain,match", _bijections),
    "duality": ("n,check,cases,match", _duality),
    "oracle": ("n,t,oracle,enumerated,match", _oracle),
    "rows": ("n,check,expected,actual,match", _rows),
    "sequences": ("n,t,expected,actual,match", _sequences),
}
