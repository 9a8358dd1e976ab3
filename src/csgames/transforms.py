"""Duality and the bijections between distinguished-voter classes.

All bijections act on invariants only.  ``DOMAINS`` declares each map's domain
and image roles once, and ``apply_bijection`` checks them for both directions:
applying a map outside its class raises DomainError naming the missing role.
"""

from __future__ import annotations

import enum
from functools import partial

from .core import SimpleGame
from .errors import CapacityError, DomainError, ValidationError
from .invariants import WINNING_SET_CAP, Invariants, _shift_minimal, _winning_bits
from .roles import Role, present_roles_raw, role_present_raw


def dual(game: SimpleGame) -> SimpleGame:
    """The blocking game: a coalition wins iff its complement loses.

    Minimal winning coalitions of the dual are the minimal transversals of the
    original minimal winning family, built one edge m at a time (Berge).  The
    transversals that hit m stay minimal.  A candidate tr | i, with tr missing
    m and i in m, never contains another candidate, so it is minimal unless it
    contains a kept transversal k; as k hits m and tr misses it, that happens
    iff k - tr is exactly {i}.  No sort and no pairwise prune are needed.
    A working list past ``WINNING_SET_CAP`` transversals is a CapacityError,
    checked as each transversal that misses m is extended.
    """
    transversals = [0]
    for m in game.min_winning:
        kept = [tr for tr in transversals if tr & m]
        extended = kept.copy()
        for tr in transversals:
            if tr & m:
                continue
            blocked = 0
            for k in kept:
                outside = k & ~tr
                if not outside & (outside - 1):
                    blocked |= outside
            free = m & ~blocked
            while free:
                i = free & -free
                free ^= i
                extended.append(tr | i)
            if len(extended) > WINNING_SET_CAP:
                raise CapacityError(f"dual needs more than {WINNING_SET_CAP} transversals")
        transversals = extended
    return SimpleGame._canonical(game.n, transversals)


def dual_invariants(inv: Invariants) -> Invariants:
    """Invariants of the dual game, computed on profiles (same class sizes)."""
    table, winning = _winning_bits(inv.n_bar, inv.matrix)
    return _shift_minimal(table, table.blocking(winning))


class Bijection(enum.Enum):
    VETO_TO_NULL = "f"
    PASSER_TO_NULL = "g"
    VETO_TO_SEMI_VETO = "h"
    PASSER_TO_SEMI_PASSER = "k"
    DUAL_SWAP = "h1"
    SEMI_VETO_TO_NULL = "h2"

    @classmethod
    def from_name(cls, name: str) -> "Bijection":
        for b in cls:
            if b.value == name:
                return b
        choices = ",".join(b.value for b in cls)
        raise ValidationError(f"unknown bijection {name!r}; choose from {choices}")


def _rotate_front_to_back(sizes):
    return sizes[1:] + sizes[:1]


# The images keep decreasing lex order unsorted: rewritten rows share the entry
# dropped or added, and a row put first or last starts above or below the rest.
def _f_forward(inv: Invariants) -> Invariants:
    rows = tuple(row[1:] + (0,) for row in inv.matrix)
    return Invariants._canonical(_rotate_front_to_back(inv.n_bar), rows)


def _f_inverse(inv: Invariants) -> Invariants:
    n1 = inv.n_bar[-1]
    sizes = (n1,) + inv.n_bar[:-1]
    rows = tuple((n1,) + row[:-1] for row in inv.matrix)
    return Invariants._canonical(sizes, rows)


def _g_forward(inv: Invariants) -> Invariants:
    # a passer makes M[0] = e1: every other row that starts positive is above it
    rows = tuple(row[1:] + (0,) for row in inv.matrix[1:])
    return Invariants._canonical(_rotate_front_to_back(inv.n_bar), rows)


def _g_inverse(inv: Invariants) -> Invariants:
    n1 = inv.n_bar[-1]
    sizes = (n1,) + inv.n_bar[:-1]
    e1 = (1,) + (0,) * (inv.t - 1)
    rows = (e1,) + tuple((0,) + row[:-1] for row in inv.matrix)
    return Invariants._canonical(sizes, rows)


def _h_forward(inv: Invariants) -> Invariants:
    if inv.t == 1:
        if inv.n < 2:
            raise DomainError("no semi-vetoer exists for a single player")
        return Invariants._canonical(inv.n_bar, ((inv.n - 1,),))
    new_row = (inv.n_bar[0] - 1,) + inv.n_bar[1:]
    return Invariants._canonical(inv.n_bar, inv.matrix + (new_row,))


def _h_inverse(inv: Invariants) -> Invariants:
    if inv.t == 1:
        return Invariants._canonical(inv.n_bar, ((inv.n,),))
    # without a vetoer, a semi-vetoer puts one in class 1, so n̄ - e1 is a row
    drop = (inv.n_bar[0] - 1,) + inv.n_bar[1:]
    rows = tuple(row for row in inv.matrix if row != drop)
    return Invariants._canonical(inv.n_bar, rows)


def _k_forward(inv: Invariants) -> Invariants:
    if inv.t == 1:
        if inv.n < 2:
            raise DomainError("no semi-passer exists for a single player")
        return Invariants._canonical(inv.n_bar, ((2,),))
    # M[0] = e1, as for g
    new_first = (1,) + (0,) * (inv.t - 2) + (1,)
    return Invariants._canonical(inv.n_bar, (new_first,) + inv.matrix[1:])


def _k_inverse(inv: Invariants) -> Invariants:
    if inv.t == 1:
        return Invariants._canonical(inv.n_bar, ((1,),))
    # without a passer, a semi-passer puts one in class 1, so e1 + e_t is a row
    probe = (1,) + (0,) * (inv.t - 2) + (1,)
    e1 = (1,) + (0,) * (inv.t - 1)
    rows = tuple(e1 if row == probe else row for row in inv.matrix)
    return Invariants._canonical(inv.n_bar, rows)


def _h1(semi: Role, inv: Invariants) -> Invariants:
    """Duality on a game that also holds a null or the semi-role ``semi``."""
    if not present_roles_raw(inv.n_bar, inv.matrix) & {Role.NULL, semi}:
        raise DomainError(f"input game has no null and no {semi.value}")
    return dual_invariants(inv)


def _h2_leftover(inv: Invariants, inverse: bool) -> Invariants:
    """h2 on the inputs the column surgery misses, by recursion two classes down.

    With n̄ = (n₁, b, n₃, …, m), a leftover's last row is (n₁, b−1, n₃, …, x),
    x = m forward (the semi-veto row) and x = 0 backward, and every row above
    it ends in 0.  Merging classes 1 and 2 of those rows and dropping the last
    class gives a veto game H with n̄_H = (n₁+b, n₃, …): forward H has no null,
    backward no semi-vetoer, and h2 one level down swaps the rest.
    """
    n1, b = inv.n_bar[:2]
    m = inv.n_bar[-1]
    above = inv.matrix[:-1]
    if inv.t == 3:
        if inverse:
            return Invariants._canonical((n1, b - 1, m + 1), ((n1, b - 1, 0), (n1, b - 2, m + 1)))
        return Invariants._canonical((n1, b + 1, m - 1), above)
    merged = tuple((row[0] + row[1],) + row[2:-1] for row in above)
    h = Invariants._canonical((n1 + b,) + inv.n_bar[2:-1], merged)
    if role_present_raw(h.n_bar, h.matrix, Role.NULL if inverse else Role.SEMI_VETOER):
        h = (_h2_inverse if inverse else _h2_forward)(h)
    rows = tuple((n1, b) + row[1:] + (0,) for row in h.matrix)
    last = (n1, b - 1) + h.n_bar[1:] + (m if inverse else 0,)
    return Invariants._canonical((n1, b) + h.n_bar[1:] + (m,), rows + (last,))


def _h2_forward(inv: Invariants) -> Invariants:
    """Column surgery: drop the semi-veto row and move class 2 to the back as nulls."""
    if inv.t == 2:
        return Invariants._canonical(inv.n_bar, ((inv.n_bar[0], 0),))
    if all(row[-1] == 0 for row in inv.matrix[:-1]):
        return _h2_leftover(inv, inverse=False)
    sizes = (inv.n_bar[0],) + inv.n_bar[2:] + (inv.n_bar[1],)
    rows = tuple((row[0],) + row[2:] + (0,) for row in inv.matrix[:-1])
    # no proof that dropping column 2 keeps the rows in order
    return Invariants._canonical(sizes, tuple(sorted(rows, reverse=True)))


def _h2_inverse(inv: Invariants) -> Invariants:
    if inv.t == 2:
        return Invariants._canonical(inv.n_bar, ((inv.n_bar[0], inv.n_bar[1] - 1),))
    if inv.matrix[-1] == (inv.n_bar[0], inv.n_bar[1] - 1) + inv.n_bar[2:-1] + (0,):
        return _h2_leftover(inv, inverse=True)
    n2 = inv.n_bar[-1]
    sizes = (inv.n_bar[0],) + (n2,) + inv.n_bar[1:-1]
    kept = tuple((row[0], n2) + row[1:-1] for row in inv.matrix)
    last = (sizes[0], n2 - 1) + sizes[2:]
    return Invariants._canonical(sizes, kept + (last,))


# bijection -> (roles of its domain, roles of its image, least t, map, inverse map).
# Each role list is checked in order, so the first missing role is the one named.
DOMAINS = {
    Bijection.VETO_TO_NULL: ((Role.VETOER,), (Role.NULL,), 2, _f_forward, _f_inverse),
    Bijection.PASSER_TO_NULL: ((Role.PASSER,), (Role.NULL,), 2, _g_forward, _g_inverse),
    Bijection.VETO_TO_SEMI_VETO: ((Role.VETOER,), (Role.SEMI_VETOER,), 1, _h_forward, _h_inverse),
    Bijection.PASSER_TO_SEMI_PASSER: (
        (Role.PASSER,), (Role.SEMI_PASSER,), 1, _k_forward, _k_inverse),
    Bijection.DUAL_SWAP: ((Role.VETOER,), (Role.PASSER,), 1,
                          partial(_h1, Role.SEMI_VETOER), partial(_h1, Role.SEMI_PASSER)),
    Bijection.SEMI_VETO_TO_NULL: (
        (Role.VETOER, Role.SEMI_VETOER), (Role.VETOER, Role.NULL), 2, _h2_forward, _h2_inverse),
}

# f, g, h and k fix every game that holds the roles of both their domain and image
_FIXES_OVERLAP = frozenset({Bijection.VETO_TO_NULL, Bijection.PASSER_TO_NULL,
                            Bijection.VETO_TO_SEMI_VETO, Bijection.PASSER_TO_SEMI_PASSER})


def apply_bijection(bijection: Bijection, inv: Invariants, inverse: bool = False) -> Invariants:
    """Apply one of the class bijections (or its inverse) to valid invariants.

    The input must hold every role of the map's domain (of its image, for the
    inverse) and have at least the map's least t; otherwise DomainError names
    the first missing role or the null class.
    """
    domain, image, least_t, forward, backward = DOMAINS[bijection]
    if inverse:
        domain, image = image, domain
    present = present_roles_raw(inv.n_bar, inv.matrix)
    for role in domain:
        if role not in present:
            raise DomainError(f"input game has no {role.value}")
    if inv.t < least_t:
        raise DomainError("the null class needs at least two types")
    if bijection in _FIXES_OVERLAP and present.issuperset(image):
        return inv
    return backward(inv) if inverse else forward(inv)
