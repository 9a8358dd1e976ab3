"""Duality and the bijections between distinguished-voter classes.

All bijections act on invariants only.  Domain membership is checked strictly:
applying a map outside its class raises DomainError naming the missing role.
"""

from __future__ import annotations

import enum

from .core import SimpleGame
from .errors import DomainError, ValidationError
from .invariants import Invariants, _shift_minimal, _winning_bits
from .roles import Role, role_present_raw


def dual(game: SimpleGame) -> SimpleGame:
    """The blocking game: a coalition wins iff its complement loses.

    Minimal winning coalitions of the dual are the minimal transversals of the
    original minimal winning family, built one edge m at a time (Berge).  The
    transversals that hit m stay minimal.  A candidate tr | i, with tr missing
    m and i in m, never contains another candidate, so it is minimal unless it
    contains a kept transversal k; as k hits m and tr misses it, that happens
    iff k - tr is exactly {i}.  No sort and no pairwise prune are needed.
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
        transversals = extended
    return SimpleGame(game.n, tuple(transversals))


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


def _require(inv: Invariants, role: Role):
    if not role_present_raw(inv.n_bar, inv.matrix, role):
        raise DomainError(f"input game has no {role.value}")


def _rotate_front_to_back(sizes):
    return sizes[1:] + sizes[:1]


def _sorted_rows(rows):
    return tuple(sorted(rows, reverse=True))


def _f_forward(inv: Invariants) -> Invariants:
    _require(inv, Role.VETOER)
    if inv.t < 2:
        raise DomainError("the null class needs at least two types")
    if role_present_raw(inv.n_bar, inv.matrix, Role.NULL):
        return inv
    rows = tuple(row[1:] + (0,) for row in inv.matrix)
    return Invariants(_rotate_front_to_back(inv.n_bar), _sorted_rows(rows))


def _f_inverse(inv: Invariants) -> Invariants:
    _require(inv, Role.NULL)
    if role_present_raw(inv.n_bar, inv.matrix, Role.VETOER):
        return inv
    n1 = inv.n_bar[-1]
    sizes = (n1,) + inv.n_bar[:-1]
    rows = tuple((n1,) + row[:-1] for row in inv.matrix)
    return Invariants(sizes, _sorted_rows(rows))


def _g_forward(inv: Invariants) -> Invariants:
    _require(inv, Role.PASSER)
    if inv.t < 2:
        raise DomainError("the null class needs at least two types")
    if role_present_raw(inv.n_bar, inv.matrix, Role.NULL):
        return inv
    e1 = (1,) + (0,) * (inv.t - 1)
    if inv.matrix[0] != e1:
        raise DomainError("passer game without nulls must have the singleton profile as first row")
    rows = tuple(row[1:] + (0,) for row in inv.matrix[1:])
    return Invariants(_rotate_front_to_back(inv.n_bar), _sorted_rows(rows))


def _g_inverse(inv: Invariants) -> Invariants:
    _require(inv, Role.NULL)
    if role_present_raw(inv.n_bar, inv.matrix, Role.PASSER):
        return inv
    n1 = inv.n_bar[-1]
    sizes = (n1,) + inv.n_bar[:-1]
    e1 = (1,) + (0,) * (inv.t - 1)
    rows = (e1,) + tuple((0,) + row[:-1] for row in inv.matrix)
    return Invariants(sizes, _sorted_rows(rows))


def _h_forward(inv: Invariants) -> Invariants:
    _require(inv, Role.VETOER)
    if role_present_raw(inv.n_bar, inv.matrix, Role.SEMI_VETOER):
        return inv
    if inv.t == 1:
        if inv.n < 2:
            raise DomainError("no semi-vetoer exists for a single player")
        return Invariants(inv.n_bar, ((inv.n - 1,),))
    new_row = (inv.n_bar[0] - 1,) + inv.n_bar[1:]
    return Invariants(inv.n_bar, _sorted_rows(inv.matrix + (new_row,)))


def _h_inverse(inv: Invariants) -> Invariants:
    _require(inv, Role.SEMI_VETOER)
    if role_present_raw(inv.n_bar, inv.matrix, Role.VETOER):
        return inv
    if inv.t == 1:
        return Invariants(inv.n_bar, ((inv.n,),))
    drop = (inv.n_bar[0] - 1,) + inv.n_bar[1:]
    if drop not in inv.matrix:
        raise DomainError("semi-veto game without veto must contain the all-but-one-strongest row")
    rows = tuple(row for row in inv.matrix if row != drop)
    return Invariants(inv.n_bar, _sorted_rows(rows))


def _k_forward(inv: Invariants) -> Invariants:
    _require(inv, Role.PASSER)
    if role_present_raw(inv.n_bar, inv.matrix, Role.SEMI_PASSER):
        return inv
    if inv.t == 1:
        if inv.n < 2:
            raise DomainError("no semi-passer exists for a single player")
        return Invariants(inv.n_bar, ((2,),))
    e1 = (1,) + (0,) * (inv.t - 1)
    if inv.matrix[0] != e1:
        raise DomainError("passer game without semi-passers must start with the singleton profile")
    new_first = (1,) + (0,) * (inv.t - 2) + (1,)
    return Invariants(inv.n_bar, _sorted_rows((new_first,) + inv.matrix[1:]))


def _k_inverse(inv: Invariants) -> Invariants:
    _require(inv, Role.SEMI_PASSER)
    if role_present_raw(inv.n_bar, inv.matrix, Role.PASSER):
        return inv
    if inv.t == 1:
        return Invariants(inv.n_bar, ((1,),))
    probe = (1,) + (0,) * (inv.t - 2) + (1,)
    if probe not in inv.matrix:
        raise DomainError("semi-passer game without passers must contain the pair-profile row")
    e1 = (1,) + (0,) * (inv.t - 1)
    rows = tuple(e1 if row == probe else row for row in inv.matrix)
    return Invariants(inv.n_bar, _sorted_rows(rows))


def _h1_forward(inv: Invariants) -> Invariants:
    _require(inv, Role.VETOER)
    if not (
        role_present_raw(inv.n_bar, inv.matrix, Role.NULL)
        or role_present_raw(inv.n_bar, inv.matrix, Role.SEMI_VETOER)
    ):
        raise DomainError("input game has no null and no semi-vetoer")
    return dual_invariants(inv)


def _h1_inverse(inv: Invariants) -> Invariants:
    _require(inv, Role.PASSER)
    if not (
        role_present_raw(inv.n_bar, inv.matrix, Role.NULL)
        or role_present_raw(inv.n_bar, inv.matrix, Role.SEMI_PASSER)
    ):
        raise DomainError("input game has no null and no semi-passer")
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
            return Invariants((n1, b - 1, m + 1), ((n1, b - 1, 0), (n1, b - 2, m + 1)))
        return Invariants((n1, b + 1, m - 1), above)
    merged = tuple((row[0] + row[1],) + row[2:-1] for row in above)
    h = Invariants((n1 + b,) + inv.n_bar[2:-1], merged)
    if inverse and role_present_raw(h.n_bar, h.matrix, Role.NULL):
        h = _h2_inverse(h)
    elif not inverse and role_present_raw(h.n_bar, h.matrix, Role.SEMI_VETOER):
        h = _h2_forward(h)
    rows = tuple((n1, b) + row[1:] + (0,) for row in h.matrix)
    last = (n1, b - 1) + h.n_bar[1:] + (m if inverse else 0,)
    return Invariants((n1, b) + h.n_bar[1:] + (m,), rows + (last,))


def _h2_forward(inv: Invariants) -> Invariants:
    """Column surgery: drop the semi-veto row and move class 2 to the back as nulls."""
    _require(inv, Role.VETOER)
    _require(inv, Role.SEMI_VETOER)
    if inv.t < 2:
        raise DomainError("the null class needs at least two types")
    if inv.t == 2:
        n1, n2 = inv.n_bar
        return Invariants(inv.n_bar, ((n1, 0),))
    if inv.r < 2:
        raise DomainError("veto plus semi-veto games with three or more types have r >= 2")
    if all(row[-1] == 0 for row in inv.matrix[:-1]):
        return _h2_leftover(inv, inverse=False)
    sizes = (inv.n_bar[0],) + inv.n_bar[2:] + (inv.n_bar[1],)
    rows = tuple((row[0],) + row[2:] + (0,) for row in inv.matrix[:-1])
    return Invariants(sizes, _sorted_rows(rows))


def _h2_inverse(inv: Invariants) -> Invariants:
    _require(inv, Role.VETOER)
    _require(inv, Role.NULL)
    if inv.t == 2:
        n1, n2 = inv.n_bar
        return Invariants(inv.n_bar, ((n1, n2 - 1),))
    if inv.matrix[-1] == (inv.n_bar[0], inv.n_bar[1] - 1) + inv.n_bar[2:-1] + (0,):
        return _h2_leftover(inv, inverse=True)
    n2 = inv.n_bar[-1]
    sizes = (inv.n_bar[0],) + (n2,) + inv.n_bar[1:-1]
    kept = tuple((row[0], n2) + row[1:-1] for row in inv.matrix)
    last = (sizes[0], n2 - 1) + sizes[2:]
    return Invariants(sizes, _sorted_rows(kept + (last,)))


_FORWARD = {
    Bijection.VETO_TO_NULL: _f_forward,
    Bijection.PASSER_TO_NULL: _g_forward,
    Bijection.VETO_TO_SEMI_VETO: _h_forward,
    Bijection.PASSER_TO_SEMI_PASSER: _k_forward,
    Bijection.DUAL_SWAP: _h1_forward,
    Bijection.SEMI_VETO_TO_NULL: _h2_forward,
}

_INVERSE = {
    Bijection.VETO_TO_NULL: _f_inverse,
    Bijection.PASSER_TO_NULL: _g_inverse,
    Bijection.VETO_TO_SEMI_VETO: _h_inverse,
    Bijection.PASSER_TO_SEMI_PASSER: _k_inverse,
    Bijection.DUAL_SWAP: _h1_inverse,
    Bijection.SEMI_VETO_TO_NULL: _h2_inverse,
}


def apply_bijection(bijection: Bijection, inv: Invariants, inverse: bool = False) -> Invariants:
    """Apply one of the class bijections (or its inverse) to valid invariants."""
    table = _INVERSE if inverse else _FORWARD
    return table[bijection](inv)
