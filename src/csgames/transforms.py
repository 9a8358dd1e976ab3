"""Duality and the bijections between distinguished-voter classes.

All bijections act on invariants only.  Domain membership is checked strictly:
applying a map outside its class raises DomainError naming the missing role.
"""

from __future__ import annotations

import enum
from functools import lru_cache

from .core import SimpleGame, coalition_members
from .errors import DomainError, ValidationError
from .invariants import Invariants, _shift_minimal, _winning_bits
from .roles import Role, role_present_raw


def dual(game: SimpleGame) -> SimpleGame:
    """The blocking game: a coalition wins iff its complement loses.

    Minimal winning coalitions of the dual are the minimal transversals of the
    original minimal winning family.
    """
    transversals = [0]
    for m in game.min_winning:
        extended = []
        for tr in transversals:
            if tr & m:
                extended.append(tr)
            else:
                for i in coalition_members(m):
                    extended.append(tr | (1 << (i - 1)))
        extended.sort(key=lambda x: x.bit_count())
        pruned: list[int] = []
        for cand in extended:
            if not any(k & cand == k for k in pruned):
                pruned.append(cand)
        transversals = pruned
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
        raise ValidationError(f"unknown bijection {name!r}; choose from f,g,h,k,h1,h2")


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


def _h2_class_members(n: int, t: int, roles: frozenset[Role]) -> tuple[Invariants, ...]:
    from .enumeration import EnumSpec, enumerate_invariants

    spec = EnumSpec(n=n, t=t, require=roles)
    return tuple(enumerate_invariants(spec))


def _h2_literal(inv: Invariants) -> Invariants | None:
    """Column surgery of the semi-veto-to-null map; None when the result is invalid."""
    sizes = (inv.n_bar[0],) + inv.n_bar[2:] + (inv.n_bar[1],)
    rows = tuple((row[0],) + row[2:] + (0,) for row in inv.matrix[:-1])
    try:
        return Invariants(sizes, _sorted_rows(rows))
    except ValidationError:
        return None


@lru_cache(maxsize=64)
def _h2_tables(n: int, t: int):
    """Pairing for the inputs the published column surgery cannot handle.

    The all-but-one-strongest row always exists in the domain class, but
    deleting it and zeroing the second column produces an invalid matrix for
    some members (their remaining rows never use the rotated last class).
    Those leftovers are matched, in canonical enumeration order, with the
    codomain members the surgery never reaches; see the decisions ledger.
    """
    domain = _h2_class_members(n, t, frozenset({Role.VETOER, Role.SEMI_VETOER}))
    codomain = _h2_class_members(n, t, frozenset({Role.VETOER, Role.NULL}))
    forward: dict[Invariants, Invariants] = {}
    defective = []
    hit = set()
    for inv in domain:
        image = _h2_literal(inv)
        if image is not None:
            forward[inv] = image
            hit.add(image)
        else:
            defective.append(inv)
    leftover = [inv for inv in codomain if inv not in hit]
    if len(defective) != len(leftover):
        raise ValidationError(
            f"semi-veto/null classes of size {len(domain)}/{len(codomain)} cannot be paired"
        )
    for src, dst in zip(defective, leftover):
        forward[src] = dst
    backward = {dst: src for src, dst in forward.items()}
    return forward, backward


def _h2_forward(inv: Invariants) -> Invariants:
    _require(inv, Role.VETOER)
    _require(inv, Role.SEMI_VETOER)
    if inv.t < 2:
        raise DomainError("the null class needs at least two types")
    if inv.t == 2:
        n1, n2 = inv.n_bar
        return Invariants(inv.n_bar, ((n1, 0),))
    if inv.r < 2:
        raise DomainError("veto plus semi-veto games with three or more types have r >= 2")
    image = _h2_literal(inv)
    if image is not None:
        return image
    forward, _ = _h2_tables(inv.n, inv.t)
    return forward[inv]


def _h2_inverse(inv: Invariants) -> Invariants:
    _require(inv, Role.VETOER)
    _require(inv, Role.NULL)
    if inv.t == 2:
        n1, n2 = inv.n_bar
        return Invariants(inv.n_bar, ((n1, n2 - 1),))
    n2 = inv.n_bar[-1]
    sizes = (inv.n_bar[0],) + (n2,) + inv.n_bar[1:-1]
    kept = tuple((row[0], n2) + row[1:-1] for row in inv.matrix)
    last = (sizes[0], n2 - 1) + sizes[2:]
    try:
        candidate = Invariants(sizes, _sorted_rows(kept + (last,)))
    except ValidationError:
        candidate = None
    if candidate is not None and _h2_literal(candidate) == inv:
        return candidate
    _, backward = _h2_tables(inv.n, inv.t)
    if inv not in backward:
        raise DomainError("input is not reachable by the semi-veto-to-null map")
    return backward[inv]


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
