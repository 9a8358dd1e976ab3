"""Detection of the six distinguished voter roles.

``semantic_roles`` evaluates the role definitions literally on coalitions;
``structural_roles`` evaluates equivalent profile-level predicates straight on
the invariants, without expanding the game.  Both keep the literal reading,
including the degenerate overlaps (a null class can satisfy the semi-veto text
in unanimity-minus-one-class games).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .core import SimpleGame, type_partition, _absent_mask, _winning_table
from .errors import ValidationError
from .invariants import Invariants, wins_counts


class Role(enum.Enum):
    DICTATOR = "dictator"
    VETOER = "vetoer"
    PASSER = "passer"
    NULL = "null"
    SEMI_VETOER = "semi-vetoer"
    SEMI_PASSER = "semi-passer"

    @classmethod
    def from_name(cls, name: str) -> "Role":
        for role in cls:
            if role.value == name:
                return role
        raise ValidationError(f"unknown role {name!r}; choose from "
                              + ", ".join(r.value for r in cls))


@dataclass(frozen=True)
class RoleReport:
    """Role sets per equivalence class (strongest first) and per player (by index)."""

    per_class: tuple[frozenset[Role], ...]
    per_player: tuple[frozenset[Role], ...]
    class_sizes: tuple[int, ...]

    @property
    def class_count(self) -> int:
        return len(self.per_class)

    @property
    def present(self) -> frozenset[Role]:
        out = set()
        for roles in self.per_class:
            out |= roles
        return frozenset(out)

    def has(self, role: Role) -> bool:
        return role in self.present

    def to_json_dict(self) -> dict:
        return {
            "t": self.class_count,
            "class_sizes": list(self.class_sizes),
            "per_class": {
                str(k + 1): sorted(r.value for r in roles)
                for k, roles in enumerate(self.per_class)
            },
            "per_player": {
                str(i + 1): sorted(r.value for r in roles)
                for i, roles in enumerate(self.per_player)
            },
            "present": sorted(r.value for r in self.present),
        }


def _per_player_from_classes(per_class, sizes) -> tuple[frozenset[Role], ...]:
    out = []
    for roles, size in zip(per_class, sizes):
        out.extend([roles] * size)
    return tuple(out)


def semantic_roles(game: SimpleGame) -> RoleReport:
    """Roles read off the coalition level, one player at a time."""
    part = type_partition(game)
    n = game.n
    table = _winning_table(game)
    full = (1 << n) - 1
    per_player = []
    for i in range(1, n + 1):
        bit = 1 << (i - 1)
        roles = set()
        if game.min_winning == (bit,):
            roles.add(Role.DICTATOR)
        if all(m & bit for m in game.min_winning):
            roles.add(Role.VETOER)
        passer = bool(table >> bit & 1)
        if passer:
            roles.add(Role.PASSER)
        if not any(m & bit for m in game.min_winning):
            roles.add(Role.NULL)
        # the only winning coalition avoiding i is N minus i, and it wins
        if table & _absent_mask(n, i - 1) == 1 << (full ^ bit):
            roles.add(Role.SEMI_VETOER)
        if not passer and all(
            table >> (bit | (1 << (j - 1))) & 1 for j in range(1, n + 1) if j != i
        ):
            roles.add(Role.SEMI_PASSER)
        per_player.append(frozenset(roles))
    per_class = tuple(per_player[members[0] - 1] for members in part.classes)
    return RoleReport(per_class, tuple(per_player), part.sizes)


def _shift(base, c, k):
    """base with k added to entry c."""
    out = list(base)
    out[c] += k
    return tuple(out)


def role_test_profiles(n_bar) -> tuple[tuple[int, ...], ...]:
    """Every profile whose win ``_class_roles`` may test, without repeats.

    These are the O(t²) profiles e_c, n̄−e_c, n̄−e_c−e_d, e_c+e_e and 2e_c.
    """
    zero = (0,) * len(n_bar)
    out = []
    for c in range(len(n_bar)):
        e_c = _shift(zero, c, 1)
        top_c = _shift(n_bar, c, -1)
        out += [e_c, top_c]
        out += [_shift(top_c, d, -1) for d, v in enumerate(top_c) if v > 0]
        out += [_shift(e_c, e, 1) for e in range(len(n_bar))]
    return tuple(dict.fromkeys(out))


def _class_roles(n_bar, wins, last_zero: bool) -> list[set[Role]]:
    """Role sets per class from win tests on ``role_test_profiles(n_bar)`` only.

    ``wins(profile)`` says whether the profile delta-dominates (or equals) some
    matrix row; ``last_zero`` whether every row ends in 0.  The reference path
    passes ``wins_counts`` on a matrix, the enumerator a lookup in bits
    accumulated during its search.  A dictator is a voter who is both passer
    and vetoer: if {i} wins and i is in every winning coalition, {i} is the
    only minimal one, and no class of two members can hold such a voter.
    """
    t = len(n_bar)
    zero = (0,) * t
    roles = [set() for _ in range(t)]
    for c in range(t):
        e_c = _shift(zero, c, 1)
        top_c = _shift(n_bar, c, -1)
        top_wins = wins(top_c)
        if not top_wins:
            roles[c].add(Role.VETOER)
        e_c_wins = wins(e_c)
        if e_c_wins:
            roles[c].add(Role.PASSER)
        if last_zero and t >= 2 and c == t - 1:
            roles[c].add(Role.NULL)
        # unique winning profile below full class c iff every one-lower loses
        if top_wins and not any(wins(_shift(top_c, d, -1)) for d in range(t) if top_c[d] > 0):
            roles[c].add(Role.SEMI_VETOER)
        # 2e_c is a pair from class c only when the class has two members
        if not e_c_wins and all(
            wins(_shift(e_c, e, 1)) for e in range(t) if e != c or n_bar[c] >= 2
        ):
            roles[c].add(Role.SEMI_PASSER)
        if Role.PASSER in roles[c] and Role.VETOER in roles[c]:
            roles[c].add(Role.DICTATOR)
    return roles


def _class_roles_raw(n_bar, matrix) -> list[set[Role]]:
    return _class_roles(
        n_bar,
        lambda counts: wins_counts(n_bar, matrix, counts),
        all(row[-1] == 0 for row in matrix),
    )


def structural_roles(inv: Invariants) -> RoleReport:
    """Roles computed on the invariants only; players follow the consecutive labeling."""
    per_class = tuple(frozenset(r) for r in _class_roles_raw(inv.n_bar, inv.matrix))
    return RoleReport(per_class, _per_player_from_classes(per_class, inv.n_bar), inv.n_bar)


def role_present_raw(n_bar, matrix, role: Role) -> bool:
    """Single-role presence test on raw (n_bar, matrix) tuples; used by the bijections."""
    t = len(n_bar)
    if role is Role.DICTATOR:  # both tests read class 1, so they name one voter
        return (role_present_raw(n_bar, matrix, Role.VETOER)
                and role_present_raw(n_bar, matrix, Role.PASSER))
    if role is Role.VETOER:
        n1 = n_bar[0]
        return all(row[0] == n1 for row in matrix)
    if role is Role.NULL:
        return t >= 2 and all(row[-1] == 0 for row in matrix)
    if role is Role.PASSER:
        e1 = (1,) + (0,) * (t - 1)
        return wins_counts(n_bar, matrix, e1)
    roles = _class_roles_raw(n_bar, matrix)
    return any(role in r for r in roles)


def present_roles_raw(n_bar, matrix) -> frozenset[Role]:
    out = set()
    for r in _class_roles_raw(n_bar, matrix):
        out |= r
    return frozenset(out)
