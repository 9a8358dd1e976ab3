"""Detection of the six distinguished voter roles.

``semantic_roles`` evaluates the role definitions literally on coalitions;
``structural_roles`` evaluates equivalent profile-level predicates straight on
the invariants, without expanding the game; ``role_conditions`` declares them
once, as the profiles that must win and must lose, and the enumerator reads the
same table as bit masks.  Both keep the literal reading,
including the degenerate overlaps (a null class can satisfy the semi-veto text
in unanimity-minus-one-class games).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

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


@lru_cache(maxsize=1024)
def role_conditions(n_bar: tuple[int, ...]) -> tuple[tuple[Role, int, tuple, tuple], ...]:
    """(role, class c, profiles that must win, profiles that must lose) for every
    role but null: the role holds in class c iff every profile of the first
    tuple wins and none of the second does.

    With e_c one member of class c and top_c = n̄ − e_c:
    - vetoer: top_c loses;
    - passer: e_c wins;
    - dictator: e_c wins and top_c loses.  If {i} wins and i is in every winning
      coalition, {i} is the only minimal one, so no class of two members holds one;
    - semi-vetoer: top_c wins and every top_c − e_d loses (the unique winning
      profile below the full class c);
    - semi-passer: e_c loses and every e_c + e_e wins, 2e_c only when class c has
      two members.
    """
    t = len(n_bar)
    zero = (0,) * t
    out = []
    for c in range(t):
        e_c, top_c = _shift(zero, c, 1), _shift(n_bar, c, -1)
        lower = tuple(_shift(top_c, d, -1) for d in range(t) if top_c[d] > 0)
        pairs = tuple(_shift(e_c, e, 1) for e in range(t) if e != c or n_bar[c] >= 2)
        out += [
            (Role.VETOER, c, (), (top_c,)),
            (Role.PASSER, c, (e_c,), ()),
            (Role.DICTATOR, c, (e_c,), (top_c,)),
            (Role.SEMI_VETOER, c, (top_c,), lower),
            (Role.SEMI_PASSER, c, pairs, (e_c,)),
        ]
    return tuple(out)


def _class_roles(n_bar, wins, last_zero: bool) -> list[set[Role]]:
    """Role sets per class from ``role_conditions(n_bar)``, each profile tested once.

    ``wins(profile)`` says whether the profile delta-dominates (or equals) some
    matrix row; ``last_zero`` whether every row ends in 0, which makes the last
    of two or more classes null.
    """
    memo = {}

    def won(profile):
        if profile not in memo:
            memo[profile] = wins(profile)
        return memo[profile]

    roles = [set() for _ in n_bar]
    for role, c, win, lose in role_conditions(tuple(n_bar)):
        if all(map(won, win)) and not any(map(won, lose)):
            roles[c].add(role)
    if last_zero and len(n_bar) >= 2:
        roles[-1].add(Role.NULL)
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
