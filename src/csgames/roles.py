"""Detection of the six distinguished voter roles.

``semantic_roles`` evaluates the role definitions literally on coalitions,
the independent reference.  ``role_conditions`` declares equivalent
profile-level tests once, as the profiles that must win and must lose;
``_Roles`` turns that table into bit masks over a key that ORs the matrix
rows' bits, and ``structural_roles``, ``present_roles_raw`` and the
enumerator's search all read those masks, without expanding the game.  Both
readings keep the literal definitions, including the degenerate overlaps (a
null class can satisfy the semi-veto text in unanimity-minus-one-class games).
"""

from __future__ import annotations

import enum
import itertools
from bisect import bisect_left
from collections import namedtuple
from functools import lru_cache, reduce
from operator import or_

from .core import SimpleGame, type_partition, _absent_mask, _winning_table
from .errors import CapacityError, ValidationError
from .invariants import WINNING_SET_CAP, Invariants


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


class RoleReport(namedtuple("RoleReport", "per_class per_player class_sizes")):
    """Role sets per equivalence class (strongest first) and per player (by index).

    Each of ``per_class`` and ``per_player`` is a tuple of role frozensets;
    ``class_sizes`` is a tuple of ints.
    """

    __slots__ = ()

    @property
    def class_count(self) -> int:
        return len(self.per_class)

    @property
    def present(self) -> frozenset[Role]:
        return frozenset().union(*self.per_class)

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
    Winning is monotone in the delta order, so each "every" is one profile: the
    strongest top_c − e_d and the weakest allowed e_c + e_e, both with d = e the
    last class that holds a member besides e_c (none when n̄ = e_c).
    """
    t = len(n_bar)
    zero = (0,) * t
    out = []
    for c in range(t):
        e_c, top_c = _shift(zero, c, 1), _shift(n_bar, c, -1)
        last = t - 1 if c < t - 1 or n_bar[c] >= 2 else t - 2  # the last class with a member besides e_c
        lower = (_shift(top_c, last, -1),) if last >= 0 else ()
        pairs = (_shift(e_c, last, 1),) if last >= 0 else ()
        out += [
            (Role.VETOER, c, (), (top_c,)),
            (Role.PASSER, c, (e_c,), ()),
            (Role.DICTATOR, c, (e_c,), (top_c,)),
            (Role.SEMI_VETOER, c, (top_c,), lower),
            (Role.SEMI_PASSER, c, pairs, (e_c,)),
        ]
    return tuple(out)


# _AT_LEAST[j] maps a byte r to the binary digit of r >= j.  The profiles of
# ``role_conditions`` have at most six distinct k-th prefix sums: 0, 1, 2 and
# the k-th prefix sum of n̄ less 2, 1 or 0.
_AT_LEAST = [bytes(48 + (r >= j) for r in range(256)) for j in range(6)]


class _Roles(dict):
    """Role sets of one composition, read off a key by masks of ``role_conditions``.

    A key holds t − 1 low bits that no mask reads (the search's separation
    bits), then one bit per profile that ``role_conditions`` tests (some row
    lies at or below it in the delta order), then a bit for a nonzero last
    entry in some row.  A row's bits come from ``row_bits`` and a matrix's key
    is their OR.  The conditions become one (role, class, on, off) mask per
    role and class, and the last of two or more classes is null iff the key
    lacks the nonzero-last bit, so a key is decided by 5t + 1 mask tests; the
    dict maps each key to its present-role set, decided once.
    """

    def __init__(self, sizes: tuple[int, ...]):
        super().__init__()
        t = len(sizes)
        conditions = role_conditions(sizes)
        profiles = dict.fromkeys(p for _, _, win, lose in conditions for p in win + lose)
        bit = {p: 1 << t - 1 + j for j, p in enumerate(profiles)}
        self.nonzero_last = 1 << t - 1 + len(profiles)
        self.masks = [(role, c, sum(map(bit.get, win)), sum(map(bit.get, lose)))
                      for role, c, win, lose in conditions]
        self.masks += [(Role.NULL, t - 1, 0, self.nonzero_last)] * (t > 1)
        # per class k: sums[k], the distinct k-th prefix sums of the tested
        # profiles, ascending, and at_least[k][j], the bits of the profiles whose
        # k-th prefix sum is >= sums[k][j], so >= v for j = bisect_left(sums[k], v).
        # Each entry is read as one binary numeral, a digit per profile, last
        # profile first: one pass, where an OR per profile copies the whole key.
        self.sums, self.at_least = [], []
        for column in zip(*map(itertools.accumulate, profiles)):
            sums = sorted(set(column))
            ranks = bytes(map(sums.index, reversed(column)))
            at_least = [int(ranks.translate(digits), 2) << t - 1 for digits in _AT_LEAST[:len(sums)]]
            self.sums.append(sums)
            self.at_least.append(at_least + [0])

    def row_bits(self, row: tuple[int, ...]) -> int:
        """The role bits of one row: the tested profiles at or above it."""
        bits = -1
        for sums, at_least, v in zip(self.sums, self.at_least, itertools.accumulate(row)):
            bits &= at_least[bisect_left(sums, v)]
        return bits | self.nonzero_last if row[-1] else bits

    def key(self, matrix) -> int:
        """The role bits of a matrix: the OR of its rows' bits."""
        return reduce(or_, map(self.row_bits, matrix), 0)

    def reads(self, roles: frozenset) -> int:
        """The key bits that decide whether each of ``roles`` is present."""
        bits = 0
        for role, _, on, off in self.masks:
            if role in roles:
                bits |= on | off
        return bits

    def holding(self, key: int) -> list[tuple[Role, int]]:
        """(role, class c) for each role that the key decides holds in class c."""
        return [(role, c) for role, c, on, off in self.masks if key & on == on and not key & off]

    def __missing__(self, key: int) -> frozenset[Role]:
        present = self[key] = frozenset(role for role, _ in self.holding(key))
        return present


_roles = lru_cache(maxsize=1024)(_Roles)


def structural_roles(inv: Invariants) -> RoleReport:
    """Roles computed on the invariants only; players follow the consecutive labeling.

    The report lists every player, so more than ``WINNING_SET_CAP`` of them
    is a CapacityError, raised before any list is built.
    """
    if inv.n > WINNING_SET_CAP:
        raise CapacityError(f"game has {inv.n} players (> {WINNING_SET_CAP}); the role report lists each")
    roles = _roles(inv.n_bar)
    per_class = [set() for _ in inv.n_bar]
    for role, c in roles.holding(roles.key(inv.matrix)):
        per_class[c].add(role)
    per_class = tuple(map(frozenset, per_class))
    per_player = tuple(itertools.chain.from_iterable(map(itertools.repeat, per_class, inv.n_bar)))
    return RoleReport(per_class, per_player, inv.n_bar)


def present_roles_raw(n_bar, matrix) -> frozenset[Role]:
    """The roles present in a raw (n_bar, matrix) pair."""
    roles = _roles(tuple(n_bar))
    return roles[roles.key(matrix)]


def role_present_raw(n_bar, matrix, role: Role) -> bool:
    """Single-role presence test on raw (n_bar, matrix) tuples."""
    return role in present_roles_raw(n_bar, matrix)
