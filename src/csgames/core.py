"""Extensional simple games: coalitions, winning sets, desirability.

Coalitions are bitmasks over players 1..n (player i is bit i-1).  Every value
is immutable after construction, so games can be shared freely across
processes.
"""

from __future__ import annotations

import enum
import itertools
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable

from .errors import CapacityError, NotCompleteError, ValidationError

MAX_PLAYERS = 64
# The swap quantifier touches all 2^(n-2) subsets; keep it desk-sized.
DESIRABILITY_MAX_PLAYERS = 25
# from_weighted scans every coalition once.
WEIGHTED_MAX_PLAYERS = 20


def coalition_mask(members: Iterable[int], n: int) -> int:
    """Bitmask for a coalition given as an iterable of 1-based players."""
    mask = 0
    for i in members:
        if not 1 <= int(i) <= n:
            raise ValidationError(f"player {i} outside 1..{n}")
        mask |= 1 << (int(i) - 1)
    return mask


def coalition_members(mask: int) -> tuple[int, ...]:
    """Ascending 1-based players of a coalition bitmask."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


# LSB-first bits of a mask with 0 and 1 swapped: a member before a non-member
# sorts first and a prefix sorts before its extensions, so these strings order
# masks exactly as their ascending member tuples do
_MEMBER_ORDER = str.maketrans("01", "10")


def _member_order(mask: int) -> str:
    """Sort key that orders masks as ``coalition_members`` does, without a Python loop."""
    return bin(mask)[:1:-1].translate(_MEMBER_ORDER)


def _as_mask(coalition, n: int) -> int:
    if isinstance(coalition, int):
        if coalition < 0 or coalition >> n:
            raise ValidationError("coalition mask outside the player set")
        return coalition
    return coalition_mask(coalition, n)


def _json_ints(value, what: str, depth: int = 1):
    """A JSON integer (depth 0) or nested arrays of them, as tuples.

    Bools, floats and strings are rejected rather than coerced by int().
    """
    if depth == 0:
        if type(value) is not int:
            raise ValidationError(f"{what}: expected an integer, got {value!r}")
        return value
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{what}: expected an array, got {value!r}")
    return tuple(_json_ints(v, what, depth - 1) for v in value)


def _check_player_count(n: int) -> None:
    if not 1 <= n <= MAX_PLAYERS:
        raise ValidationError(f"player count must be in 1..{MAX_PLAYERS}, got {n}")


@dataclass(frozen=True)
class SimpleGame:
    """A monotone voting game, stored by its antichain of minimal winning coalitions."""

    n: int
    min_winning: tuple[int, ...]

    def __post_init__(self):
        _check_player_count(self.n)
        masks = tuple(sorted(set(map(int, self.min_winning)), key=_member_order))
        if not masks:
            raise ValidationError("a game needs at least one minimal winning coalition")
        for m in masks:
            if m == 0:
                raise ValidationError("the empty coalition cannot win")
            if m >> self.n:
                raise ValidationError("coalition contains a player outside 1..n")
        for a, b in itertools.combinations(masks, 2):
            c = a & b
            if c == a or c == b:
                raise ValidationError("min_winning must be an antichain under inclusion")
        object.__setattr__(self, "min_winning", masks)

    @classmethod
    def _canonical(cls, n: int, masks: Iterable[int]) -> "SimpleGame":
        """A game the library built and knows to be valid, without the mask range and antichain checks.

        ``masks`` must be a nonempty antichain of int masks over players 1..n.
        They are still put in ``_member_order``, which game equality and the
        ``_winning_table`` cache key rely on.  The player count is still
        checked, because ``expand`` takes invariants of any size.
        """
        _check_player_count(n)
        game = object.__new__(cls)
        object.__setattr__(game, "n", n)
        object.__setattr__(game, "min_winning", tuple(sorted(set(masks), key=_member_order)))
        return game

    @classmethod
    def from_coalitions(cls, n: int, coalitions: Iterable[Iterable[int]]) -> "SimpleGame":
        return cls(n, tuple(coalition_mask(c, n) for c in coalitions))

    def coalitions(self) -> tuple[tuple[int, ...], ...]:
        return tuple(coalition_members(m) for m in self.min_winning)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "min_winning": [list(c) for c in self.coalitions()]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SimpleGame":
        try:
            n = data["n"]
            raw = data["min_winning"]
        except (KeyError, TypeError) as exc:
            raise ValidationError("game JSON needs 'n' and 'min_winning'") from exc
        n = _json_ints(n, "'n'", depth=0)
        return cls.from_coalitions(n, _json_ints(raw, "'min_winning'", depth=2))


def normalize_min_winning(n: int, raw: Iterable[Iterable[int]]) -> SimpleGame:
    """Build a game from an arbitrary winning-coalition generator set.

    Supersets are dropped so the result stores the inclusion-minimal antichain;
    the monotone closure is unchanged.
    """
    masks = sorted({_as_mask(c, n) for c in raw}, key=lambda m: m.bit_count())
    if not masks:
        raise ValidationError("at least one winning coalition required")
    if masks[0] == 0:
        raise ValidationError("the empty coalition cannot win")
    minimal: list[int] = []
    for m in masks:
        if not any(k & m == k for k in minimal):
            minimal.append(m)
    return SimpleGame(n, tuple(minimal))


def is_winning(game: SimpleGame, coalition) -> bool:
    """True iff the coalition contains some minimal winning coalition."""
    s = _as_mask(coalition, game.n)
    return any(m & s == m for m in game.min_winning)


@lru_cache(maxsize=None)
def _absent_mask(n: int, p: int) -> int:
    """Bitset over coalition indices S in [0, 2^n) with player bit p clear."""
    half = 1 << p
    period = half << 1
    block = (1 << half) - 1
    reps = (1 << n) // period
    return block * (((1 << (reps * period)) - 1) // ((1 << period) - 1))


@lru_cache(maxsize=4096)
def _winning_table(game: SimpleGame) -> int:
    """Bitset with bit S set iff coalition mask S wins (monotone closure)."""
    if game.n > DESIRABILITY_MAX_PLAYERS:
        raise CapacityError(
            f"winning table needs 2^{game.n} bits; capped at n={DESIRABILITY_MAX_PLAYERS}"
        )
    f = 0
    for m in game.min_winning:
        f |= 1 << m
    for p in range(game.n):
        f |= (f & _absent_mask(game.n, p)) << (1 << p)
    return f


class Desirability(enum.Enum):
    MORE_DESIRABLE = "more"
    EQUALLY_DESIRABLE = "equal"
    LESS_DESIRABLE = "less"
    INCOMPARABLE = "incomparable"


def _at_least_as_desirable(f: int, n: int, i: int, j: int) -> bool:
    # i >= j  iff no S (without i, j) has S+{j} winning but S+{i} losing.
    yi = f >> (1 << (i - 1))
    yj = f >> (1 << (j - 1))
    both = _absent_mask(n, i - 1) & _absent_mask(n, j - 1)
    return (yj & ~yi) & both == 0


def desirability(game: SimpleGame, i: int, j: int) -> Desirability:
    """Exact swap relation between two players, quantified over all subsets."""
    if i == j:
        raise ValidationError("desirability needs two distinct players")
    for p in (i, j):
        if not 1 <= p <= game.n:
            raise ValidationError(f"player {p} outside 1..{game.n}")
    f = _winning_table(game)
    i_geq = _at_least_as_desirable(f, game.n, i, j)
    j_geq = _at_least_as_desirable(f, game.n, j, i)
    if i_geq and j_geq:
        return Desirability.EQUALLY_DESIRABLE
    if i_geq:
        return Desirability.MORE_DESIRABLE
    if j_geq:
        return Desirability.LESS_DESIRABLE
    return Desirability.INCOMPARABLE


@dataclass(frozen=True)
class TypePartition:
    """Equivalence classes of equally desirable players, strongest first.

    Classes are the runs of equal winning counts (the number of winning
    coalitions that contain a player), highest count first; within a class
    players keep ascending index order.
    """

    classes: tuple[tuple[int, ...], ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)

    @property
    def n(self) -> int:
        return sum(len(c) for c in self.classes)


def type_partition(game: SimpleGame) -> TypePartition:
    """Partition players by equal desirability; raises NotCompleteError if not total."""
    n = game.n
    f = _winning_table(game)
    wins = [(f & ~_absent_mask(n, p)).bit_count() for p in range(n)]
    order = sorted(range(1, n + 1), key=lambda i: -wins[i - 1])
    # If i >= j, the swap S+{j} -> S+{i} maps the winning coalitions with j but
    # not i into those with i but not j, so i is in at least as many winning
    # coalitions as j, and in more iff i > j.  Once each player here is >= the
    # next, desirability is total by transitivity and its classes are the runs
    # of equal count.
    if all(_at_least_as_desirable(f, n, i, j) for i, j in zip(order, order[1:])):
        return TypePartition(
            tuple(tuple(run) for _, run in itertools.groupby(order, key=lambda i: wins[i - 1]))
        )
    # a failed neighbour check proves an incomparable pair; name the first one
    i, j = next(
        (i, j)
        for i, j in itertools.combinations(range(1, n + 1), 2)
        if not (_at_least_as_desirable(f, n, i, j) or _at_least_as_desirable(f, n, j, i))
    )
    raise NotCompleteError(f"players {i} and {j} are incomparable", pair=(i, j))


@dataclass(frozen=True)
class WeightedRepresentation:
    """Quota plus one nonnegative weight per player, held as exact rationals."""

    quota: Fraction
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        quota = Fraction(self.quota)
        weights = tuple(Fraction(w) for w in self.weights)
        if not weights:
            raise ValidationError("at least one weight required")
        if any(w < 0 for w in weights):
            raise ValidationError("weights must be nonnegative")
        if quota <= 0:
            raise ValidationError("quota must be positive, otherwise the empty coalition wins")
        if quota > sum(weights):
            raise ValidationError("quota exceeds the total weight, no coalition can win")
        object.__setattr__(self, "quota", quota)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def from_json_dict(cls, data: dict) -> "WeightedRepresentation":
        try:
            quota = _fraction(str(data["quota"]))
            raw = data["weights"]
            # a string is iterable too, and would give one weight per character
            if not isinstance(raw, list):
                raise TypeError(f"'weights' is not an array: {raw!r}")
            weights = tuple(_fraction(str(w)) for w in raw)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValidationError("weighted JSON needs a 'quota' string and a 'weights' array of strings") from exc
        return cls(quota, weights)


_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)")


def _fraction(text: str) -> Fraction:
    """Fraction(text), refusing a decimal exponent too large to expand.

    Fraction builds 10**exponent, so an exponent such as 1e999999999 stalls
    the parse.  Long digit strings already fail at the interpreter's digit
    limit; an exponent gets the same limit.
    """
    exponent = _EXPONENT.search(text)
    limit = sys.get_int_max_str_digits()
    if exponent and limit and abs(int(exponent[1])) > limit:
        raise ValueError(f"exponent of {text!r} exceeds {limit}")
    return Fraction(text)


def from_weighted(rep: WeightedRepresentation) -> SimpleGame:
    """Game whose winning coalitions are those meeting the quota."""
    n = len(rep.weights)
    if n > WEIGHTED_MAX_PLAYERS:
        raise CapacityError(f"from_weighted scans 2^n coalitions; capped at n={WEIGHTED_MAX_PLAYERS}")
    denom = lcm(rep.quota.denominator, *(w.denominator for w in rep.weights))
    iq = rep.quota * denom
    iw = [int(w * denom) for w in rep.weights]
    size = 1 << n
    total = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        total[mask] = total[mask ^ low] + iw[low.bit_length() - 1]
    minimal = []
    for mask in range(1, size):
        w = total[mask]
        if w < iq:
            continue
        m = mask
        is_min = True
        while m:
            low = m & -m
            if w - iw[low.bit_length() - 1] >= iq:
                is_min = False
                break
            m ^= low
        if is_min:
            minimal.append(mask)
    return SimpleGame(n, tuple(minimal))
