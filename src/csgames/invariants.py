"""Characteristic invariants: class sizes plus the matrix of shift-minimal winning profiles.

A valid pair (n_bar, M) is the canonical form of one isomorphism class of
complete simple games.  ``expand`` realizes it extensionally with class k
holding consecutive player indices; ``extract`` inverts that up to relabeling.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from math import comb, prod
from operator import and_, ge, gt, le, lt

from .core import SimpleGame, type_partition, _json_ints
from .errors import CapacityError, ValidationError
from .profiles import DeltaTable, Profile, delta_table, prefix_sums

WINNING_SET_CAP = 10**6
_ZEROS = itertools.repeat(0)  # zeros forever, so every row map below can share it


def check_conditions(n_bar, matrix) -> list[str]:
    """Labels of every violated validity condition (empty list means valid).

    Shape problems (ragged matrix, zero classes or rows) are input errors and
    raise immediately instead of being reported as violations.
    """
    return _violations(*_as_ints(n_bar, matrix))


def _as_ints(n_bar, matrix) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    return tuple(map(int, n_bar)), tuple(tuple(map(int, row)) for row in matrix)


def _violations(sizes: tuple[int, ...], rows: tuple[tuple[int, ...], ...]) -> list[str]:
    """``check_conditions`` on class sizes and rows already converted to int tuples."""
    t = len(sizes)
    if t == 0:
        raise ValidationError("at least one equivalence class required")
    if len(rows) == 0:
        raise ValidationError("at least one matrix row required")
    if set(map(len, rows)) != {t}:
        raise ValidationError("matrix rows must all have one entry per class")

    violations = []
    if min(sizes) <= 0:
        violations.append("condition1: every class size must be positive")
    # one pass over the rows: the box bounds, and the boundaries k | k+1 each
    # row separates (row[k] > 0 and row[k+1] < sizes[k+1])
    separating = []
    for p, row in enumerate(rows, start=1):
        if min(row) < 0 or any(map(gt, row, sizes)):
            violations.append(f"condition2: row {p} leaves the profile box")
        separating.append(map(and_, map(gt, row, _ZEROS), map(lt, row[1:], sizes[1:])))
    prefixes = list(map(prefix_sums, rows))
    for p, q in itertools.combinations(range(len(rows)), 2):
        pa, pb = prefixes[p], prefixes[q]
        if all(map(ge, pa, pb)) or all(map(le, pa, pb)):
            violations.append(f"condition3: rows {p + 1} and {q + 1} are delta-comparable")
    for k, separated in enumerate(map(any, zip(*separating)), start=1):
        if not separated:
            violations.append(f"condition4: no row separates classes {k} and {k + 1}")
    if rows[0][0] <= 0:
        violations.append("m11: the first row must start with a positive entry")
    if any(map(le, rows, rows[1:])):
        violations.append("row_order: rows must be strictly decreasing lexicographically")
    return violations


class Invariants(namedtuple("Invariants", "n_bar matrix")):
    """A valid (n_bar, M) pair.

    ``Invariants(n_bar, M)`` checks every condition and rejects an invalid
    candidate.  The values the library builds itself (the enumerator's pairs,
    ``extract``, ``dual_invariants`` and the bijection images) are canonical by
    construction and come from ``_canonical``, which skips the check; the test
    suite checks those outputs against full validation instead.
    """

    __slots__ = ()

    def __new__(cls, n_bar: tuple[int, ...], matrix: tuple[tuple[int, ...], ...]):
        sizes, rows = _as_ints(n_bar, matrix)
        violations = _violations(sizes, rows)
        if violations:
            raise ValidationError(
                "invalid invariants: " + "; ".join(violations), violations=violations
            )
        return tuple.__new__(cls, (sizes, rows))

    @classmethod
    def _canonical(cls, n_bar: tuple[int, ...], matrix: tuple[tuple[int, ...], ...]) -> "Invariants":
        """A pair the library built and knows to be valid, taken as it is.

        ``n_bar`` and ``matrix`` must already be int tuples that meet every
        condition; nothing is checked or converted.
        """
        return tuple.__new__(cls, (n_bar, matrix))

    @property
    def t(self) -> int:
        return len(self.n_bar)

    @property
    def r(self) -> int:
        return len(self.matrix)

    @property
    def n(self) -> int:
        return sum(self.n_bar)

    @property
    def box_size(self) -> int:
        return prod(s + 1 for s in self.n_bar)

    def to_json_dict(self) -> dict:
        return {"n_bar": list(self.n_bar), "M": [list(r) for r in self.matrix]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Invariants":
        try:
            n_bar = data["n_bar"]
            matrix = data["M"]
        except (KeyError, TypeError) as exc:
            raise ValidationError("invariant JSON needs 'n_bar' and 'M'") from exc
        return cls(_json_ints(n_bar, "'n_bar'"), _json_ints(matrix, "'M'", depth=2))


def validate(n_bar, matrix) -> Invariants:
    """Typed invariants if every condition holds, otherwise ValidationError."""
    return Invariants(tuple(n_bar), tuple(tuple(r) for r in matrix))


def wins_counts(n_bar, matrix, counts) -> bool:
    """True iff the profile delta-dominates (or equals) some matrix row."""
    pc = prefix_sums(counts)
    for row in matrix:
        acc = 0
        ok = True
        for v, c in zip(row, pc):
            acc += v
            if c < acc:
                ok = False
                break
        if ok:
            return True
    return False


def is_winning_profile(inv: Invariants, profile) -> bool:
    counts = profile.counts if isinstance(profile, Profile) else tuple(profile)
    if len(counts) != inv.t:
        raise ValidationError("profile length does not match the class count")
    return wins_counts(inv.n_bar, inv.matrix, counts)


def _winning_bits(n_bar, rows) -> tuple[DeltaTable, int]:
    """The box's delta table and its profiles at or above some row; caps every conversion's box."""
    box = prod(s + 1 for s in n_bar)
    if box > WINNING_SET_CAP:
        raise CapacityError(f"box holds {box} profiles (> {WINNING_SET_CAP}); query is_winning_profile instead")
    table = delta_table(tuple(n_bar))
    return table, table.above(rows)


def _shift_minimal(table: DeltaTable, winning: int) -> Invariants:
    """Invariants whose matrix is the delta-minimal profiles of an up-closed set."""
    return Invariants._canonical(table.sizes, tuple(table.members(table.minimal(winning, table.delta_steps))))


def winning_profiles(inv: Invariants) -> frozenset[Profile]:
    """Every profile of the box that dominates some row (the winning set)."""
    table, winning = _winning_bits(inv.n_bar, inv.matrix)
    return frozenset(Profile(c) for c in table.members(winning))


def expand(inv: Invariants) -> SimpleGame:
    """The complete simple game realizing the invariants.

    Class k is populated with consecutive player indices (class 1 gets 1..n_1).
    Minimal winning coalitions realize the inclusion-minimal winning profiles;
    more than ``WINNING_SET_CAP`` of them is a CapacityError, raised before
    the profile that passes the cap is listed.
    """
    table, winning = _winning_bits(inv.n_bar, inv.matrix)
    # player bits per class; the classes are disjoint, so sums of bits are unions
    members = [[1 << i for i in range(end - s, end)]
               for s, end in zip(inv.n_bar, itertools.accumulate(inv.n_bar))]
    masks = []
    # inclusion-minimal: dropping any single member must lose
    for counts in table.members(table.minimal(winning, table.drop_steps)):
        if len(masks) + prod(map(comb, inv.n_bar, counts)) > WINNING_SET_CAP:
            raise CapacityError(f"game has more than {WINNING_SET_CAP} minimal winning coalitions")
        per_class = [map(sum, itertools.combinations(bits, c)) for bits, c in zip(members, counts)]
        masks.extend(map(sum, itertools.product(*per_class)))
    return SimpleGame._canonical(inv.n, masks)


def extract(game: SimpleGame) -> Invariants:
    """Canonical invariants of a complete game; NotCompleteError otherwise."""
    part = type_partition(game)
    class_masks = [sum(1 << (i - 1) for i in members) for members in part.classes]
    profiles = {tuple((m & c).bit_count() for c in class_masks) for m in game.min_winning}
    return _shift_minimal(*_winning_bits(part.sizes, profiles))
