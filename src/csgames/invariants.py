"""Characteristic invariants: class sizes plus the matrix of shift-minimal winning profiles.

A valid pair (n_bar, M) is the canonical form of one isomorphism class of
complete simple games.  ``expand`` realizes it extensionally with class k
holding consecutive player indices; ``extract`` inverts that up to relabeling.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod

from .core import SimpleGame, type_partition, _json_ints, _winning_table
from .errors import CapacityError, ValidationError
from .profiles import Profile, prefix_sums

WINNING_SET_CAP = 10**6


def check_conditions(n_bar, matrix) -> list[str]:
    """Labels of every violated validity condition (empty list means valid).

    Shape problems (ragged matrix, zero classes or rows) are input errors and
    raise immediately instead of being reported as violations.
    """
    sizes = tuple(int(v) for v in n_bar)
    rows = tuple(tuple(int(v) for v in row) for row in matrix)
    t = len(sizes)
    if t == 0:
        raise ValidationError("at least one equivalence class required")
    if len(rows) == 0:
        raise ValidationError("at least one matrix row required")
    if any(len(row) != t for row in rows):
        raise ValidationError("matrix rows must all have one entry per class")

    violations = []
    if any(s <= 0 for s in sizes):
        violations.append("condition1: every class size must be positive")
    for p, row in enumerate(rows, start=1):
        if any(v < 0 or v > s for v, s in zip(row, sizes)):
            violations.append(f"condition2: row {p} leaves the profile box")
    prefixes = [prefix_sums(row) for row in rows]
    for (p, pa), (q, pb) in itertools.combinations(enumerate(prefixes, start=1), 2):
        if all(a >= b for a, b in zip(pa, pb)) or all(a <= b for a, b in zip(pa, pb)):
            violations.append(f"condition3: rows {p} and {q} are delta-comparable")
    if t > 1:
        for k in range(t - 1):
            if not any(row[k] > 0 and row[k + 1] < sizes[k + 1] for row in rows):
                violations.append(f"condition4: no row separates classes {k + 1} and {k + 2}")
    if rows[0][0] <= 0:
        violations.append("m11: the first row must start with a positive entry")
    if any(rows[i] <= rows[i + 1] for i in range(len(rows) - 1)):
        violations.append("row_order: rows must be strictly decreasing lexicographically")
    return violations


@dataclass(frozen=True)
class Invariants:
    """A validated (n_bar, M) pair; construction rejects invalid candidates."""

    n_bar: tuple[int, ...]
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        sizes = tuple(int(v) for v in self.n_bar)
        rows = tuple(tuple(int(v) for v in row) for row in self.matrix)
        violations = check_conditions(sizes, rows)
        if violations:
            raise ValidationError(
                "invalid invariants: " + "; ".join(violations), violations=violations
            )
        object.__setattr__(self, "n_bar", sizes)
        object.__setattr__(self, "matrix", rows)

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


def _winning_counts(n_bar, matrix) -> set[tuple[int, ...]]:
    box = prod(s + 1 for s in n_bar)
    if box > WINNING_SET_CAP:
        raise CapacityError(
            f"box holds {box} profiles (> {WINNING_SET_CAP}); query is_winning_profile instead"
        )
    out = set()
    for counts in itertools.product(*(range(s, -1, -1) for s in n_bar)):
        if wins_counts(n_bar, matrix, counts):
            out.add(counts)
    return out


def winning_profiles(inv: Invariants) -> frozenset[Profile]:
    """Every profile of the box that dominates some row (the winning set)."""
    return frozenset(Profile(c) for c in _winning_counts(inv.n_bar, inv.matrix))


def shift_minimal_rows(n_bar, winning: set[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Delta-minimal members of an upward-closed winning set, sorted decreasing lex.

    Minimality only needs the unit steps down in the delta lattice: shifting one
    member from class k to k+1, or dropping one member of the last class.
    """
    t = len(n_bar)
    rows = []
    for counts in winning:
        minimal = True
        for k in range(t - 1):
            if counts[k] > 0 and counts[k + 1] < n_bar[k + 1]:
                lower = counts[:k] + (counts[k] - 1, counts[k + 1] + 1) + counts[k + 2:]
                if lower in winning:
                    minimal = False
                    break
        if minimal and counts[t - 1] > 0:
            if counts[: t - 1] + (counts[t - 1] - 1,) in winning:
                minimal = False
        if minimal:
            rows.append(counts)
    rows.sort(reverse=True)
    return rows


def expand(inv: Invariants) -> SimpleGame:
    """The complete simple game realizing the invariants.

    Class k is populated with consecutive player indices (class 1 gets 1..n_1).
    Minimal winning coalitions realize the inclusion-minimal winning profiles.
    """
    winning = _winning_counts(inv.n_bar, inv.matrix)
    t = inv.t
    starts = [0]
    for s in inv.n_bar:
        starts.append(starts[-1] + s)
    members = [list(range(starts[k] + 1, starts[k + 1] + 1)) for k in range(t)]
    masks = []
    for counts in winning:
        # inclusion-minimal: dropping any single member must lose
        if any(
            counts[k] > 0 and counts[:k] + (counts[k] - 1,) + counts[k + 1:] in winning
            for k in range(t)
        ):
            continue
        per_class = [
            [sum(1 << (i - 1) for i in combo) for combo in itertools.combinations(members[k], counts[k])]
            for k in range(t)
        ]
        for parts in itertools.product(*per_class):
            mask = 0
            for p in parts:
                mask |= p
            masks.append(mask)
    return SimpleGame(inv.n, tuple(masks))


def extract(game: SimpleGame) -> Invariants:
    """Canonical invariants of a complete game; NotCompleteError otherwise."""
    part = type_partition(game)
    sizes = part.sizes
    box = prod(s + 1 for s in sizes)
    if box > WINNING_SET_CAP:
        raise CapacityError(f"box holds {box} profiles (> {WINNING_SET_CAP})")
    table = _winning_table(game)
    class_bits = [[1 << (i - 1) for i in members] for members in part.classes]
    winning = set()
    for counts in itertools.product(*(range(s, -1, -1) for s in sizes)):
        mask = 0
        for k, c in enumerate(counts):
            for b in class_bits[k][:c]:
                mask |= b
        if table >> mask & 1:
            winning.add(counts)
    rows = shift_minimal_rows(sizes, winning)
    return Invariants(sizes, tuple(rows))

