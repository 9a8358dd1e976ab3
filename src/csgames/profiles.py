"""Profiles compress coalitions classwise; the delta order compares prefix sums."""

from __future__ import annotations

import enum
import itertools
from collections import namedtuple
from functools import lru_cache, reduce
from math import prod
from operator import and_
from typing import Iterator

from .core import TypePartition, _as_mask
from .errors import ValidationError


class DeltaRelation(enum.Enum):
    DOMINATES = "dominates"
    DOMINATED_BY = "dominated_by"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def prefix_sums(counts) -> tuple[int, ...]:
    return tuple(itertools.accumulate(counts))


class Profile(namedtuple("Profile", "counts prefix")):
    """Per-class member counts of a coalition, with prefix sums alongside."""

    __slots__ = ()

    def __new__(cls, counts: tuple[int, ...], prefix: tuple[int, ...] = None):
        # prefix is derived from counts; a value passed in, as pickle and copy
        # pass one, is ignored
        counts = tuple(int(c) for c in counts)
        if not counts:
            raise ValidationError("a profile needs at least one class")
        if any(c < 0 for c in counts):
            raise ValidationError("profile counts must be nonnegative")
        return tuple.__new__(cls, (counts, prefix_sums(counts)))

    def __len__(self):
        return len(self.counts)


def compare_prefix(pa: tuple[int, ...], pb: tuple[int, ...]) -> DeltaRelation:
    """Delta comparison of two prefix-sum vectors of equal length."""
    if pa == pb:
        return DeltaRelation.EQUAL
    ge = all(a >= b for a, b in zip(pa, pb))
    if ge:
        return DeltaRelation.DOMINATES
    le = all(a <= b for a, b in zip(pa, pb))
    if le:
        return DeltaRelation.DOMINATED_BY
    return DeltaRelation.INCOMPARABLE


def delta_compare(p: Profile, q: Profile) -> DeltaRelation:
    if len(p.counts) != len(q.counts):
        raise ValidationError("profiles must have the same number of classes")
    return compare_prefix(p.prefix, q.prefix)


class ProfileBox(namedtuple("ProfileBox", "sizes")):
    """The hyper-rectangle of profiles compatible with the class sizes."""

    __slots__ = ()

    def __new__(cls, sizes: tuple[int, ...]):
        sizes = tuple(int(s) for s in sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise ValidationError("class sizes must be positive")
        return tuple.__new__(cls, (sizes,))

    @property
    def size(self) -> int:
        return prod(s + 1 for s in self.sizes)

    def __contains__(self, profile) -> bool:
        counts = profile.counts if isinstance(profile, Profile) else tuple(profile)
        if len(counts) != len(self.sizes):
            return False
        return all(0 <= c <= s for c, s in zip(counts, self.sizes))


def box_profiles(box: ProfileBox) -> Iterator[Profile]:
    """All profiles of the box exactly once, in decreasing lexicographic order."""
    for counts in itertools.product(*(range(s, -1, -1) for s in box.sizes)):
        yield Profile(counts)


def profile_of(partition: TypePartition, coalition) -> Profile:
    """Counts of coalition members per equivalence class."""
    mask = _as_mask(coalition, partition.n)
    counts = []
    for members in partition.classes:
        counts.append(sum(1 for i in members if mask >> (i - 1) & 1))
    return Profile(tuple(counts))


class DeltaTable:
    """The delta order over one profile box, as bitsets with one bit per profile.

    Bit i is the i-th profile in decreasing lex order (``box_profiles``): c sits at
    i = Σ_k (s_k − c_k)·stride_k and n̄ − c at size − 1 − i.  Class k's digit cycles
    with period (s_k + 1)·stride_k.  Thresholds are built on first use and kept.
    """

    def __init__(self, sizes: tuple[int, ...]):
        self.sizes = sizes
        self.size = prod(s + 1 for s in sizes)
        self.full = (1 << self.size) - 1
        self.strides = tuple(prod(s + 1 for s in sizes[k + 1:]) for k in range(len(sizes)))
        self._period_starts = [self.full // ((1 << (s + 1) * st) - 1) for s, st in zip(sizes, self.strides)]
        self._prefix = {}
        # unit steps down as (index offset, profiles that can take it): a drop step removes
        # one member of class k; a delta step moves one to class k + 1 or drops one from the last
        self.drop_steps = tuple((st, self.class_at_least(k, 1)) for k, st in enumerate(self.strides))
        self.delta_steps = tuple(
            (st - self.strides[k + 1], can_drop & ~self.class_at_least(k + 1, sizes[k + 1]))
            for k, (st, can_drop) in enumerate(self.drop_steps[:-1])
        ) + self.drop_steps[-1:]

    def class_at_least(self, k: int, c: int) -> int:
        """Profiles holding at least c members of class k."""
        # in each period, the first s_k - c + 1 of its s_k + 1 digit blocks
        blocks = min(max(self.sizes[k] - c + 1, 0), self.sizes[k] + 1)
        return (self._period_starts[k] << blocks * self.strides[k]) - self._period_starts[k]

    def prefix_at_least(self, k: int, v: int) -> int:
        """Profiles whose k-th prefix sum is at least v."""
        if k == 0 or v <= 0:
            return self.class_at_least(k, v)
        if (k, v) not in self._prefix:
            # some c with c_k >= c and the (k-1)-th prefix sum >= v - c
            self._prefix[k, v] = 0
            for c in range(max(0, v - sum(self.sizes[:k])), min(self.sizes[k], v) + 1):
                self._prefix[k, v] |= self.class_at_least(k, c) & self.prefix_at_least(k - 1, v - c)
        return self._prefix[k, v]

    def above(self, rows) -> int:
        """Profiles at or above some row in the delta order: the rows' up-set."""
        bits = 0
        for row in rows:
            bits |= reduce(and_, map(self.prefix_at_least, itertools.count(), itertools.accumulate(row)))
        return bits

    @staticmethod
    def minimal(bits: int, steps) -> int:
        """Members of ``bits`` with no member one step below them."""
        lower = 0
        for offset, can_step in steps:
            lower |= bits >> offset & can_step
        return bits & ~lower

    def blocking(self, bits: int) -> int:
        """Profiles c whose complement n̄ − c is not in ``bits``."""
        return int(format(self.full ^ bits, f"0{self.size}b")[::-1], 2)

    def members(self, bits: int) -> list[tuple[int, ...]]:
        """The profiles in ``bits``, in decreasing lex order."""
        return [tuple(s - i // st % (s + 1) for s, st in zip(self.sizes, self.strides))
                for i, b in enumerate(bin(bits)[:1:-1]) if b == "1"]


delta_table = lru_cache(maxsize=256)(DeltaTable)
