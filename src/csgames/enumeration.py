"""Exhaustive canonical generation and counting of complete simple games.

For each class-size composition, matrices are grown row by row in strictly
decreasing lexicographic order while keeping the rows pairwise incomparable in
the delta order, so every valid (n_bar, M) pair is produced exactly once and
already in canonical form.  Candidate rows, their pairwise comparabilities and
their separation-condition contributions are precomputed per box as bitmasks,
which keeps the inner search loop to a few integer operations per node.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial
from math import prod
from typing import Iterator, NamedTuple

from .errors import CapacityError, ValidationError
from .invariants import Invariants
from .roles import Role, present_roles_raw, role_present_raw

BOX_CAP = 2**30


@dataclass(frozen=True)
class EnumSpec:
    """What to generate: player count, class count, and optional filters."""

    n: int
    t: int
    rows: int | None = None
    require: frozenset = frozenset()
    forbid: frozenset = frozenset()

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("n must be positive")
        if not 1 <= self.t <= self.n:
            raise ValidationError("t must satisfy 1 <= t <= n")
        if self.rows is not None and self.rows < 1:
            raise ValidationError("rows must be positive when given")
        object.__setattr__(self, "require", frozenset(self.require))
        object.__setattr__(self, "forbid", frozenset(self.forbid))
        overlap = self.require & self.forbid
        if overlap:
            raise ValidationError(f"roles both required and forbidden: {sorted(r.value for r in overlap)}")

    @property
    def filtered(self) -> bool:
        return bool(self.require or self.forbid)


def compositions(n: int, t: int) -> Iterator[tuple[int, ...]]:
    """All C(n-1, t-1) positive compositions of n into t parts, decreasing lex."""
    if not 1 <= t <= n:
        raise ValidationError("t must satisfy 1 <= t <= n")

    def rec(remaining, parts_left, acc):
        if parts_left == 1:
            yield acc + (remaining,)
            return
        for first in range(remaining - parts_left + 1, 0, -1):
            yield from rec(remaining - first, parts_left - 1, acc + (first,))

    yield from rec(n, t, ())


class _Prep(NamedTuple):
    sizes: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    incomp_after: tuple[int, ...]
    sat: tuple[int, ...]
    suffix_sat: tuple[int, ...]
    first_count: int
    full: int


@lru_cache(maxsize=1024)
def _prepare(sizes: tuple[int, ...]) -> _Prep:
    t = len(sizes)
    box = prod(s + 1 for s in sizes)
    if box > BOX_CAP:
        raise CapacityError(f"profile box holds {box} candidate rows (> {BOX_CAP})")
    rows = tuple(itertools.product(*(range(s, -1, -1) for s in sizes)))
    prefixes = [tuple(itertools.accumulate(r)) for r in rows]
    full = (1 << (t - 1)) - 1 if t > 1 else 0
    sat = []
    for r in rows:
        bits = 0
        for k in range(t - 1):
            if r[k] > 0 and r[k + 1] < sizes[k + 1]:
                bits |= 1 << k
        sat.append(bits)
    suffix = [0] * (box + 1)
    for i in range(box - 1, -1, -1):
        suffix[i] = suffix[i + 1] | sat[i]
    incomp = []
    for i, pi in enumerate(prefixes):
        bits = 0
        # later rows are lex-smaller, so they can only be dominated, never dominate
        for j in range(i + 1, box):
            pj = prefixes[j]
            if any(b > a for a, b in zip(pi, pj)):
                bits |= 1 << j
        incomp.append(bits)
    first_count = sizes[0] * (box // (sizes[0] + 1))
    return _Prep(sizes, rows, tuple(incomp), tuple(sat), tuple(suffix), first_count, full)


# Kept beside _matrices_from_start: counting through a generator or a callback
# version of that search took 1.1-1.9 times as long on CG(10,4) and CG(13,3).
def _count_from_start(prep: _Prep, start: int, row_limit: int | None) -> int:
    sat = prep.sat
    inc = prep.incomp_after
    suf = prep.suffix_sat
    full = prep.full

    def rec(allowed: int, s: int, depth: int) -> int:
        total = 0
        a = allowed
        while a:
            low = a & -a
            k = low.bit_length() - 1
            a ^= low
            s2 = s | sat[k]
            d2 = depth + 1
            if s2 == full and (row_limit is None or d2 == row_limit):
                total += 1
            if row_limit is None or d2 < row_limit:
                child = allowed & inc[k]
                if child:
                    lo = (child & -child).bit_length() - 1
                    if not (full & ~s2) & ~suf[lo]:
                        total += rec(child, s2, d2)
        return total

    s0 = sat[start]
    total = 1 if s0 == full and (row_limit is None or row_limit == 1) else 0
    if row_limit is None or row_limit > 1:
        child = inc[start]
        if child:
            lo = (child & -child).bit_length() - 1
            if not (full & ~s0) & ~suf[lo]:
                total += rec(child, s0, 1)
    return total


def _matrices_from_start(prep: _Prep, start: int, row_limit: int | None):
    rows = prep.rows
    sat = prep.sat
    inc = prep.incomp_after
    suf = prep.suffix_sat
    full = prep.full
    chosen = [start]

    def rec(allowed: int, s: int, depth: int):
        a = allowed
        while a:
            low = a & -a
            k = low.bit_length() - 1
            a ^= low
            s2 = s | sat[k]
            d2 = depth + 1
            chosen.append(k)
            if s2 == full and (row_limit is None or d2 == row_limit):
                yield tuple(rows[c] for c in chosen)
            if row_limit is None or d2 < row_limit:
                child = allowed & inc[k]
                if child:
                    lo = (child & -child).bit_length() - 1
                    if not (full & ~s2) & ~suf[lo]:
                        yield from rec(child, s2, d2)
            chosen.pop()

    s0 = sat[start]
    if s0 == full and (row_limit is None or row_limit == 1):
        yield (rows[start],)
    if row_limit is None or row_limit > 1:
        child = inc[start]
        if child:
            lo = (child & -child).bit_length() - 1
            if not (full & ~s0) & ~suf[lo]:
                yield from rec(child, s0, 1)


# rows=1 skips _prepare, whose tables are quadratic in the box (0.22 s at 512
# rows, 0.96 s at 1024); the rows=1 compositions of n=12 reach 4096 rows.
def _single_rows(sizes: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...]]]:
    """Single-row matrices in decreasing lex order, skipping the pairwise tables.

    A lone row must start positive and satisfy the separation condition at
    every class boundary by itself.
    """
    box = prod(s + 1 for s in sizes)
    if box > BOX_CAP:
        raise CapacityError(f"profile box holds {box} candidate rows (> {BOX_CAP})")
    t = len(sizes)
    ranges = [range(sizes[0], 0, -1)]
    ranges.extend(range(s, -1, -1) for s in sizes[1:])
    for counts in itertools.product(*ranges):
        if all(counts[k] > 0 and counts[k + 1] < sizes[k + 1] for k in range(t - 1)):
            yield (counts,)


def _shards(spec: EnumSpec) -> Iterator[tuple[tuple[int, ...], int | None]]:
    """(composition, first-row index) pairs in stream order.

    With rows=1 a composition is one shard, marked by a start of None.
    """
    for comp in compositions(spec.n, spec.t):
        if spec.rows == 1:
            yield comp, None
        else:
            yield from ((comp, start) for start in range(_prepare(comp).first_count))


def _shard_pairs(spec: EnumSpec, sizes: tuple[int, ...], start: int | None):
    """(sizes, matrix) pairs of one shard that pass the spec's role filters."""
    if start is None:
        matrices = _single_rows(sizes)
    else:
        matrices = _matrices_from_start(_prepare(sizes), start, spec.rows)
    # Role declaration order puts the O(r) structural tests before the semi roles.
    checks = [(role, role in spec.require) for role in Role
              if role in spec.require or role in spec.forbid]
    for matrix in matrices:
        if all(role_present_raw(sizes, matrix, role) == want for role, want in checks):
            yield sizes, matrix


def _map_shards(fn, spec: EnumSpec, jobs: int) -> Iterator:
    """fn(spec, shard) for every shard, in stream order; jobs > 1 runs them in worker processes."""
    work = partial(fn, spec)
    if jobs <= 1:
        yield from map(work, _shards(spec))
        return
    shards = list(_shards(spec))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(work, shards, chunksize=max(1, len(shards) // (jobs * 8)))


def _count_shard(spec: EnumSpec, shard) -> int:
    sizes, start = shard
    if start is None or spec.filtered:
        return sum(1 for _ in _shard_pairs(spec, sizes, start))
    return _count_from_start(_prepare(sizes), start, spec.rows)


def _pairs_shard(spec: EnumSpec, shard) -> list:
    return list(_shard_pairs(spec, *shard))


def _catalog_shard(spec: EnumSpec, shard) -> list:
    return [(sizes, matrix, present_roles_raw(sizes, matrix))
            for sizes, matrix in _shard_pairs(spec, *shard)]


def raw_pairs(spec: EnumSpec) -> Iterator[tuple[tuple[int, ...], tuple]]:
    """(sizes, matrix) tuples in deterministic order, without building objects."""
    for sizes, start in _shards(spec):
        yield from _shard_pairs(spec, sizes, start)


def enumerate_invariants(spec: EnumSpec, jobs: int = 1) -> Iterator[Invariants]:
    """Stream every matching canonical invariant pair exactly once.

    Order is deterministic for any job count: composition-major (decreasing
    lex), then matrix order within a composition.
    """
    for block in _map_shards(_pairs_shard, spec, jobs):
        for comp, matrix in block:
            yield Invariants(comp, matrix)


def count_games(spec: EnumSpec, jobs: int = 1) -> int:
    """Exact number of games matching the spec; shard counts merge by addition."""
    return sum(_map_shards(_count_shard, spec, jobs))


def count_by_rows(n: int, t_max: int | None = None) -> dict[tuple[int, int], int]:
    """Exact counts for each (t, r) cell; practical for small n only."""
    table: dict[tuple[int, int], int] = {}
    for t in range(1, (t_max or n) + 1):
        for comp, matrix in raw_pairs(EnumSpec(n=n, t=t)):
            key = (t, len(matrix))
            table[key] = table.get(key, 0) + 1
    return table


def catalog_with_roles(n: int, t: int, jobs: int = 1):
    """List of (sizes, matrix, present-role set) triples for one (n, t) slice."""
    blocks = _map_shards(_catalog_shard, EnumSpec(n=n, t=t), jobs)
    return [triple for block in blocks for triple in block]
