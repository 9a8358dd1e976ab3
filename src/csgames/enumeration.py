"""Exhaustive canonical generation and counting of complete simple games.

For each class-size composition, matrices are grown row by row in strictly
decreasing lexicographic order while keeping the rows pairwise incomparable in
the delta order, so every valid (n_bar, M) pair is produced exactly once and
already in canonical form.  Candidate rows, their incomparabilities (from the
covers of the delta order) and their separation bits are precomputed per
composition as bitmasks.  A required vetoer fixes r₁ = n₁ and a required null
r_t = 0, so only the free classes' box is listed.  Role filters ride in the
search's accumulator as per-row win bits, decided at a leaf by masks of
``roles.role_conditions``.  Counts never walk the stream.  One memoized
one-sum over each antichain's first row counts the nonempty antichains of the
allowed rows by size, carrying the win bits that the other named roles read
and no row has set yet; binomial weights on merges of the leading singleton
classes keep the games.  The counter lists the rows in its own, size-graded
order: by member count Σr ascending, ties larger r_t first, then larger
r_{t−1}, and so on.  A row comes after every row below it in the delta
order, so its incomparable later rows are those outside its up-set, and the
memo keeps fewer states than over the stream's lex order.  The rows a
count's frame has left from a Σr grade on, with the bits still pending, are
a state too: the walk looks it up at each grade's first row and stores it
on a miss, so frames share their tails.
Two kinds of count need no table.  With no row count, no role bits and at
most two free classes (a required vetoer and null aside), a composition's
count is its free box's up-sets, a closed form, and the compositions are
summed by their free classes.  Unfiltered single-row counts are
C(n + 1, 2t − 1); filtered, they walk the product of a lone row's ranges.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import lru_cache, partial
from math import comb, prod
from typing import Iterator, NamedTuple

from .errors import CapacityError, ValidationError
from .invariants import Invariants
from .profiles import delta_table
from .roles import Role, _roles

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
    rows: tuple[tuple[int, ...], ...]
    incomp_after: tuple[int, ...]
    sat: tuple[int, ...]
    suffix_sat: tuple[int, ...]
    full: int


def _box(sizes: tuple[int, ...]) -> int:
    """The candidate rows in a composition's profile box; CapacityError above ``BOX_CAP``."""
    box = prod(s + 1 for s in sizes)
    if box > BOX_CAP:
        raise CapacityError(f"profile box holds {box} candidate rows (> {BOX_CAP})")
    return box


@lru_cache(maxsize=1024)
def _prepare(sizes: tuple[int, ...], vetoer: bool = False, null: bool = False,
             graded: bool = False) -> _Prep:
    """The rows a game of the composition may use, with their incomparability
    and separation bits, in decreasing lex order (the stream's) or, graded, by
    key (Σr, −r_t, …, −r_1) (the counter's).

    Never the zero row, as the empty coalition cannot win; r₁ = n₁ for a
    required vetoer and r_t = 0 for a required null.  A fixed r₁ adds n₁ to
    every prefix sum and a fixed r_t repeats the one before, so the rows keep
    the delta order of the free classes' box, where row i (in decreasing lex
    order) takes each delta step down to row i + offset.  In decreasing lex
    order a later row never lies above row i; in the graded order, an
    ascending linear extension of the delta order, never below it.  So a
    later row is incomparable with row i iff it is not in ``reach[i]``, row i
    with the ``reach`` of each row one delta step lower (lex) or higher
    (graded), which comes later in the order.
    """
    t = len(sizes)
    full = (1 << (t - 1)) - 1
    if vetoer + null > t:  # r₁ = n₁ and r₁ = 0 at once
        return _Prep((), (), (), (0,), full)
    ranges = [range(s, -1, -1) for s in sizes]
    if vetoer:
        ranges[0] = ranges[0][:1]
    if null:
        ranges[-1] = ranges[-1][-1:]
    free = sizes[vetoer:t - null]
    box = _box(free)
    steps = delta_table(free).delta_steps
    rows = list(itertools.product(*ranges))
    # r_k as bit k if positive and bit t + k if below n_k: a row separates
    # boundary k iff r_k > 0 and r_{k+1} < n_{k+1}
    codes = [[(v > 0) << k | (v < s) << t + k for v in r] for k, (r, s) in enumerate(zip(ranges, sizes))]
    if graded:
        # above those bits, the key as one int: Σr, then n_t − r_t, …, n_1 − r_1 as digits
        base = max(sizes) + 1
        codes = [[c | (v * base**t + (s - v) * base**k) << 2 * t for c, v in zip(cs, r)]
                 for k, (cs, r, s) in enumerate(zip(codes, ranges, sizes))]
    codes = list(map(sum, itertools.product(*codes)))
    order = range(box)  # position -> lex index
    if graded:
        order = sorted(order, key=codes.__getitem__)
        rows = list(map(rows.__getitem__, order))
        codes = list(map(codes.__getitem__, order))
        # row i's steps up: row i − offset can step down to it
        steps = [(-offset, can_step << offset) for offset, can_step in steps]
    sat = [x & x >> t + 1 & full for x in codes]
    reach = [0] * box
    for p in range(box - 1, -1, -1):  # every neighbour reached comes later in the order
        i = order[p]
        bits = 1 << p
        for offset, can_step in steps:
            if can_step >> i & 1:
                bits |= reach[i + offset]
        reach[i] = bits
    # the zero row, below every row, is the last in lex order and the first graded,
    # where dropping it moves the rows after it down one bit
    zero = 0 if graded else box - 1
    drop = not any(rows[zero])
    every = (1 << box) - 1
    incomp = [(every ^ reach[i]) >> (p + 1) << (p + 1 - (drop and graded)) for p, i in enumerate(order)]
    if drop:
        del rows[zero], sat[zero], incomp[zero]
    suffix = [0] * (len(rows) + 1)
    for i in range(len(rows) - 1, -1, -1):
        suffix[i] = suffix[i + 1] | sat[i]
    return _Prep(tuple(rows), tuple(incomp), tuple(sat), tuple(suffix), full)


def _ends(spec: EnumSpec) -> tuple[bool, bool]:
    """``_prepare``'s fixed ends for a spec: a required vetoer and a required null."""
    return Role.VETOER in spec.require, Role.NULL in spec.require


class _Keep(dict):
    """Whether a key's present roles pass a spec's filters; each key decided once."""

    def __init__(self, sizes: tuple[int, ...], require: frozenset, forbid: frozenset):
        super().__init__()
        self.roles = _roles(sizes)
        self.require = require
        self.forbid = forbid

    def __missing__(self, key: int) -> bool:
        present = self.roles[key] if self.require or self.forbid else frozenset()
        keep = self[key] = self.require <= present and not self.forbid & present
        return keep


_keep = lru_cache(maxsize=1024)(_Keep)


@lru_cache(maxsize=1024)
def _row_bits(sizes: tuple[int, ...], vetoer: bool, null: bool, graded: bool) -> tuple[int, ...]:
    """Per row of ``_prepare(sizes, vetoer, null, graded)``: its separation bits | its role bits."""
    roles = _roles(sizes)
    prep = _prepare(sizes, vetoer, null, graded)
    return tuple(s | roles.row_bits(row) for s, row in zip(prep.sat, prep.rows))


def _counter(spec: EnumSpec, sizes: tuple[int, ...], width: int):
    """count(q): the nonempty antichains of the rows in mask q (over the rows of
    ``_prepare(sizes, *_ends(spec), graded=True)``) that pass the spec's role
    filters, as Σ_k c_k << k·width by size k; width 0 sums every size,
    whatever ``spec.rows``.

    ``incomp_after[x]`` holds only rows after x, so an antichain with first
    row x is x plus an antichain of q ∩ incomp_after[x].  Any row order
    counts the same; the graded one, smallest rows first, reaches fewer
    distinct states than the stream's lex order.  A memo
    state is one int: the row set q, above it the role bits no row has set yet.
    With z marking a row, a state may still add E(state) = [own] +
    z·Σ_{x∈q} E(state & table[x]), where [own] says the bits set so far pass
    the filters; the memo holds z·E(state), cut above degree ``spec.rows`` if
    that is below the box size.  The prepared rows decide a required vetoer
    and a required null exactly, so only the bits that the other named roles
    read are tracked, and none for specs that name no other role (a key
    without a vetoer's or a null's bits reads both as present).  One memo per
    call, shared by its queries and readable as ``count.memo``.

    A frame walks its rows in order, and the rows it has left with its
    pending bits form a state whose E is [own] (the same bits) plus the
    children still to add.  At each Σr grade's first row, but not the frame's
    first, the walk looks that suffix up: on a hit it adds the memo's z·E
    shifted down one degree, less [own], which is exact for every degree the
    frame keeps, and ends the frame; on a miss it stores z·E(suffix) when the
    frame ends.  Frames that differ in their smaller rows share the tails of
    larger ones; marking every row instead of grade starts was slower and
    held 4.5–9.5× the states.  The top frame, not memoized, looks up no suffix.
    """
    ends = _ends(spec)
    prep = _prepare(sizes, *ends, True)
    box = len(prep.rows)
    named = spec.require - {Role.VETOER, Role.NULL} | spec.forbid
    if named:
        read = _roles(sizes).reads(named)
        keep = _keep(sizes, spec.require, spec.forbid)
        table = [i | (read & ~b) << box for i, b in zip(prep.incomp_after, _row_bits(sizes, *ends, True))]
    else:
        read, keep, table = 0, {0: True}, prep.incomp_after
    start = read << box
    every_row = (1 << box) - 1
    sums = list(map(sum, prep.rows))
    starts = sum(1 << p for p in range(1, box) if sums[p] != sums[p - 1])  # each grade's first row
    cut = width and spec.rows is not None and spec.rows < box
    mask = (1 << (spec.rows + 1) * width) - 1 if cut else -1
    memo = {}

    def count(q: int) -> int:
        # explicit: the recursion gets as deep as the longest antichain; the
        # top frame counts no empty antichain, so it is not memoized
        top, todo, total, own, marks, notes = q | start, q, 0, 0, 0, []
        stack = []  # frames to resume: state, rows to add, total, [own], marks ahead, suffixes to store
        while True:
            while todo:
                low = todo & -todo
                if low & marks:  # a grade starts: look up the suffix
                    suffix = top >> box << box | todo
                    known = memo.get(suffix)
                    if known is not None:
                        total += (known >> width) - own
                        break
                    notes.append((suffix, total - own))
                inner = top & table[low.bit_length() - 1]
                known = memo.get(inner)
                if known is not None:
                    total += known
                    todo ^= low
                    continue
                stack.append((top, todo, total, own, marks, notes))  # resume here once inner is counted
                top, todo = inner, inner & every_row
                total = own = int(keep[read ^ inner >> box])
                marks, notes = todo & todo - 1 & starts, []
            if not stack:
                return total
            memo[top] = total << width & mask
            for suffix, before in notes:
                memo[suffix] = total - before << width & mask
            top, todo, total, own, marks, notes = stack.pop()

    count.memo = memo
    return count


def _single_rows(sizes: tuple[int, ...]) -> list[range]:
    """The ranges of a lone row's entries, descending; their product lists the
    single-row matrices' rows in decreasing lex order, skipping ``_prepare``'s
    box² table.

    A lone row must start positive and separate every class boundary by
    itself: r₁ ∈ [1, n₁], 0 < r_k < n_k in between and r_t ∈ [0, n_t − 1].
    """
    _box(sizes)
    ranges = [range(s - 1, 0, -1) for s in sizes]
    ranges[0] = range(sizes[0], 0, -1)
    if len(sizes) > 1:
        ranges[-1] = range(sizes[-1] - 1, -1, -1)
    return ranges


def _single_row_games(spec: EnumSpec, sizes: tuple[int, ...]):
    """(matrix, key) pairs of one composition's single-row games that pass the
    spec's role filters; a key is the search's, every separation bit | the
    row's role bits.  Role tables are built only for a composition with a
    lone row, and only when filtered; unfiltered, keys are None.
    """
    for row in itertools.product(*_single_rows(sizes)):
        if not spec.filtered:
            yield (row,), None
            continue
        roles = _roles(sizes)
        key = (1 << (len(sizes) - 1)) - 1 | roles.row_bits(row)
        if _keep(sizes, spec.require, spec.forbid)[key]:
            yield (row,), key


def _shard_matrices(spec: EnumSpec, sizes: tuple[int, ...]):
    """(matrix, key) pairs of one composition that pass the spec's role filters.

    ``_roles(sizes)[key]`` is the matrix's present-role set.  A key ORs
    ``_row_bits`` over the matrix's rows, so a search node costs one OR.  The
    search uses the rows of ``_prepare(sizes, *_ends(spec))``; a first row with
    r₁ = 0 is followed only by such rows, none separating boundary 1, so the
    prune cuts it.
    """
    if spec.rows == 1:
        yield from _single_row_games(spec, sizes)
        return
    ends = _ends(spec)
    prep = _prepare(sizes, *ends)
    rows, inc, suf, full = prep.rows, prep.incomp_after, prep.suffix_sat, prep.full
    bits = _row_bits(sizes, *ends, False)
    keep = _keep(sizes, spec.require, spec.forbid)
    row_limit = spec.rows
    chosen = []

    def rec(allowed: int, s: int, depth: int):
        a = allowed
        while a:
            low = a & -a
            k = low.bit_length() - 1
            a ^= low
            s2 = s | bits[k]
            d2 = depth + 1
            chosen.append(k)
            if s2 & full == full and (row_limit is None or d2 == row_limit) and keep[s2]:
                yield tuple(rows[c] for c in chosen), s2
            if row_limit is None or d2 < row_limit:
                child = allowed & inc[k]
                if child:
                    lo = (child & -child).bit_length() - 1
                    if not (full & ~s2) & ~suf[lo]:
                        yield from rec(child, s2, d2)
            chosen.pop()

    yield from rec((1 << len(rows)) - 1, 0, 0)


def _map_shards(fn, spec: EnumSpec, jobs: int) -> Iterator:
    """fn(spec, sizes) for every composition, in stream order.

    jobs > 1 runs them in min(jobs, compositions, CPUs) worker processes (a fork
    pool starts them all at its first submit), or in this process if that is 1.
    """
    work = partial(fn, spec)
    shards = compositions(spec.n, spec.t)
    if jobs > 1:
        shards = list(shards)
        jobs = min(jobs, len(shards), os.cpu_count() or 1)
    if jobs <= 1:
        yield from map(work, shards)
        return
    from concurrent.futures import ProcessPoolExecutor  # here, as it slows the package's import

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(work, shards, chunksize=max(1, len(shards) // (jobs * 8)))


def _count_shard(spec: EnumSpec, sizes: tuple[int, ...], width: int = 0) -> int:
    """One composition c's weighted share of the spec's games, graded as ``_counter``'s.

    c's rows that separate no boundary in a set S (read off ``sat``) map onto
    the box of c/S (those boundaries merged), keeping the delta order, the row
    count, the roles and the fixed ends, so count(every & ~rows_S) is N(c/S).
    The games of (n, t) are Σ_{j≤t} (−1)^(t−j) C(n−j, t−j) Σ_{d∈comp(n,j)} N(d),
    and each d is c/S for one pair whose S lies in c's leading singleton classes
    (its extra cuts are the t − j smallest free gaps), so only those S are
    summed, with d's weight.  A lone row skips ``_prepare``'s box² table and
    counts c's own games.
    """
    if spec.rows == 1:
        return sum(1 for _ in _single_row_games(spec, sizes)) << width
    count = _counter(spec, sizes, width)  # first: its _prepare checks the box cap
    sat = _prepare(sizes, *_ends(spec), True).sat
    every = (1 << len(sat)) - 1
    n, t = sum(sizes), len(sizes)
    singles = next((k for k, s in enumerate(sizes[:t - 1]) if s > 1), t - 1)
    terms = [(0, 0)]  # (|S|, rows separating some boundary of S)
    for b in range(singles):
        separating = sum(1 << i for i, s in enumerate(sat) if s >> b & 1)
        terms += [(k + 1, rows | separating) for k, rows in terms]
    return sum((-1) ** k * comb(n - t + k, k) * count(every & ~rows) for k, rows in terms)


def _pairs_shard(spec: EnumSpec, sizes: tuple[int, ...]) -> list:
    return [(sizes, matrix) for matrix, _ in _shard_matrices(spec, sizes)]


def _catalog_shard(spec: EnumSpec, sizes: tuple[int, ...]) -> list:
    roles = _roles(sizes)
    return [(sizes, matrix, roles[key]) for matrix, key in _shard_matrices(spec, sizes)]


def raw_pairs(spec: EnumSpec) -> Iterator[tuple[tuple[int, ...], tuple]]:
    """(sizes, matrix) tuples in deterministic order, without building objects."""
    for sizes in compositions(spec.n, spec.t):
        for matrix, _ in _shard_matrices(spec, sizes):
            yield sizes, matrix


def enumerate_invariants(spec: EnumSpec, jobs: int = 1) -> Iterator[Invariants]:
    """Stream every matching canonical invariant pair exactly once.

    Order is deterministic for any job count: composition-major (decreasing
    lex), then matrix order within a composition.  The pairs are valid by
    construction, so they skip ``Invariants``' check: the rows come from the
    box, stay pairwise incomparable, separate every boundary at a leaf, start
    positive and descend in lex order.
    """
    for block in _map_shards(_pairs_shard, spec, jobs):
        for comp, matrix in block:
            yield Invariants._canonical(comp, matrix)


def _lone_rows(n: int, t: int) -> int:
    """The unfiltered single-row games of (n, t): n for t = 1, else C(n + 1, 2t − 1).

    ``_single_rows``' range lengths are n₁, n_k − 1 in between and n_t, with
    generating functions x/(1−x)², x²/(1−x)² and x/(1−x)², so their products
    summed over the compositions are the coefficient of x^n in
    x^(2t−2)/(1−x)^(2t).
    """
    return n if t == 1 else comb(n + 1, 2 * t - 1)


def _few_free(spec: EnumSpec) -> bool:
    """Whether ``_few_free_count`` counts the spec: every row count, no role bits
    to track (no role named but a required vetoer and null) and at most two
    free classes."""
    return (spec.rows is None and not spec.forbid and spec.require <= {Role.VETOER, Role.NULL}
            and spec.t - len(spec.require) <= 2)


def _antichains_by_total(n: int, free: int, vetoer: bool) -> list[int]:
    """sums[m]: N(d) summed over the free classes' boxes of ``free`` ≤ 2 classes and total m ≤ n.

    N(d), the nonempty antichains of d's prepared rows, is the number of
    up-sets of its free box less the empty one, and less {zero row} when no
    vetoer lifts the box off it.  The delta order's box (a, b) has
    1 + Σ_{L=1}^{a+1} Σ_{k≤min(L,b)} C(b, k) up-sets (L columns past a zero
    prefix, k of them below the cap), a one-class box m has m + 2 and the
    empty box 2.
    """
    less = 2 - vetoer
    sums = [0] * (n + 1)
    if free == 0:
        sums[0] = 2 - less
    elif free == 1:
        sums[1:] = [m + 2 - less for m in range(1, n + 1)]
    else:
        for b in range(1, n):
            binom = within = ups = 1  # C(b, k), Σ_{i≤k} C(b, i) with k = min(L, b), 1 + Σ_{L'≤L} within
            for L in range(1, n - b + 2):
                if L <= b:
                    binom = binom * (b - L + 1) // L
                    within += binom
                ups += within
                if L > 1:  # the box (L − 1, b)
                    sums[L - 1 + b] += ups - less
    return sums


def _few_free_count(spec: EnumSpec) -> int:
    """The games of a ``_few_free`` spec, by ``_count_shard``'s inversion over
    every j ≤ t, Σ_j (−1)^(t−j) C(n−j, t−j) Σ_{d∈comp(n,j)} N(d), where N(d)
    depends only on d's free classes: with f fixed ends, C(n − m − 1, f − 1)
    compositions of n share a free tuple of total m, so each j is one sum over
    m, O(n²) big-int operations in all."""
    vetoer, null = _ends(spec)
    n, t, fixed = spec.n, spec.t, vetoer + null
    total = 0
    for j in range(max(fixed, 1), t + 1):
        by_total = _antichains_by_total(n, j - fixed, vetoer)
        if fixed:
            games = sum(comb(n - m - 1, fixed - 1) * s for m, s in enumerate(by_total[:n - fixed + 1]))
        else:
            games = by_total[n]
        total += (-1) ** (t - j) * comb(n - j, t - j) * games
    return total


def count_games(spec: EnumSpec, jobs: int = 1) -> int:
    """Exact number of games matching the spec; shard counts merge by addition.

    Two kinds of spec are counted in closed form, with no table and no pool:
    unfiltered lone rows (``_lone_rows``) and the ``_few_free`` specs.
    """
    if spec.rows == 1 and not spec.filtered:
        return _lone_rows(spec.n, spec.t)
    if _few_free(spec):
        return _few_free_count(spec)
    if spec.rows in (None, 1):
        return sum(_map_shards(_count_shard, spec, jobs))
    return sum(count_rows(spec, jobs).values())


def count_rows(spec: EnumSpec, jobs: int = 1) -> dict[int, int]:
    """Exact number of games matching the spec by row count r, nonzero counts only.  A shard
    may be negative in a grade, so all are summed packed at one width: one count's grade stays
    below 2^box, the balanced composition's box is the largest, and under 2^n compositions add up.
    Unfiltered lone rows are ``_lone_rows``' closed form."""
    if spec.rows == 1 and not spec.filtered:
        games = _lone_rows(spec.n, spec.t)
        return {1: games} if games else {}
    q, extra = divmod(spec.n, spec.t)
    width = _box((q + 1,) * extra + (q,) * (spec.t - extra)) + spec.n
    packed = sum(_map_shards(partial(_count_shard, width=width), spec, jobs))
    grade = (1 << width) - 1
    grades = (packed >> r * width & grade for r in range(packed.bit_length() // width + 1))
    return {r: games for r, games in enumerate(grades) if games and spec.rows in (None, r)}


def count_by_rows(n: int, t_max: int | None = None) -> dict[tuple[int, int], int]:
    """Exact counts for each nonzero (t, r) cell with t <= t_max (default n)."""
    return {(t, r): games for t in range(1, (n if t_max is None else min(t_max, n)) + 1)
            for r, games in count_rows(EnumSpec(n=n, t=t)).items()}


def catalog_with_roles(n: int, t: int, jobs: int = 1):
    """List of (sizes, matrix, present-role set) triples for one (n, t) slice."""
    blocks = _map_shards(_catalog_shard, EnumSpec(n=n, t=t), jobs)
    return [triple for block in blocks for triple in block]
