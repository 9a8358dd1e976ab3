import concurrent.futures
import hashlib
import itertools
import os
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csgames import enumeration, roles
from csgames.enumeration import (
    EnumSpec,
    _count_shard,
    _counter,
    _ends,
    _prepare,
    _single_rows,
    catalog_with_roles,
    compositions,
    count_by_rows,
    count_games,
    count_rows,
    enumerate_invariants,
    raw_pairs,
)
from csgames.errors import ValidationError
from csgames.formulas import Family, _enclosed_gap, evaluate, golden_ratio_gap
from csgames.invariants import Invariants, check_conditions, expand
from csgames.oracle import ORACLE_MAX_PLAYERS, oracle_count
from csgames.checks import formula_row, reference_row
from csgames.refcounts import CG_LARGE, CG_T3, CGV_T3, CGVN_T4
from csgames.roles import Role, present_roles_raw, role_present_raw, semantic_roles

from conftest import inv

STRETCH = os.environ.get("CSGAMES_STRETCH") == "1"


def test_compositions_examples():
    assert list(compositions(3, 2)) == [(2, 1), (1, 2)]
    assert len(list(compositions(5, 2))) == 4
    assert list(compositions(4, 4)) == [(1, 1, 1, 1)]
    with pytest.raises(ValidationError):
        list(compositions(3, 4))


def test_compositions_order_and_count():
    out = list(compositions(7, 3))
    assert out == sorted(out, reverse=True)
    assert len(out) == 15  # C(6, 2)
    assert all(sum(c) == 7 and min(c) >= 1 for c in out)


def test_prepare_matches_pairwise_reference():
    for n in range(1, 8):
        for t in range(1, n + 1):
            for sizes in compositions(n, t):
                box = list(itertools.product(*(range(s, -1, -1) for s in sizes)))
                for vetoer, null in itertools.product((False, True), repeat=2):
                    # the full box's rows with r_1 = n_1 for a vetoer and r_t = 0 for a
                    # null, in its order, but the zero row: the empty coalition cannot win
                    rows = [row for row in box if any(row) and (row[0] == sizes[0] or not vetoer)
                            and (row[-1] == 0 or not null)]
                    assert list(_prepare(sizes, vetoer, null).rows) == rows, (sizes, vetoer, null)
                    # the counter's graded table holds the same rows
                    graded = _prepare(sizes, vetoer, null, True)
                    assert sorted(graded.rows, reverse=True) == rows, (sizes, vetoer, null)
                    for up, prep in enumerate((_prepare(sizes, vetoer, null), graded)):
                        _assert_table_matches_pairwise_reference(sizes, prep, up, (sizes, vetoer, null, up))
    # a null is the last of two or more classes: one class allows no row
    for n in range(1, 8):
        assert _prepare((n,), False, True).rows == _prepare((n,), True, True).rows == ()
        for require in ({Role.NULL}, {Role.NULL, Role.VETOER}):
            for rows in (None, 1, 2):
                spec = EnumSpec(n=n, t=1, rows=rows, require=require)
                assert count_games(spec) == 0 and list(raw_pairs(spec)) == [], spec


def _assert_table_matches_pairwise_reference(sizes, prep, up, where):
    # a later row is never above an earlier one in the stream's lex order and never
    # below it in the graded order; it is incomparable iff some prefix sum of it is
    # larger and some smaller
    prefixes = [tuple(itertools.accumulate(row)) for row in prep.rows]
    for i, (row, pi) in enumerate(zip(prep.rows, prefixes)):
        later = prefixes[i + 1:]
        assert not any(all(b <= a if up else b >= a for a, b in zip(pi, pj)) for pj in later), (where, row)
        incomparable = [j for j, pj in enumerate(later, i + 1)
                        if any(b > a for a, b in zip(pi, pj)) and any(b < a for a, b in zip(pi, pj))]
        assert prep.incomp_after[i] == sum(1 << j for j in incomparable), (where, row)
        separates = [k for k in range(len(sizes) - 1) if row[k] > 0 and row[k + 1] < sizes[k + 1]]
        assert prep.sat[i] == sum(1 << k for k in separates), (where, row)


def test_catalog_n3_t2_exact():
    got = [(g.n_bar, g.matrix) for g in enumerate_invariants(EnumSpec(n=3, t=2))]
    assert got == [
        ((2, 1), ((2, 0),)),
        ((2, 1), ((1, 0),)),
        ((1, 2), ((1, 1),)),
        ((1, 2), ((1, 0),)),
        ((1, 2), ((1, 0), (0, 2))),
    ]


def test_single_class_counts():
    assert [g.matrix for g in enumerate_invariants(EnumSpec(n=3, t=1))] == [
        ((3,),),
        ((2,),),
        ((1,),),
    ]
    for n in range(1, 13):
        assert count_games(EnumSpec(n=n, t=1)) == n


def _assert_stream_valid(specs):
    # enumerate_invariants builds these pairs unchecked; full validation here
    for spec in specs:
        for sizes, matrix in raw_pairs(spec):
            assert check_conditions(sizes, matrix) == [], (sizes, matrix)


def test_stream_is_valid_by_construction():
    _assert_stream_valid(
        EnumSpec(n=n, t=t) for n in range(1, 9) for t in range(1, n + 1) if n < 8 or t <= 4)
    # lone rows come from their own path, _single_rows
    _assert_stream_valid(EnumSpec(n=n, t=t, rows=1) for n in range(1, 9) for t in range(1, n + 1))


@pytest.mark.skipif(not STRETCH, reason="stretch target; set CSGAMES_STRETCH=1")
def test_stream_is_valid_by_construction_stretch():
    _assert_stream_valid([EnumSpec(n=8, t=5)])


def test_veto_filter_n3():
    assert count_games(EnumSpec(n=3, t=2, require=frozenset({Role.VETOER}))) == 3


def _assert_count_equals_stream_length(specs):
    # the counter against the one search, at one and two workers
    for spec in specs:
        streamed = sum(1 for _ in raw_pairs(spec))
        assert count_games(spec) == count_games(spec, jobs=2) == streamed, spec


def test_count_equals_stream_length():
    # n=8 at t=7 and t=8 streams 14 million games; see the stretch test
    _assert_count_equals_stream_length(
        EnumSpec(n=n, t=t) for n in range(1, 9) for t in range(1, n + 1) if n < 8 or t < 7)
    # a required vetoer and/or null is counted on its row mask
    _assert_count_equals_stream_length(
        EnumSpec(n=n, t=t, require=require) for n in range(1, 9) for t in range(1, n + 1)
        for require in ({Role.VETOER}, {Role.NULL}, {Role.VETOER, Role.NULL}))
    # every other filter carries role bits in the counter's state, and a row
    # limit cuts its grades: against each (n, t)'s catalog, which is the stream with
    # every game's present roles, and against the filtered streams at (7, 4)
    for n in range(1, 8):
        for t in range(1, n + 1):
            catalog = catalog_with_roles(n, t)
            for kw in FILTERS:
                for rows in (None, 2, 3) if n < 7 else (None,):
                    spec = EnumSpec(n=n, t=t, rows=rows, **kw)
                    streamed = sum(rows in (None, len(matrix)) and spec.require <= present
                                   and not spec.forbid & present for _, matrix, present in catalog)
                    assert count_games(spec) == streamed, spec
    _assert_count_equals_stream_length(
        EnumSpec(n=7, t=4, rows=rows, **kw) for kw in FILTERS for rows in (None, 2))


@pytest.mark.skipif(not STRETCH, reason="stretch target; set CSGAMES_STRETCH=1")
def test_count_equals_stream_length_stretch():
    _assert_count_equals_stream_length([EnumSpec(n=8, t=7), EnumSpec(n=8, t=8)])


def test_count_by_antichains_per_composition():
    # a shard is one composition's weighted share, not its own games; the shards add up to them
    for n in range(1, 8):
        for t in range(1, n + 1):
            spec = EnumSpec(n=n, t=t)
            shards = sum(_count_shard(spec, sizes) for sizes in compositions(n, t))
            assert shards == sum(1 for _ in raw_pairs(spec)), (n, t)


def test_few_free_classes_closed_form():
    # no role bits and at most two free classes: the up-set closed form against the
    # shards' counter, with and without each fixed end
    for n in range(1, 11):
        for require in (set(), {Role.VETOER}, {Role.NULL}, {Role.VETOER, Role.NULL}):
            for t in range(1, min(n, 2 + len(require)) + 1):
                spec = EnumSpec(n=n, t=t, require=require)
                assert enumeration._few_free(spec), spec
                shards = sum(_count_shard(spec, sizes) for sizes in compositions(n, t))
                assert count_games(spec) == count_games(spec, jobs=2) == shards, spec
    # a row count, another named role or a third free class stays on the counter
    for spec in [EnumSpec(6, 2, rows=2), EnumSpec(6, 2, forbid={Role.VETOER}),
                 EnumSpec(6, 2, require={Role.PASSER}), EnumSpec(6, 3), EnumSpec(6, 4, require={Role.VETOER})]:
        assert not enumeration._few_free(spec), spec
    # no table is built, so the paper's families come at any n
    for family, t, require in ((Family.CG_T2, 2, set()), (Family.CGV_T3, 3, {Role.VETOER}),
                               (Family.CGVN_T4, 4, {Role.VETOER, Role.NULL})):
        assert count_games(EnumSpec(n=200, t=t, require=require)) == evaluate(family, 200), family


def test_lone_rows_closed_form():
    # C(n + 1, 2t − 1), and n for t = 1, against the lone-row stream
    for n in range(1, 13):
        for t in range(1, n + 1):
            spec = EnumSpec(n=n, t=t, rows=1)
            streamed = sum(1 for _ in raw_pairs(spec))
            assert count_games(spec) == streamed, spec
            assert count_rows(spec) == ({1: streamed} if streamed else {}), spec


def _merge(sizes, boundaries):
    # c/S: the classes on either side of each boundary in S joined
    merged = [sizes[0]]
    for k, size in enumerate(sizes[1:]):
        if k in boundaries:
            merged[-1] += size
        else:
            merged.append(size)
    return tuple(merged)


def test_counter_on_merged_boundaries_is_the_coarser_count():
    # the rows of c that separate no boundary in S map onto the box of c/S, keeping
    # the delta order, the row count and the roles: on c's table they count N(c/S);
    # the masks are over the counter's own, graded table
    own = {}  # N(d) on d's own table, by (d, filter, width)
    for n in range(1, 8):
        for t in range(1, n + 1):
            for sizes in compositions(n, t):
                box = prod(s + 1 for s in sizes)
                for i, kw in enumerate([{}] + FILTERS):
                    spec = EnumSpec(n=n, t=t, **kw)
                    sat = _prepare(sizes, *_ends(spec), True).sat
                    for width in (0, box + 1):
                        count = _counter(spec, sizes, width)
                        for k in range(t):
                            for merged in itertools.combinations(range(t - 1), k):
                                rows = sum(1 << j for j, s in enumerate(sat) if any(s >> b & 1 for b in merged))
                                coarse = _merge(sizes, merged)
                                if (coarse, i, width) not in own:
                                    coarse_spec = EnumSpec(n=n, t=len(coarse), **kw)
                                    coarse_rows = _prepare(coarse, *_ends(coarse_spec), True).rows
                                    own[coarse, i, width] = _counter(coarse_spec, coarse, width)(
                                        (1 << len(coarse_rows)) - 1)
                                every = (1 << len(sat)) - 1
                                assert count(every & ~rows) == own[coarse, i, width], (sizes, merged, kw, width)


@st.composite
def counter_queries(draw):
    # a spec, a composition whose box holds at most 16 rows, and row masks over that box
    sizes, budget = [], 16
    for _ in range(draw(st.integers(1, 4))):
        if budget < 2:
            break
        sizes.append(draw(st.integers(1, budget - 1)))
        budget //= sizes[-1] + 1
    box = prod(s + 1 for s in sizes)
    masks = st.lists(st.booleans(), min_size=box, max_size=box).map(
        lambda bits: sum(bit << i for i, bit in enumerate(bits)))
    spec = EnumSpec(n=sum(sizes), t=len(sizes), rows=draw(st.sampled_from([None, 1, 2, 3])),
                    **draw(st.sampled_from([{}] + FILTERS)))
    return spec, tuple(sizes), draw(st.lists(masks, min_size=1, max_size=4))


def _antichains_brute_force(spec, sizes, rows):
    # by size k: the subsets of rows that are nonempty, have pairwise
    # incomparable rows in the delta order and whose present roles pass the
    # spec's filters; each subset grows by later rows incomparable with all of it
    prefixes = [tuple(itertools.accumulate(row)) for row in rows]
    comparable = [[all(x >= y for x, y in zip(a, b)) or all(y >= x for x, y in zip(a, b))
                   for b in prefixes] for a in prefixes]
    by_size = {}

    def grow(subset):
        for j in range(subset[-1] + 1 if subset else 0, len(rows)):
            if not any(comparable[i][j] for i in subset):
                present = present_roles_raw(sizes, [rows[i] for i in subset + [j]])
                k = len(subset) + 1
                by_size[k] = by_size.get(k, 0) + (spec.require <= present and not spec.forbid & present)
                grow(subset + [j])

    grow([])
    return by_size


@settings(max_examples=200, deadline=None)
@given(counter_queries())
def test_antichain_counter_matches_brute_force(query):
    # every grade at width box + 1, cut above spec.rows, and their sum at width 0;
    # a query is a mask over the rows of the counter's own, graded table
    spec, sizes, masks = query
    width = prod(s + 1 for s in sizes) + 1
    rows = _prepare(sizes, *_ends(spec), True).rows
    graded, summed = _counter(spec, sizes, width), _counter(spec, sizes, 0)
    # a second time, reversed: later queries meet the suffixes that earlier ones stored
    for q in masks + masks[::-1]:
        q &= (1 << len(rows)) - 1
        by_size = _antichains_brute_force(spec, sizes, [row for i, row in enumerate(rows) if q >> i & 1])
        kept = {k: c for k, c in by_size.items() if spec.rows is None or k <= spec.rows}
        assert graded(q) == sum(c << k * width for k, c in kept.items()), (spec, sizes, q)
        assert summed(q) == sum(by_size.values()), (spec, sizes, q)


def _child_states(spec, sizes, q):
    # every state that the one-sum's frames reach from q without suffix lookups:
    # its children, theirs and so on, each one AND with a row's table entry
    ends = _ends(spec)
    prep = _prepare(sizes, *ends, True)
    box = len(prep.rows)
    read = roles._roles(sizes).reads(spec.require - {Role.VETOER, Role.NULL} | spec.forbid)
    table = [i | (read & ~b) << box for i, b in zip(prep.incomp_after, enumeration._row_bits(sizes, *ends, True))]
    reached, todo = set(), [q | read << box]
    while todo:
        state = todo.pop()
        for x in range(box):
            child = state & table[x]
            if state >> x & 1 and child not in reached:
                reached.add(child)
                todo.append(child)
    return reached


@pytest.mark.parametrize("kw", [{"require": {Role.SEMI_VETOER}}, {"forbid": {Role.SEMI_VETOER}}],
                         ids=["+semi-vetoer", "-semi-vetoer"])
@pytest.mark.parametrize("rows", [None, 2], ids=["summed", "rows-2-graded"])
def test_counter_reads_stored_suffixes(kw, rows):
    # on (1,1,1,2) a frame meets a grade start whose suffix another frame stored:
    # under role bits a hit takes off its own [own], and under the rows=2 cut (at
    # width box + 1) the memo's shifted value keeps every degree that the frame keeps
    sizes = (1, 1, 1, 2)
    spec = EnumSpec(n=5, t=4, rows=rows, **kw)
    width = 0 if rows is None else prod(s + 1 for s in sizes) + 1
    prepared = _prepare(sizes, *_ends(spec), True).rows
    every = (1 << len(prepared)) - 1
    count = _counter(spec, sizes, width)
    for q in (every, every >> 1, every & ~4, every):
        by_size = _antichains_brute_force(spec, sizes, [row for i, row in enumerate(prepared) if q >> i & 1])
        expected = sum(c << k * width for k, c in by_size.items() if rows is None or k <= rows)
        assert count(q) == expected, (spec, q)
    # a count of every row reads the stored states that are none of its frames'
    # children only through suffix lookups, so spoiling them spoils a fresh count
    suffixes = count.memo.keys() - _child_states(spec, sizes, every)
    assert suffixes
    spoiled = _counter(spec, sizes, width)
    spoiled.memo.update((state, count.memo[state] + (1 << width)) for state in suffixes)
    assert spoiled(every) != count(every)


def _single_rows_reference(sizes):
    # the full box, filtered row by row to the lone rows that separate every boundary
    ranges = [range(sizes[0], 0, -1)] + [range(s, -1, -1) for s in sizes[1:]]
    return [(counts,) for counts in itertools.product(*ranges)
            if all(counts[k] > 0 and counts[k + 1] < sizes[k + 1] for k in range(len(sizes) - 1))]


def test_single_rows_match_filtered_box():
    for n in range(1, 11):
        for t in range(1, n + 1):
            for sizes in compositions(n, t):
                single = [(counts,) for counts in itertools.product(*_single_rows(sizes))]
                assert single == _single_rows_reference(sizes), sizes


def test_no_duplicates_and_all_valid():
    seen = set()
    for g in enumerate_invariants(EnumSpec(n=6, t=3)):
        key = (g.n_bar, g.matrix)
        assert key not in seen
        seen.add(key)
    assert len(seen) == 262


def test_determinism_across_job_counts():
    sequential = list(enumerate_invariants(EnumSpec(n=6, t=3)))
    parallel = list(enumerate_invariants(EnumSpec(n=6, t=3), jobs=2))
    assert sequential == parallel
    assert count_games(EnumSpec(n=7, t=3)) == count_games(EnumSpec(n=7, t=3), jobs=3) == 1114
    for spec, games in [
        (EnumSpec(n=7, t=3, rows=1), 56),
        (EnumSpec(n=6, t=3, require={Role.SEMI_VETOER, Role.VETOER}), 10),
        (EnumSpec(n=6, t=3, forbid={Role.SEMI_PASSER}), 225),
        (EnumSpec(n=6, t=2, rows=2, require={Role.PASSER}), 10),
    ]:
        sequential = list(enumerate_invariants(spec))
        assert len(sequential) == games
        assert list(enumerate_invariants(spec, jobs=2)) == sequential
        assert count_games(spec) == count_games(spec, jobs=2) == games
    assert catalog_with_roles(6, 3) == catalog_with_roles(6, 3, jobs=2)


@pytest.mark.parametrize(
    "require,forbid,n,t,games",
    [
        ({Role.SEMI_VETOER, Role.VETOER}, set(), 6, 3, 10),
        ({Role.SEMI_VETOER}, {Role.VETOER}, 6, 3, 27),
        # dictator aside, each role set holds one three-player game, at t=2 (the oracle sums every t)
        ({Role.VETOER, Role.NULL}, {Role.DICTATOR}, 3, 2, 1),
        ({Role.VETOER, Role.SEMI_VETOER, Role.SEMI_PASSER}, {Role.DICTATOR}, 3, 2, 1),
    ],
    ids=["require-both", "forbid-vetoer", "vetoer-null-n3", "observed-triple-n3"],
)
def test_role_filters_call_no_role_predicates(monkeypatch, require, forbid, n, t, games):
    # filters are decided from bits accumulated in the search, not per matrix
    calls = []
    for module in (roles, enumeration):
        for name in ("role_present_raw", "present_roles_raw"):
            real = getattr(module, name, None)
            if real is not None:
                monkeypatch.setattr(module, name, lambda *a, real=real: calls.append(a) or real(*a))
    spec = EnumSpec(n=n, t=t, require=require, forbid=forbid)
    assert count_games(spec) == games
    assert sum(1 for _ in raw_pairs(spec)) == games
    assert len(list(enumerate_invariants(spec))) == games
    assert calls == []
    if n <= ORACLE_MAX_PLAYERS:
        assert oracle_count(n, None, require, forbid) == games


FILTERS = (
    [{"require": {role}} for role in Role]
    + [{"forbid": {role}} for role in Role]
    + [{"require": set(pair)} for pair in itertools.combinations(Role, 2)]
    + [{"require": {Role.SEMI_VETOER}, "forbid": {Role.VETOER}}]
)


def test_role_filters_match_per_matrix_predicates():
    # the search's role bits, ORed row by row as it descends, against each matrix's own key
    for n in range(1, 7):
        for t in range(1, n + 1):
            stream = list(raw_pairs(EnumSpec(n=n, t=t)))
            for kw in FILTERS:
                for rows in (None, 1, 2):
                    spec = EnumSpec(n=n, t=t, rows=rows, **kw)
                    expected = [
                        (sizes, matrix) for sizes, matrix in stream
                        if rows in (None, len(matrix))
                        and all(role_present_raw(sizes, matrix, r) for r in spec.require)
                        and not any(role_present_raw(sizes, matrix, r) for r in spec.forbid)
                    ]
                    assert list(raw_pairs(spec)) == expected, (n, t, kw, rows)


def test_catalog_roles_match_reference():
    # the catalog's keys, accumulated in the search, against each matrix's own key
    for n in range(1, 8):
        for t in range(1, n + 1):
            e1 = (1,) + (0,) * (t - 1)
            for sizes, matrix, present in catalog_with_roles(n, t):
                assert present == present_roles_raw(sizes, matrix), (sizes, matrix)
                # both sides read the dictator off passer and vetoer; check it apart
                dictator = sizes[0] == 1 and matrix == (e1,)
                assert (Role.DICTATOR in present) == dictator, (sizes, matrix)


def test_catalog_roles_match_semantic_roles():
    # the search's role bits against the coalition-level definitions
    for n in range(1, 7):
        for t in range(1, n + 1):
            for sizes, matrix, present in catalog_with_roles(n, t):
                assert present == semantic_roles(expand(Invariants(sizes, matrix))).present, (sizes, matrix)


def test_filtered_reference_tables():
    vetoer, vetoer_null = frozenset({Role.VETOER}), frozenset({Role.VETOER, Role.NULL})
    for n in range(10, 14):
        assert count_games(EnumSpec(n=n, t=3, require=vetoer)) == CGV_T3[n]
    cgvn_t4 = {n: count_games(EnumSpec(n=n, t=4, require=vetoer_null)) for n in range(10, 15)}
    for n, count in cgvn_t4.items():
        assert count == CGVN_T4[n], n
    # the vetoer and null fix r_1 and r_t, which leaves two free classes, so
    # these counts are the up-set closed form: CGVN_T4(24) takes under a millisecond
    for n in range(15, 25):
        assert formula_row(Family.CGVN_T4, n, 4, vetoer_null)[-1], n
    # past the reference table, the closed form is the second method
    cgv_t3 = {}
    for n in range(14, 23):
        row = formula_row(Family.CGV_T3, n, 3, vetoer)
        assert row[-1], n
        cgv_t3[n] = row[3]
    # the limits rest on counts too: over the counted CG(n,2), the upper gap
    # falls 0.192 -> 0.016 towards phi and 1.76 -> 0.89 towards phi^2
    for counted, family, power in ((cgv_t3, Family.CGV_T3, 1), (cgvn_t4, Family.CGVN_T4, 2)):
        uppers = []
        for n, count in counted.items():
            gap = _enclosed_gap(count, count_games(EnumSpec(n=n, t=2)), power)
            assert gap == golden_ratio_gap(family, Family.CG_T2, n), n
            uppers.append(gap[1])
        assert all(a > b for a, b in zip(uppers, uppers[1:])), family
    _assert_paper_families(range(13, 15), range(4, 21))


def _assert_paper_families(cgv_ns, cgvn_ns):
    # duality and the h and k bijections make +passer, +semi-vetoer and
    # +semi-passer equinumerous with +vetoer at t=3, and h2 makes
    # +vetoer+semi-vetoer equinumerous with +vetoer+null
    for n in cgv_ns:
        for role in (Role.PASSER, Role.SEMI_VETOER, Role.SEMI_PASSER):
            assert formula_row(Family.CGV_T3, n, 3, {role})[-1], (n, role)
    for n in cgvn_ns:
        assert formula_row(Family.CGVN_T3, n, 3, {Role.VETOER, Role.SEMI_VETOER})[-1], n


@pytest.mark.skipif(not STRETCH, reason="stretch target; set CSGAMES_STRETCH=1")
def test_filtered_reference_tables_stretch():
    vetoer_null = frozenset({Role.VETOER, Role.NULL})
    for n in (12, 13, 14):
        assert count_games(EnumSpec(n=n, t=4, require=vetoer_null)) == CGVN_T4[n]
    for n in range(23, 31):
        assert formula_row(Family.CGV_T3, n, 3, {Role.VETOER})[-1], n
    _assert_paper_families(range(15, 17), range(21, 31))


def test_unfiltered_reference_tables():
    for n in range(10, 22):
        assert reference_row(n, 3, CG_T3[n])[-1], n
    for n in (11, 12):
        assert reference_row(n, 4, CG_LARGE[(n, 4)])[-1], n


@pytest.mark.skipif(not STRETCH, reason="stretch target; set CSGAMES_STRETCH=1")
def test_unfiltered_reference_tables_stretch():
    # with the tier-1 test, every count in refcounts.CG_T3 and CG_LARGE
    for n, t in [(13, 4), (10, 5), (11, 5), (10, 6)]:
        assert reference_row(n, t, CG_LARGE[(n, t)])[-1], (n, t)


@pytest.mark.parametrize("n, t, games, states", [(10, 4, CG_LARGE[(10, 4)], 19134), (13, 3, CG_T3[13], 10788)])
def test_counter_memo_states(monkeypatch, n, t, games, states):
    # the memo states of a count's compositions, summed: a change that
    # memoizes more (or less) shows up here
    counters = []

    def recorded(*args):
        counters.append(_counter(*args))
        return counters[-1]

    monkeypatch.setattr(enumeration, "_counter", recorded)
    assert count_games(EnumSpec(n=n, t=t)) == games
    assert len(counters) == len(list(compositions(n, t)))
    assert sum(len(count.memo) for count in counters) == states


def test_count_matches_formula_t2():
    for n in range(2, 11):
        assert count_games(EnumSpec(n=n, t=2)) == evaluate(Family.CG_T2, n)


def test_row_restricted_counts():
    # single-row games per class count at n=3: 3, 4, 0
    assert count_games(EnumSpec(n=3, t=1, rows=1)) == 3
    assert count_games(EnumSpec(n=3, t=2, rows=1)) == 4
    assert count_games(EnumSpec(n=3, t=3, rows=1)) == 0
    assert count_games(EnumSpec(n=1, t=1, rows=1)) == 1
    # exact-row filter agrees with bucketing the full stream
    for t in (2, 3):
        for r in (1, 2, 3):
            direct = count_games(EnumSpec(n=6, t=t, rows=r))
            bucketed = sum(1 for g in enumerate_invariants(EnumSpec(n=6, t=t)) if g.r == r)
            assert direct == bucketed


@pytest.mark.parametrize("spec", [
    EnumSpec(n=8, t=4),
    EnumSpec(n=11, t=3, forbid={Role.SEMI_VETOER}),
    EnumSpec(n=8, t=3, require={Role.SEMI_VETOER}),
], ids=["8-4", "11-3-forbid-semi-vetoer", "8-3-require-semi-vetoer"])
def test_row_limited_counts_sum_to_the_total(spec):
    # each row count cut from the graded counter at its own degree, on the row
    # set alone (8-4) or with role bits
    total, by_rows = count_games(spec), 0
    for r in range(1, 65):
        by_rows += count_games(EnumSpec(spec.n, spec.t, rows=r, require=spec.require, forbid=spec.forbid))
        if by_rows >= total:
            break
    assert by_rows == total, (spec, r)


def test_count_by_rows_table():
    table = count_by_rows(3)
    assert table[(1, 1)] == 3
    assert table[(2, 1)] == 4
    assert table[(2, 2)] == 1
    assert (3, 1) not in table
    assert sum(v for (t, r), v in table.items() if r == 1) == 7
    assert count_by_rows(1) == {(1, 1): 1}
    n4 = count_by_rows(4)
    assert sum(v for (t, r), v in n4.items() if r == 1) == 15
    # t runs over 1 .. min(t_max, n)
    assert count_by_rows(4, t_max=0) == {}
    assert count_by_rows(4, t_max=2) == {k: v for k, v in n4.items() if k[0] <= 2}
    assert count_by_rows(4, t_max=9) == n4


def test_count_by_rows_matches_stream_tally():
    for n in range(1, 8):
        tally = {}
        for t in range(1, n + 1):
            for _, matrix in raw_pairs(EnumSpec(n=n, t=t)):
                tally[t, len(matrix)] = tally.get((t, len(matrix)), 0) + 1
        assert count_by_rows(n) == tally, n


def test_count_by_rows_single_rows_and_total():
    # the counter's r = 1 grades, summed over t, give every nonempty player
    # count 1..n of a lone row; checks _single_rows independently
    for n in range(1, 9):
        table = count_by_rows(n)
        assert sum(v for (t, r), v in table.items() if r == 1) == 2**n - 1, n
    # an identity, not a published count: by rows and by class count alike
    assert sum(table.values()) == sum(count_games(EnumSpec(8, t)) for t in range(1, 9)) == 16175188
    # the whole n = 8 table, pinned as the per-composition boundary inclusion-exclusion
    # counted it
    digest = hashlib.sha256(repr(sorted(table.items())).encode()).hexdigest()
    assert digest == "a1c0d974a8271270e503977cf6c64215f15cadd8f5d04af318f9ab1cdb3960fb"


# the n = 9 row by t, pinned as the per-composition boundary inclusion-exclusion
# counted it; its total matched one count on the singleton box, N(1^9)
CG_N9 = (9, 485, 15769, 431440, 10158372, 201529876, 3158487949, 35874754170, 245187352104)


@pytest.mark.skipif(not STRETCH, reason="stretch target; set CSGAMES_STRETCH=1")
def test_count_n9_row_stretch():
    assert sum(CG_N9) == 284432730174
    assert tuple(count_games(EnumSpec(9, t)) for t in range(1, 10)) == CG_N9


def test_count_rows_keeps_only_the_spec_row_count():
    by_rows = count_rows(EnumSpec(8, 4))
    assert all(by_rows.values()) and sum(by_rows.values()) == count_games(EnumSpec(8, 4))
    for r in range(1, 12):
        spec = EnumSpec(8, 4, rows=r)
        assert count_rows(spec) == ({r: by_rows[r]} if r in by_rows else {}), r
        assert count_rows(spec, jobs=2) == count_rows(spec)
    # no antichain has more rows than the box, so a huge row count cuts nothing
    assert count_rows(EnumSpec(8, 4, rows=10**9)) == {}


def test_jobs_capped_by_compositions_and_cpus(monkeypatch):
    # a fork pool starts every worker at its first submit, so the cap must come first
    pools = []

    class InProcessPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    # _map_shards imports the pool class from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    # three free classes, so the shards are counted (at most two are a closed form)
    spec = EnumSpec(n=6, t=3)  # 10 compositions
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 3)
    assert count_games(spec, jobs=100_000) == count_games(spec)
    assert count_games(EnumSpec(n=5, t=3), jobs=2) == count_games(EnumSpec(n=5, t=3))
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 64)
    assert count_games(spec, jobs=100_000) == count_games(spec)
    assert pools == [3, 2, 10]
    # one composition, or an unknown CPU count, runs in this process
    assert count_games(EnumSpec(n=3, t=3), jobs=100_000) == count_games(EnumSpec(n=3, t=3))
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: None)
    assert count_games(spec, jobs=100_000) == count_games(spec)
    assert pools == [3, 2, 10]
    # a closed-form count builds no pool
    assert count_games(EnumSpec(n=6, t=2), jobs=2) == count_games(EnumSpec(n=6, t=2))
    assert pools == [3, 2, 10]


def test_row_identity():
    for n in range(1, 11):
        total = sum(count_games(EnumSpec(n=n, t=t, rows=1)) for t in range(1, n + 1))
        assert total == 2**n - 1


def test_oracle_agreement_small():
    for n in range(1, 5):
        for t in range(1, n + 1):
            assert count_games(EnumSpec(n=n, t=t)) == oracle_count(n, t)
    assert count_games(EnumSpec(n=4, t=2, require=frozenset({Role.VETOER}))) == oracle_count(
        4, 2, require={Role.VETOER}
    )
    assert count_games(
        EnumSpec(n=4, t=3, require=frozenset({Role.VETOER, Role.NULL}))
    ) == oracle_count(4, 3, require={Role.VETOER, Role.NULL})


def test_filter_consistency_small():
    for n in range(2, 8):
        for t in range(1, min(n, 4) + 1):
            v = count_games(EnumSpec(n=n, t=t, require=frozenset({Role.VETOER})))
            p = count_games(EnumSpec(n=n, t=t, require=frozenset({Role.PASSER})))
            sv = count_games(EnumSpec(n=n, t=t, require=frozenset({Role.SEMI_VETOER})))
            sp = count_games(EnumSpec(n=n, t=t, require=frozenset({Role.SEMI_PASSER})))
            assert v == p == sv == sp
            if t >= 2:
                assert v == count_games(EnumSpec(n=n, t=t, require=frozenset({Role.NULL})))


def test_forbid_filter_partitions():
    spec_all = EnumSpec(n=6, t=3)
    with_veto = EnumSpec(n=6, t=3, require=frozenset({Role.VETOER}))
    without_veto = EnumSpec(n=6, t=3, forbid=frozenset({Role.VETOER}))
    assert count_games(spec_all) == count_games(with_veto) + count_games(without_veto)


def test_spec_validation():
    with pytest.raises(ValidationError):
        EnumSpec(n=0, t=1)
    with pytest.raises(ValidationError):
        EnumSpec(n=3, t=4)
    with pytest.raises(ValidationError):
        EnumSpec(n=3, t=2, rows=0)
    with pytest.raises(ValidationError):
        EnumSpec(n=3, t=2, require=frozenset({Role.NULL}), forbid=frozenset({Role.NULL}))


def test_emitted_invariants_revalidate():
    for g in enumerate_invariants(EnumSpec(n=5, t=3)):
        assert inv(g.n_bar, g.matrix) == g
