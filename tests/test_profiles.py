import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csgames.core import SimpleGame, type_partition
from csgames.errors import ValidationError
from csgames.profiles import (
    DeltaRelation,
    DeltaTable,
    Profile,
    ProfileBox,
    box_profiles,
    delta_compare,
    prefix_sums,
    profile_of,
)


def test_delta_compare_examples():
    assert delta_compare(Profile((1, 2)), Profile((0, 3))) is DeltaRelation.DOMINATES
    assert delta_compare(Profile((0, 3)), Profile((1, 2))) is DeltaRelation.DOMINATED_BY
    assert delta_compare(Profile((2, 0)), Profile((0, 3))) is DeltaRelation.INCOMPARABLE
    assert delta_compare(Profile((1, 1)), Profile((1, 1))) is DeltaRelation.EQUAL


def test_delta_compare_length_mismatch():
    with pytest.raises(ValidationError):
        delta_compare(Profile((1,)), Profile((1, 2)))


def test_profile_carries_prefix():
    p = Profile((2, 0, 3))
    assert p.prefix == (2, 2, 5)
    with pytest.raises(ValidationError):
        Profile(())
    with pytest.raises(ValidationError):
        Profile((1, -1))


def test_profile_of_examples():
    ex1 = type_partition(SimpleGame.from_coalitions(3, [[1, 2], [1, 3]]))
    assert profile_of(ex1, [1, 2]).counts == (1, 1)
    assert profile_of(ex1, []).counts == (0, 0)
    ex2 = type_partition(
        SimpleGame.from_coalitions(
            5,
            [[1, 2], [1, 3, 4], [1, 3, 5], [1, 4, 5], [2, 3, 4], [2, 3, 5], [2, 4, 5], [3, 4, 5]],
        )
    )
    assert profile_of(ex2, [3, 4, 5]).counts == (0, 3)


def test_box_profiles_order_and_count():
    assert [p.counts for p in box_profiles(ProfileBox((1,)))] == [(1,), (0,)]
    seq = [p.counts for p in box_profiles(ProfileBox((2, 3)))]
    assert len(seq) == 12
    assert seq[0] == (2, 3) and seq[-1] == (0, 0)
    assert seq == sorted(seq, reverse=True)
    assert len(list(box_profiles(ProfileBox((1, 1, 1))))) == 8
    assert ProfileBox((2, 3)).size == 12


def test_box_membership():
    box = ProfileBox((2, 3))
    assert Profile((2, 0)) in box
    assert Profile((3, 0)) not in box
    assert Profile((1,)) not in box


@st.composite
def boxed_profiles(draw):
    sizes = tuple(draw(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4)))
    pick = lambda: tuple(draw(st.integers(min_value=0, max_value=s)) for s in sizes)  # noqa: E731
    return Profile(pick()), Profile(pick()), Profile(pick())


@settings(max_examples=300, deadline=None)
@given(boxed_profiles())
def test_delta_is_a_partial_order(triple):
    p, q, r = triple
    # antisymmetry
    if delta_compare(p, q) is DeltaRelation.DOMINATES:
        assert delta_compare(q, p) is DeltaRelation.DOMINATED_BY
    # transitivity of dominates-or-equal
    dom = lambda a, b: delta_compare(a, b) in (DeltaRelation.DOMINATES, DeltaRelation.EQUAL)  # noqa: E731
    if dom(p, q) and dom(q, r):
        assert dom(p, r)


@settings(max_examples=300, deadline=None)
@given(boxed_profiles())
def test_dominance_implies_lex_greater(triple):
    p, q, _ = triple
    if delta_compare(p, q) is DeltaRelation.DOMINATES:
        assert p.counts > q.counts


@pytest.mark.parametrize("sizes", [(1,), (3,), (2, 3), (1, 1, 2)])
def test_box_extremes(sizes):
    box = ProfileBox(sizes)
    profiles = list(box_profiles(box))
    top = Profile(sizes)
    bottom = Profile((0,) * len(sizes))
    for p in profiles:
        assert delta_compare(top, p) in (DeltaRelation.DOMINATES, DeltaRelation.EQUAL)
        assert delta_compare(bottom, p) in (DeltaRelation.DOMINATED_BY, DeltaRelation.EQUAL)


def test_exhaustive_partial_order_small_box():
    profiles = [p for p in box_profiles(ProfileBox((2, 2, 2)))]
    for p, q in itertools.permutations(profiles, 2):
        rel = delta_compare(p, q)
        back = delta_compare(q, p)
        flips = {
            DeltaRelation.DOMINATES: DeltaRelation.DOMINATED_BY,
            DeltaRelation.DOMINATED_BY: DeltaRelation.DOMINATES,
            DeltaRelation.EQUAL: DeltaRelation.EQUAL,
            DeltaRelation.INCOMPARABLE: DeltaRelation.INCOMPARABLE,
        }
        assert back is flips[rel]


@pytest.mark.parametrize("sizes", [(1,), (3,), (2, 3), (1, 1, 2), (2, 1, 3, 1)])
def test_delta_table_matches_definitions(sizes):
    table = DeltaTable(sizes)
    profiles = [p.counts for p in box_profiles(ProfileBox(sizes))]
    index = {c: i for i, c in enumerate(profiles)}
    assert table.members(table.full) == profiles

    def bits(keep):
        return sum(1 << i for i, c in enumerate(profiles) if keep(c))

    for k in range(len(sizes)):
        for v in range(-1, sum(sizes) + 2):
            assert table.class_at_least(k, v) == bits(lambda c: c[k] >= v)
            assert table.prefix_at_least(k, v) == bits(lambda c: sum(c[: k + 1]) >= v)

    def step(c, k, moved):
        lower = list(c)
        lower[k] -= 1
        if moved:
            lower[k + 1] += 1
        return tuple(lower)

    last = len(sizes) - 1
    # (k, moved): a delta step moves one member of class k to k + 1 or drops one
    # of the last class; a drop step drops one member of class k
    kinds = [(k, k < last) for k in range(last + 1)] + [(k, False) for k in range(last + 1)]
    for (offset, can_step), (k, moved) in zip(table.delta_steps + table.drop_steps, kinds):
        assert can_step == bits(lambda c: step(c, k, moved) in index)
        assert all(index[step(c, k, moved)] - index[c] == offset
                   for c in profiles if step(c, k, moved) in index)
    for row in profiles:
        up = table.above([row])
        above = {c for c in profiles if all(a >= b for a, b in zip(prefix_sums(c), prefix_sums(row)))}
        assert up == bits(lambda c: c in above)
        assert table.blocking(up) == bits(lambda c: tuple(s - x for s, x in zip(sizes, c)) not in above)
