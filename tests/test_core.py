import itertools
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csgames.core import (
    Desirability,
    SimpleGame,
    WeightedRepresentation,
    _member_order,
    coalition_members,
    desirability,
    from_weighted,
    is_winning,
    normalize_min_winning,
    type_partition,
)
from csgames.enumeration import EnumSpec, enumerate_invariants
from csgames.errors import NotCompleteError, ValidationError
from csgames.invariants import expand

EX1 = SimpleGame.from_coalitions(3, [[1, 2], [1, 3]])
USSR = SimpleGame.from_coalitions(3, [[1, 2], [1, 3], [2, 3]])
EX2_GAME = SimpleGame.from_coalitions(
    5,
    [[1, 2], [1, 3, 4], [1, 3, 5], [1, 4, 5], [2, 3, 4], [2, 3, 5], [2, 4, 5], [3, 4, 5]],
)


def test_is_winning_examples():
    assert is_winning(EX1, [1, 2, 3])
    assert not is_winning(EX1, [2, 3])
    assert not is_winning(EX1, [])
    assert not is_winning(USSR, [])


def test_is_winning_rejects_out_of_range():
    with pytest.raises(ValidationError):
        is_winning(EX1, [4])


def test_game_construction_rejects_bad_input():
    with pytest.raises(ValidationError):
        SimpleGame(3, ())
    with pytest.raises(ValidationError):
        SimpleGame(3, (0,))
    with pytest.raises(ValidationError):
        SimpleGame.from_coalitions(3, [[1, 2], [1, 2, 3]])  # not an antichain


def test_min_winning_canonical_order():
    g = SimpleGame.from_coalitions(3, [[1, 3], [1, 2]])
    assert g.coalitions() == ((1, 2), (1, 3))


@st.composite
def mask_sets(draw):
    n = draw(st.integers(min_value=1, max_value=64))
    return draw(st.lists(st.integers(min_value=1, max_value=(1 << n) - 1), max_size=40))


@settings(max_examples=300, deadline=None)
@given(mask_sets())
def test_member_order_key_sorts_like_member_tuples(masks):
    assert sorted(masks, key=_member_order) == sorted(masks, key=coalition_members)


def test_normalize_min_winning():
    g = normalize_min_winning(3, [[1, 2], [1, 2, 3]])
    assert g.coalitions() == ((1, 2),)
    g = normalize_min_winning(2, [[1], [2], [1, 2]])
    assert g.coalitions() == ((1,), (2,))
    g = normalize_min_winning(5, EX2_GAME.coalitions())
    assert g == EX2_GAME
    with pytest.raises(ValidationError):
        normalize_min_winning(3, [])
    with pytest.raises(ValidationError):
        normalize_min_winning(3, [[]])


def test_normalize_preserves_monotone_closure():
    raw = [[1, 2], [1, 2, 3], [3]]
    g = normalize_min_winning(3, raw)
    for size in range(4):
        for combo in itertools.combinations([1, 2, 3], size):
            raw_wins = any(set(r) <= set(combo) for r in raw)
            assert is_winning(g, combo) == raw_wins


def test_desirability_examples():
    assert desirability(EX1, 1, 2) is Desirability.MORE_DESIRABLE
    assert desirability(EX1, 2, 1) is Desirability.LESS_DESIRABLE
    assert desirability(EX1, 2, 3) is Desirability.EQUALLY_DESIRABLE
    unanimity = SimpleGame.from_coalitions(2, [[1, 2]])
    assert desirability(unanimity, 1, 2) is Desirability.EQUALLY_DESIRABLE
    with pytest.raises(ValidationError):
        desirability(EX1, 1, 1)


def test_type_partition_examples():
    assert type_partition(EX1).classes == ((1,), (2, 3))
    assert type_partition(EX1).sizes == (1, 2)
    assert type_partition(EX2_GAME).classes == ((1, 2), (3, 4, 5))
    crossed = SimpleGame.from_coalitions(4, [[1, 2], [3, 4]])
    with pytest.raises(NotCompleteError) as err:
        type_partition(crossed)
    assert err.value.pair is not None


def test_from_weighted_realizations_of_ex1():
    for quota, weights in [(3, (2, 1, 1)), (51, (50, 49, 1))]:
        rep = WeightedRepresentation(Fraction(quota), tuple(Fraction(w) for w in weights))
        assert from_weighted(rep) == EX1


def test_from_weighted_null_member():
    rep = WeightedRepresentation(Fraction(12), tuple(Fraction(w) for w in (4, 4, 4, 2, 2, 1)))
    game = from_weighted(rep)
    assert all(6 not in c for c in game.coalitions())


def test_weighted_validation():
    with pytest.raises(ValidationError):
        WeightedRepresentation(Fraction(10), (Fraction(1), Fraction(2)))
    with pytest.raises(ValidationError):
        WeightedRepresentation(Fraction(0), (Fraction(1),))
    with pytest.raises(ValidationError):
        WeightedRepresentation(Fraction(1), (Fraction(-1), Fraction(3)))


def test_weighted_json_exact_strings():
    rep = WeightedRepresentation.from_json_dict({"quota": "12", "weights": ["4", "4", "4", "2", "2", "1"]})
    assert rep.quota == 12
    rep = WeightedRepresentation.from_json_dict({"quota": "1.5", "weights": ["1", "0.5", "0.25"]})
    assert rep.quota == Fraction(3, 2) and rep.weights[2] == Fraction(1, 4)


def test_game_json_round_trip():
    data = EX1.to_json_dict()
    assert data == {"n": 3, "min_winning": [[1, 2], [1, 3]]}
    assert SimpleGame.from_json_dict(data) == EX1


@st.composite
def small_games(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    subsets = list(range(1, 1 << n))
    picks = draw(st.lists(st.sampled_from(subsets), min_size=1, max_size=5))
    minimal = []
    for m in sorted(set(picks), key=lambda m: bin(m).count("1")):
        if not any(k & m == k for k in minimal):
            minimal.append(m)
    return SimpleGame(n, tuple(minimal))


@settings(max_examples=150, deadline=None)
@given(small_games())
def test_monotonicity_property(game):
    full = 1 << game.n
    for s in range(full):
        if is_winning(game, s):
            for extra in range(game.n):
                assert is_winning(game, s | (1 << extra))


@settings(max_examples=60, deadline=None)
@given(small_games())
def test_equal_desirability_is_equivalence(game):
    n = game.n
    equal = {
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j and desirability(game, i, j) is Desirability.EQUALLY_DESIRABLE
    }
    for i, j in equal:
        assert (j, i) in equal
        for k in range(1, n + 1):
            if k not in (i, j) and (j, k) in equal:
                assert (i, k) in equal


def reference_partition(game):
    """Classes from all n(n-1) desirability calls, or the first incomparable pair."""
    n = game.n
    rel = {
        (i, j): desirability(game, i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j
    }
    for i, j in itertools.combinations(range(1, n + 1), 2):
        if rel[i, j] is Desirability.INCOMPARABLE:
            return (i, j), f"players {i} and {j} are incomparable"
    classes = []
    for i in range(1, n + 1):
        for members in classes:
            if rel[members[0], i] is Desirability.EQUALLY_DESIRABLE:
                members.append(i)
                break
        else:
            classes.append([i])
    # strongest first: a class ranks by the number of classes above it
    ranked = sorted(
        classes,
        key=lambda c: sum(rel[d[0], c[0]] is Desirability.MORE_DESIRABLE for d in classes if d is not c),
    )
    return tuple(tuple(c) for c in ranked)


def partition_or_error(game):
    try:
        return type_partition(game).classes
    except NotCompleteError as err:
        return err.pair, str(err)


@lru_cache(maxsize=None)
def stream8(t):
    return tuple(enumerate_invariants(EnumSpec(n=8, t=t)))


@st.composite
def relabelled_stream_games(draw):
    """An expanded (8, t<=4) stream game with its players randomly relabelled."""
    t = draw(st.integers(min_value=1, max_value=4))
    game = expand(draw(st.sampled_from(stream8(t))))
    perm = draw(st.permutations(range(8)))
    return SimpleGame(
        8,
        tuple(sum(1 << perm[p] for p in range(8) if m >> p & 1) for m in game.min_winning),
    )


@settings(max_examples=300, deadline=None)
@given(relabelled_stream_games())
def test_type_partition_matches_pairwise_reference_on_complete_games(game):
    assert partition_or_error(game) == reference_partition(game)


@settings(max_examples=300, deadline=None)
@given(small_games())
def test_type_partition_matches_pairwise_reference(game):
    assert partition_or_error(game) == reference_partition(game)


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(min_value=0, max_value=6), min_size=n, max_size=n),
        )
    )
)
@settings(max_examples=100, deadline=None)
def test_weighted_games_are_complete(args):
    n, weights = args
    total = sum(weights)
    if total == 0:
        return
    rep = WeightedRepresentation(Fraction(max(1, total // 2)), tuple(Fraction(w) for w in weights))
    game = from_weighted(rep)
    part = type_partition(game)  # must not raise
    assert sum(part.sizes) == n
    # heavier weight never means less desirable
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and weights[i - 1] >= weights[j - 1]:
                assert desirability(game, i, j) in (
                    Desirability.MORE_DESIRABLE,
                    Desirability.EQUALLY_DESIRABLE,
                )
