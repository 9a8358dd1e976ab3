import itertools
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csgames.core import SimpleGame
from csgames.enumeration import EnumSpec, raw_pairs
from csgames.errors import CapacityError, NotCompleteError, ValidationError
from csgames.invariants import (
    WINNING_SET_CAP,
    Invariants,
    check_conditions,
    expand,
    extract,
    is_winning_profile,
    validate,
    winning_profiles,
    wins_counts,
)
from csgames.transforms import dual_invariants

from conftest import inv

EX2 = inv((2, 3), [[2, 0], [0, 3]])


def test_validate_accepts_ex2():
    assert validate((2, 3), [[2, 0], [0, 3]]) == EX2


def test_validate_labels_comparable_rows():
    violations = check_conditions((1, 2), [[1, 1], [0, 2]])
    assert any(v.startswith("condition3") for v in violations)
    with pytest.raises(ValidationError) as err:
        validate((1, 2), [[1, 1], [0, 2]])
    assert any(v.startswith("condition3") for v in err.value.violations)


def test_validate_labels_condition4():
    violations = check_conditions((1, 2), [[1, 2]])
    assert any(v.startswith("condition4") for v in violations)


def test_validate_labels_all_failures():
    violations = check_conditions((0, 2), [[0, 3]])
    labels = {v.split(":")[0] for v in violations}
    assert "condition1" in labels and "condition2" in labels and "m11" in labels


def test_validate_input_errors():
    with pytest.raises(ValidationError):
        check_conditions((), [])
    with pytest.raises(ValidationError):
        check_conditions((2,), [])
    with pytest.raises(ValidationError):
        check_conditions((2, 1), [[1]])
    with pytest.raises(ValidationError):
        check_conditions((), [[1]])
    with pytest.raises(ValidationError):
        check_conditions((2, 1), [[1, 0], [1]])
    with pytest.raises(ValidationError):
        check_conditions((2, 1), [[1, 0, 0]])


def conditions_oracle(n_bar, matrix) -> list[str]:
    """The validity conditions read straight off their definitions, in label order."""
    t, r = len(n_bar), len(matrix)
    labels = []
    if any(s <= 0 for s in n_bar):
        labels.append("condition1: every class size must be positive")
    for p in range(r):
        if any(not 0 <= matrix[p][k] <= n_bar[k] for k in range(t)):
            labels.append(f"condition2: row {p + 1} leaves the profile box")
    prefix = [[sum(row[:k + 1]) for k in range(t)] for row in matrix]
    for p in range(r):
        for q in range(p + 1, r):
            ge = all(prefix[p][k] >= prefix[q][k] for k in range(t))
            le = all(prefix[p][k] <= prefix[q][k] for k in range(t))
            if ge or le:
                labels.append(f"condition3: rows {p + 1} and {q + 1} are delta-comparable")
    for k in range(t - 1):
        if not any(row[k] > 0 and row[k + 1] < n_bar[k + 1] for row in matrix):
            labels.append(f"condition4: no row separates classes {k + 1} and {k + 2}")
    if matrix[0][0] <= 0:
        labels.append("m11: the first row must start with a positive entry")
    if any(list(matrix[p]) <= list(matrix[p + 1]) for p in range(r - 1)):
        labels.append("row_order: rows must be strictly decreasing lexicographically")
    return labels


@st.composite
def perturbed_invariants(draw):
    """A valid (n_bar, M) pair with n <= 6, then a few shuffles, duplicates and bad entries."""
    sizes, matrix = draw(st.sampled_from([(c.n_bar, c.matrix) for c in _sample_pool()]))
    sizes, matrix = list(sizes), [list(row) for row in matrix]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        action = draw(st.sampled_from(["shuffle", "duplicate", "entry", "size"]))
        if action == "shuffle":
            matrix = draw(st.permutations(matrix))
        elif action == "duplicate":
            matrix.insert(draw(st.integers(0, len(matrix))), list(draw(st.sampled_from(matrix))))
        elif action == "entry":
            row = draw(st.sampled_from(matrix))
            k = draw(st.integers(0, len(row) - 1))
            row[k] = draw(st.sampled_from([-1, sizes[k] + 1, draw(st.integers(-3, 9))]))
        else:
            sizes[draw(st.integers(0, len(sizes) - 1))] = draw(st.integers(-2, 0))
    return sizes, matrix


@settings(max_examples=500, deadline=None)
@given(perturbed_invariants())
def test_condition_labels_match_the_definitions(pair):
    sizes, matrix = pair
    assert check_conditions(sizes, matrix) == conditions_oracle(sizes, matrix)


def test_row_order_enforced():
    violations = check_conditions((2, 2), [[1, 0], [2, 0]])
    assert any(v.startswith("row_order") for v in violations)


def test_winning_profiles_ex2():
    got = {p.counts for p in winning_profiles(EX2)}
    assert got == {(0, 3), (1, 2), (1, 3), (2, 0), (2, 1), (2, 2), (2, 3)}


def test_winning_profiles_dictator_form():
    got = {p.counts for p in winning_profiles(inv((1, 2), [[1, 0]]))}
    assert got == {(1, 0), (1, 1), (1, 2)}


def test_top_profile_always_wins():
    for candidate in (EX2, inv((3,), [[2]]), inv((1, 2), [[1, 1]])):
        assert is_winning_profile(candidate, candidate.n_bar)


def test_expand_ex2():
    game = expand(EX2)
    assert game.coalitions() == (
        (1, 2),
        (1, 3, 4),
        (1, 3, 5),
        (1, 4, 5),
        (2, 3, 4),
        (2, 3, 5),
        (2, 4, 5),
        (3, 4, 5),
    )
    assert len(game.min_winning) == 8


def test_expand_unanimity():
    for n in (1, 2, 5):
        game = expand(inv((n,), [[n]]))
        assert game.coalitions() == (tuple(range(1, n + 1)),)


def test_extract_examples():
    ex1 = SimpleGame.from_coalitions(3, [[1, 2], [1, 3]])
    assert extract(ex1) == inv((1, 2), [[1, 1]])
    dictator = SimpleGame.from_coalitions(3, [[1]])
    assert extract(dictator) == inv((1, 2), [[1, 0]])
    ussr = SimpleGame.from_coalitions(3, [[1, 2], [1, 3], [2, 3]])
    assert extract(ussr) == inv((3,), [[2]])


def test_extract_rejects_incomplete():
    crossed = SimpleGame.from_coalitions(4, [[1, 2], [3, 4]])
    with pytest.raises(NotCompleteError):
        extract(crossed)


def test_rows_are_winning_and_necessary():
    # dropping a row shrinks the winning set even when the remainder is no
    # longer a valid canonical matrix, so work on the raw closure
    from csgames.invariants import _winning_bits

    for candidate in (EX2, inv((1, 2), [[1, 0], [0, 2]]), inv((3, 2, 1), [[3, 0, 0], [2, 2, 0]])):
        _, full = _winning_bits(candidate.n_bar, candidate.matrix)
        for drop in range(candidate.r):
            rows = candidate.matrix[:drop] + candidate.matrix[drop + 1:]
            assert is_winning_profile(candidate, candidate.matrix[drop])
            if rows:
                assert _winning_bits(candidate.n_bar, rows)[1] != full


def test_winning_profiles_match_point_queries():
    for n in range(1, 7):
        for t in range(1, n + 1):
            for sizes, matrix in raw_pairs(EnumSpec(n=n, t=t)):
                box = itertools.product(*(range(s + 1) for s in sizes))
                expected = {counts for counts in box if wins_counts(sizes, matrix, counts)}
                got = winning_profiles(Invariants(sizes, matrix))
                assert {p.counts for p in got} == expected, (sizes, matrix)


def test_conversions_cap_the_box():
    big = inv((1000, 999), [[1000, 0]])
    assert big.box_size > WINNING_SET_CAP
    for convert in (winning_profiles, expand, dual_invariants):
        with pytest.raises(CapacityError):
            convert(big)


def test_expand_caps_the_player_count():
    # a valid pair may hold more players than a game; expand still refuses them
    with pytest.raises(ValidationError, match="player count must be in 1..64, got 70"):
        expand(inv((70,), [[70]]))


def test_expand_caps_the_coalition_count():
    # a 65-profile box whose one profile stands for C(64, 32) coalitions
    with pytest.raises(CapacityError, match=f"more than {WINNING_SET_CAP} minimal winning"):
        expand(inv((64,), [[32]]))


def test_monotone_closure_of_winning_set():
    wins = {p.counts for p in winning_profiles(EX2)}
    for counts in wins:
        for k in range(2):
            if counts[k] < EX2.n_bar[k]:
                up = counts[:k] + (counts[k] + 1,) + counts[k + 1:]
                assert up in wins


def test_json_round_trip():
    data = EX2.to_json_dict()
    assert data == {"n_bar": [2, 3], "M": [[2, 0], [0, 3]]}
    assert Invariants.from_json_dict(data) == EX2


@pytest.fixture(scope="module")
def round_trip_pool(request):
    pool = []
    from csgames.enumeration import EnumSpec, raw_pairs

    for n in range(1, 7):
        for t in range(1, n + 1):
            pool.extend(inv(s, m) for s, m in raw_pairs(EnumSpec(n=n, t=t)))
    return pool


def test_extract_expand_round_trip_small(round_trip_pool):
    for candidate in round_trip_pool:
        assert extract(expand(candidate)) == candidate


def test_expand_extract_round_trip_games(round_trip_pool, small_catalog):
    # expanding canonical invariants and re-extracting is lossless, so class
    # sizes and matrices agree with the original up to the canonical labeling
    for candidate in small_catalog[(5, 2)]:
        game = expand(candidate)
        again = extract(game)
        assert again.n_bar == candidate.n_bar
        assert again.matrix == candidate.matrix


@lru_cache(maxsize=1)
def _sample_pool():
    from csgames.enumeration import EnumSpec, raw_pairs

    pool = []
    for n in range(1, 7):
        for t in range(1, n + 1):
            pool.extend(inv(s, m) for s, m in raw_pairs(EnumSpec(n=n, t=t)))
    return pool


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_round_trip_on_sampled_invariants(data):
    candidate = data.draw(st.sampled_from(_sample_pool()))
    assert extract(expand(candidate)) == candidate
