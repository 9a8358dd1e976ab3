import itertools
import os
from fractions import Fraction

import pytest

from csgames.core import SimpleGame, WeightedRepresentation, from_weighted
from csgames.enumeration import EnumSpec, raw_pairs
from csgames.errors import ValidationError
from csgames.invariants import expand
from csgames.roles import Role, semantic_roles, structural_roles
from csgames.transforms import dual, dual_invariants

from conftest import inv

STRETCH = os.environ.get("CSGAMES_STRETCH") == "1"

USSR = SimpleGame.from_coalitions(3, [[1, 2], [1, 3], [2, 3]])
EX1 = SimpleGame.from_coalitions(3, [[1, 2], [1, 3]])


def test_semantic_ussr_all_semi():
    rep = semantic_roles(USSR)
    for roles in rep.per_player:
        assert roles == frozenset({Role.SEMI_VETOER, Role.SEMI_PASSER})


def test_semantic_weighted_null_member():
    rep = WeightedRepresentation(Fraction(12), tuple(Fraction(w) for w in (4, 4, 4, 2, 2, 1)))
    report = semantic_roles(from_weighted(rep))
    assert report.per_player[5] == frozenset({Role.NULL})


def test_semantic_ex1():
    report = semantic_roles(EX1)
    assert report.per_player[0] == frozenset({Role.VETOER, Role.SEMI_PASSER})
    assert report.per_player[1] == frozenset({Role.SEMI_VETOER})
    assert report.per_player[2] == frozenset({Role.SEMI_VETOER})


def test_structural_dictator_pattern():
    for n in (2, 3, 6):
        report = structural_roles(inv((1, n - 1), [[1, 0]]))
        assert Role.DICTATOR in report.per_class[0]
        # a dictator is simultaneously a vetoer and a passer
        assert {Role.VETOER, Role.PASSER} <= report.per_class[0]
        assert Role.NULL in report.per_class[1]


def test_structural_all_semi_vetoers():
    for n in (2, 3, 5, 8):
        report = structural_roles(inv((n,), [[n - 1]]))
        assert report.per_class[0] >= {Role.SEMI_VETOER}


def test_structural_null_class_meets_literal_semi_veto():
    # the unanimity-minus-one-class degenerate: nulls satisfying the semi-veto text
    report = structural_roles(inv((2, 1), [[2, 0]]))
    assert report.per_class[0] == frozenset({Role.VETOER})
    assert report.per_class[1] == frozenset({Role.NULL, Role.SEMI_VETOER})


def test_single_player_game_roles():
    report = structural_roles(inv((1,), [[1]]))
    assert report.per_class[0] == frozenset({Role.DICTATOR, Role.VETOER, Role.PASSER})


def test_role_names_are_lowercase_json():
    data = structural_roles(inv((2, 1), [[2, 0]])).to_json_dict()
    assert data["per_class"]["2"] == ["null", "semi-vetoer"]
    assert data["t"] == 2


def test_semantic_per_player_keeps_player_indexing():
    # strongest player need not be player 1; the report must not relabel
    flipped = SimpleGame.from_coalitions(2, [[2]])
    report = semantic_roles(flipped)
    assert Role.DICTATOR in report.per_player[1]
    assert Role.NULL in report.per_player[0]
    assert Role.DICTATOR in report.per_class[0]  # classes stay strongest-first


def test_unknown_role_name():
    with pytest.raises(ValidationError):
        Role.from_name("king")


def test_structural_agrees_with_semantic_small(small_catalog):
    for games in small_catalog.values():
        for candidate in games:
            s = structural_roles(candidate)
            m = semantic_roles(expand(candidate))
            assert s.per_class == m.per_class
            assert s.per_player == m.per_player


def test_structural_agrees_with_semantic_sampled_n8():
    # every 97th game from each (8, t) stream, t <= 4
    for t in range(1, 5):
        stream = raw_pairs(EnumSpec(n=8, t=t))
        for sizes, matrix in itertools.islice(stream, 0, None, 97):
            candidate = inv(sizes, matrix)
            assert structural_roles(candidate).per_class == semantic_roles(
                expand(candidate)
            ).per_class


def _structural_agrees_with_semantic(n, types):
    for t in types:
        for sizes, matrix in raw_pairs(EnumSpec(n=n, t=t)):
            candidate = inv(sizes, matrix)
            s = structural_roles(candidate)
            m = semantic_roles(expand(candidate))
            assert s.per_class == m.per_class and s.per_player == m.per_player, (sizes, matrix)


def test_structural_agrees_with_semantic_n7():
    # the role masks against the coalition-level definitions on every game with n = 7, t <= 4
    _structural_agrees_with_semantic(7, range(1, 5))


@pytest.mark.skipif(not STRETCH, reason="deep sweep; set CSGAMES_STRETCH=1")
def test_structural_agrees_with_semantic_n7_all_types():
    _structural_agrees_with_semantic(7, range(1, 8))


def test_role_sets_constant_on_classes(small_catalog):
    for games in small_catalog.values():
        for candidate in games:
            report = semantic_roles(expand(candidate))
            start = 0
            for k, size in enumerate(report.class_sizes):
                block = report.per_player[start : start + size]
                assert all(roles == report.per_class[k] for roles in block)
                start += size


def test_dictator_implies_rest_null(small_catalog):
    for games in small_catalog.values():
        for candidate in games:
            report = structural_roles(candidate)
            if Role.DICTATOR in report.present:
                holders = [r for r in report.per_player if Role.DICTATOR in r]
                assert len(holders) == 1
                others = [r for r in report.per_player if Role.DICTATOR not in r]
                assert all(Role.NULL in r for r in others)


def test_veto_class_first_null_class_last(small_catalog):
    for games in small_catalog.values():
        for candidate in games:
            report = structural_roles(candidate)
            for k, roles in enumerate(report.per_class):
                if Role.VETOER in roles:
                    assert k == 0
                if Role.NULL in roles:
                    assert k == report.class_count - 1


def test_veto_passer_only_concur_in_dictatorship(small_catalog):
    for games in small_catalog.values():
        for candidate in games:
            report = structural_roles(candidate)
            if {Role.VETOER, Role.PASSER} <= report.present:
                assert Role.DICTATOR in report.present


def test_duality_swaps_roles(small_catalog):
    swap = {
        Role.VETOER: Role.PASSER,
        Role.PASSER: Role.VETOER,
        Role.SEMI_VETOER: Role.SEMI_PASSER,
        Role.SEMI_PASSER: Role.SEMI_VETOER,
        Role.NULL: Role.NULL,
        Role.DICTATOR: Role.DICTATOR,
    }
    for (n, t), games in small_catalog.items():
        if n > 5:
            continue
        for candidate in games:
            game = expand(candidate)
            here = semantic_roles(game)
            there = semantic_roles(dual(game))
            for a, b in zip(here.per_player, there.per_player):
                assert {swap[r] for r in a} == set(b)


def test_semi_vetoer_semi_passer_games_closed_under_duality(small_catalog):
    # duality swaps the two roles, so the family's count has the parity of its
    # self-dual members; at n=3 that is one member, and the count is odd
    both = {Role.SEMI_VETOER, Role.SEMI_PASSER}
    members = {
        n: {
            g
            for t in range(1, n + 1)
            for g in small_catalog[(n, t)]
            if both <= structural_roles(g).present
        }
        for n in range(1, 6)
    }
    for games in members.values():
        assert {dual_invariants(g) for g in games} == games
    majority = inv((3,), [[2]])
    pair = [inv((1, 2), [[1, 1]]), inv((1, 2), [[1, 0], [0, 2]])]
    assert members[3] == {majority, *pair}
    assert dual_invariants(majority) == majority
    assert dual_invariants(pair[0]) == pair[1]
    assert dual_invariants(pair[1]) == pair[0]
