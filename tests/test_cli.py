import copy
import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csgames import refcounts
from csgames.cli import main
from csgames.transforms import Bijection

EX2_INV = '{"n_bar":[2,3],"M":[[2,0],[0,3]]}'
EX1_GAME = '{"n":3,"min_winning":[[1,2],[1,3]]}'


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys, monkeypatch):
    code, out, err = run(capsys, ["validate", "-"], EX2_INV, monkeypatch)
    assert code == 0
    assert json.loads(out) == {"M": [[2, 0], [0, 3]], "n_bar": [2, 3]}


def test_validate_reports_violations(capsys, monkeypatch):
    bad = '{"n_bar":[1,2],"M":[[1,1],[0,2]]}'
    code, out, err = run(capsys, ["validate", "-"], bad, monkeypatch)
    assert code == 1
    assert err.startswith("error:")
    assert "condition3" in err
    assert (out, err) == ("", "error: invalid invariants: condition3: rows 1 and 2 are delta-comparable\n")

    # every label at once, in the order check_conditions reports them
    worst = '{"n_bar":[0,2,1],"M":[[0,3,1],[1,2,-1],[0,3,1]]}'
    code, out, err = run(capsys, ["validate", "-"], worst, monkeypatch)
    assert (code, out) == (1, "")
    assert err == (
        "error: invalid invariants: condition1: every class size must be positive; "
        "condition2: row 1 leaves the profile box; condition2: row 2 leaves the profile box; "
        "condition2: row 3 leaves the profile box; condition3: rows 1 and 3 are delta-comparable; "
        "condition4: no row separates classes 1 and 2; m11: the first row must start with a positive entry; "
        "row_order: rows must be strictly decreasing lexicographically\n"
    )


def assert_one_error_line(code, out, err, exit_code=1):
    assert code == exit_code
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


NON_INTEGER_JSON = {
    "n-string": ("classify", '{"n":"x","min_winning":[[1,2]]}'),
    "n_bar-string": ("validate", '{"n_bar":[2,"x"],"M":[[2,0]]}'),
    "matrix-float": ("validate", '{"n_bar":[2,3],"M":[[2,0.5],[0,3]]}'),
    "n_bar-float": ("validate", '{"n_bar":[2,3.7],"M":[[2,0],[0,3]]}'),
    "player-float": ("classify", '{"n":3,"min_winning":[[1.9,2],[1,3]]}'),
    "matrix-numeric-string": ("validate", '{"n_bar":[2,3],"M":[[2,"0"],[0,3]]}'),
    "n_bar-bool": ("validate", '{"n_bar":[true,3],"M":[[1,0],[0,3]]}'),
    "n_bar-not-array": ("validate", '{"n_bar":5,"M":[[2,0]]}'),
    "weights-string": ("classify", '{"quota":"1","weights":"12"}'),
    "quota-zero-denominator": ("classify", '{"quota":"1/0","weights":["1"]}'),
    "weight-zero-denominator": ("classify", '{"quota":"1","weights":["1/0"]}'),
    # Fraction would build 10**exponent before any check could reject it
    "quota-huge-exponent": ("classify", '{"quota":"1e999999999","weights":["1","1"]}'),
    "weight-huge-exponent": ("classify", '{"quota":"1","weights":["1e9999999","1"]}'),
}


@pytest.mark.parametrize("command,text", NON_INTEGER_JSON.values(), ids=NON_INTEGER_JSON.keys())
def test_non_integer_json_entries_rejected(capsys, monkeypatch, command, text):
    assert_one_error_line(*run(capsys, [command, "-"], text, monkeypatch))


VALID_DOCUMENTS = [
    json.loads(EX2_INV),
    json.loads(EX1_GAME),
    {"quota": "5/2", "weights": ["2", "1", "1/2", "0"]},
    # an h2 leftover: the column surgery cannot map it
    {"n_bar": [1, 2, 2], "M": [[1, 2, 0], [1, 1, 2]]},
]
KEYS = ["n", "min_winning", "n_bar", "M", "quota", "weights"]
LEAVES = st.one_of(
    st.sampled_from(["", "x", "2", "-1", "1/2", "1/0", "0.5", "1e999999999", "-1e-9999999", "2E1", "1e_"]),
    st.integers(min_value=-3, max_value=6),
    st.none() | st.booleans() | st.floats(min_value=-4, max_value=4),
)
JSON_VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=2), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def perturbed_documents(draw):
    """A valid game, invariants or weighted document with a few values replaced, dropped or added."""
    doc = copy.deepcopy(draw(st.sampled_from(VALID_DOCUMENTS)))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if not doc:
            break
        parent, key = doc, draw(st.sampled_from(sorted(doc)))
        # descend into arrays now and then, so entries and rows get perturbed too (a ragged M)
        while isinstance(parent[key], list) and parent[key] and draw(st.booleans()):
            parent, key = parent[key], draw(st.integers(min_value=0, max_value=len(parent[key]) - 1))
        action = draw(st.sampled_from(["leaf", "value", "drop", "add"]))
        if action == "drop":
            del parent[key]
        elif action != "add":
            parent[key] = draw(LEAVES if action == "leaf" else JSON_VALUES)
        elif isinstance(parent, list):
            parent.insert(key, draw(LEAVES))
        else:
            parent[draw(st.sampled_from(KEYS))] = draw(JSON_VALUES)
    return doc


def run_isolated(argv, stdin):
    # capsys and monkeypatch are per test, not per Hypothesis example
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


CONTRACT_COMMANDS = st.sampled_from(
    [[command] for command in ["validate", "expand", "extract", "classify", "dual"]]
    + [["map", "--bijection", b.value, *inverse] for b in Bijection for inverse in ([], ["--inverse"])]
)


def assert_cli_contract(command, document):
    code, out, err = run_isolated([*command, "-"], json.dumps(document))
    if code == 0:
        assert err == ""
    else:
        assert code in (1, 3)
        assert_one_error_line(code, out, err, exit_code=code)


@settings(max_examples=150, deadline=None)
@given(CONTRACT_COMMANDS, JSON_VALUES)
def test_cli_contract_on_random_json(command, document):
    assert_cli_contract(command, document)


@settings(max_examples=500, deadline=None)
@given(CONTRACT_COMMANDS, perturbed_documents())
def test_cli_contract_on_perturbed_documents(command, document):
    assert_cli_contract(command, document)


@pytest.mark.parametrize("content", [None, b"\xff\xfe"], ids=["missing", "not-utf8"])
def test_unreadable_input_file(capsys, tmp_path, content):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_bytes(content)
    assert_one_error_line(*run(capsys, ["expand", str(path)]))


def test_expand_extract_pipe_closure(capsys, monkeypatch, tmp_path):
    code, out, _ = run(capsys, ["expand", "-"], EX2_INV, monkeypatch)
    assert code == 0
    game_json = out.strip()
    path = tmp_path / "game.json"
    path.write_text(game_json)
    code, out, _ = run(capsys, ["extract", str(path)])
    assert code == 0
    assert json.loads(out) == json.loads(EX2_INV)


def test_dual_dual_identity_bytes(capsys, monkeypatch, tmp_path):
    code, out, _ = run(capsys, ["dual", "-"], EX1_GAME, monkeypatch)
    assert code == 0
    once = out.strip()
    path = tmp_path / "dual.json"
    path.write_text(once)
    code, out, _ = run(capsys, ["dual", str(path)])
    twice = out.strip()
    canonical = json.dumps(json.loads(EX1_GAME), sort_keys=True, separators=(",", ":"))
    assert twice == canonical


def test_classify_game_and_invariants(capsys, monkeypatch):
    code, out, _ = run(capsys, ["classify", "-"], EX1_GAME, monkeypatch)
    assert code == 0
    data = json.loads(out)
    assert data["per_player"]["1"] == ["semi-passer", "vetoer"]
    code, out, _ = run(capsys, ["classify", "-"], EX2_INV, monkeypatch)
    data = json.loads(out)
    assert data["t"] == 2
    assert data["per_class"] == {"1": [], "2": []}


@pytest.mark.parametrize("command", ["extract", "classify"])
def test_not_complete_game_names_first_incomparable_pair(capsys, monkeypatch, command):
    crossed = '{"n":4,"min_winning":[[1,2],[3,4]]}'
    code, out, err = run(capsys, [command, "-"], crossed, monkeypatch)
    assert (code, out, err) == (1, "", "error: players 1 and 3 are incomparable\n")


def test_classify_weighted_input(capsys, monkeypatch):
    weighted = '{"quota":"12","weights":["4","4","4","2","2","1"]}'
    code, out, _ = run(capsys, ["classify", "-"], weighted, monkeypatch)
    assert code == 0
    assert json.loads(out)["per_player"]["6"] == ["null"]


def test_map_bijections(capsys, monkeypatch):
    code, out, _ = run(capsys, ["map", "--bijection", "f", "-"],
                       '{"n_bar":[1,2],"M":[[1,1]]}', monkeypatch)
    assert code == 0
    assert json.loads(out) == {"M": [[1, 0]], "n_bar": [2, 1]}
    code, out, _ = run(capsys, ["map", "--bijection", "h2", "--inverse", "-"],
                       '{"n_bar":[1,2],"M":[[1,0]]}', monkeypatch)
    assert json.loads(out) == {"M": [[1, 1]], "n_bar": [1, 2]}


def test_map_h2_leftover_at_large_n(capsys, monkeypatch):
    # an h2 leftover at n=40: neither direction may depend on the size of its class
    source = '{"M":[[1,1,0],[1,0,38]],"n_bar":[1,1,38]}'
    code, out, _ = run(capsys, ["map", "--bijection", "h2", "-"], source, monkeypatch)
    assert code == 0 and out == '{"M":[[1,1,0]],"n_bar":[1,2,37]}\n'
    code, back, _ = run(capsys, ["map", "--bijection", "h2", "--inverse", "-"], out, monkeypatch)
    assert code == 0 and back == source + "\n"


def test_map_domain_error(capsys, monkeypatch):
    code, out, err = run(capsys, ["map", "--bijection", "f", "-"],
                         '{"n_bar":[3],"M":[[2]]}', monkeypatch)
    assert code == 1
    assert err.startswith("error:")


def test_enumerate_jsonl(capsys):
    code, out, _ = run(capsys, ["enumerate", "--n", "3", "--t", "2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert json.loads(lines[0]) == {"M": [[2, 0]], "n_bar": [2, 1]}


# sha256 of stdout before role filters moved into the search
FILTERED_STREAMS = {
    "n7-t3-with-semi-vetoer": (
        "--n 7 --t 3 --with semi-vetoer", 98,
        "3d48955c1bbfe9d5626de836c1c29875f797fca0916d1640f9a553202080937c"),
    "n7-t4-without-vetoer": (
        "--n 7 --t 4 --without vetoer", 4501,
        "0ce730aae49ca3a28155118e1ab07a4f851e07616f517040bbc32c6ebb242b1d"),
    "n8-t4-with-vetoer-null": (
        "--n 8 --t 4 --with vetoer --with null", 113,
        "da41ca3a81be9c06d36fc3e967f58ff9e71808d7347ea9064fc714d0b81151c6"),
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("args,lines,digest", FILTERED_STREAMS.values(), ids=FILTERED_STREAMS.keys())
def test_filtered_enumerate_bytes(capsys, args, lines, digest, jobs):
    code, out, _ = run(capsys, ["enumerate", *args.split(), "--jobs", jobs])
    assert code == 0
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the unfiltered stream and its csv table, pinned before enumerate formatted
# its lines directly; perfbench/worker.py pins the same (8,4) stream
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_unfiltered_enumerate_bytes(capsys, jobs):
    code, out, _ = run(capsys, ["enumerate", "--n", "8", "--t", "4", "--jobs", jobs])
    assert code == 0
    assert out.count("\n") == 45483
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "378e22b50040d5d2f0a4ba6d319f3c689ec7a96fb3f5dcbe0680f0ef56cf5b17")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_enumerate_csv_bytes(capsys, jobs):
    code, out, _ = run(capsys, ["enumerate", "--n", "7", "--t", "4", "--format", "csv", "--jobs", jobs])
    assert code == 0
    assert out == (
        "n,t,r,filter,count\n"
        "7,4,1,none,8\n7,4,2,none,819\n7,4,3,none,2540\n"
        "7,4,4,none,1248\n7,4,5,none,148\n7,4,6,none,6\n"
    )


def test_enumerate_with_roles_and_count(capsys):
    code, out, _ = run(
        capsys, ["enumerate", "--n", "3", "--t", "2", "--with", "vetoer", "--count-only"]
    )
    assert code == 0
    assert out.strip() == "3"


def test_enumerate_csv_table(capsys):
    code, out, _ = run(capsys, ["enumerate", "--n", "3", "--t", "2", "--format", "csv"])
    lines = out.strip().splitlines()
    assert lines[0] == "n,t,r,filter,count"
    assert "3,2,1,none,4" in lines
    assert "3,2,2,none,1" in lines


def test_huge_rows_count_nothing(capsys):
    # no antichain has more rows than its box, so the graded counter cuts nothing
    code, out, _ = run(capsys, ["count", "--n", "8", "--t", "4", "--rows", "1000000000"])
    assert code == 0 and out == "0\n"
    code, out, _ = run(capsys, ["enumerate", "--n", "8", "--t", "4", "--rows", "1000000000",
                                "--format", "csv"])
    assert code == 0 and out == "n,t,r,filter,count\n"


def test_count_plain_and_csv(capsys):
    code, out, _ = run(capsys, ["count", "--n", "6", "--t", "3"])
    assert code == 0
    assert out.strip() == "262"
    code, out, _ = run(capsys, ["count", "--n", "6", "--t", "3", "--format", "csv"])
    assert out.splitlines()[1] == "6,3,,none,262"


def test_count_parallel_jobs(capsys):
    code, out, _ = run(capsys, ["count", "--n", "7", "--t", "3", "--jobs", "2"])
    assert out.strip() == "1114"


def test_formula_command(capsys):
    code, out, _ = run(capsys, ["formula", "--family", "cgvn_t4", "--n", "5"])
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, ["formula", "--family", "cgd_nt", "--n", "5", "--t", "2"])
    assert out.strip() == "1"


def test_formula_domain_error(capsys):
    code, out, err = run(capsys, ["formula", "--family", "cgv_t3", "--n", "3"])
    assert code == 1
    assert err.startswith("error:") and "requires n >= 4" in err


# F(k) has about k/4.8 digits, past the default int-to-str limit of 4300 from k = 20578
OVER_DIGIT_LIMIT = {
    "fib-30000": ("fib", "30000"),
    "fib-1e8": ("fib", "100000000"),
    "cg_t2-21000": ("cg_t2", "21000"),
    "cgvn_t4-1e8": ("cgvn_t4", "100000000"),
    "cgvn_t3-1e4000": ("cgvn_t3", "1" + "0" * 4000),
}


@pytest.mark.parametrize("family,n", OVER_DIGIT_LIMIT.values(), ids=OVER_DIGIT_LIMIT.keys())
def test_formula_over_digit_limit_exits_3(capsys, family, n):
    assert_one_error_line(*run(capsys, ["formula", "--family", family, "--n", n]), exit_code=3)


@pytest.mark.parametrize("family,n,digits", [("fib", "20000", 4180), ("cgvn_t3", "100000000", 24)])
def test_formula_under_digit_limit_prints(capsys, family, n, digits):
    code, out, _ = run(capsys, ["formula", "--family", family, "--n", n])
    assert code == 0 and len(out.strip()) == digits


@pytest.mark.parametrize("fmt", ["plain", "csv"])
def test_count_over_digit_limit_exits_3(capsys, fmt):
    # C(20001, 9999), the lone-row count, has about 6,000 digits
    argv = ["count", "--n", "20000", "--t", "5000", "--rows", "1", "--format", fmt]
    assert_one_error_line(*run(capsys, argv), exit_code=3)


def test_usage_error(capsys):
    assert main(["enumerate", "--n", "3"]) == 2
    assert main(["wibble"]) == 2


def test_capacity_abort(capsys):
    # the very first class-size composition already overflows the box cap
    code, out, err = run(capsys, ["count", "--n", "64", "--t", "40"])
    assert code == 3
    assert err.startswith("error:")


# a box of 1001 * 1000 profiles, just over the conversions' cap
BIG_BOX = '{"n_bar":[1000,999],"M":[[1000,0]]}'
# a box of 65 profiles, but C(64, 32) minimal winning coalitions
MANY_COALITIONS = '{"n_bar":[64],"M":[[32]]}'


@pytest.mark.parametrize("command,game", [("expand", BIG_BOX), ("dual", BIG_BOX), ("expand", MANY_COALITIONS)],
                         ids=["expand", "dual", "expand-coalitions"])
def test_conversion_over_box_cap_exits_3(capsys, monkeypatch, command, game):
    assert_one_error_line(*run(capsys, [command, "-"], game, monkeypatch), exit_code=3)


# a billion players, each listed in the role report
MANY_PLAYERS = '{"n_bar":[1000000000],"M":[[1]]}'
# 21 disjoint pairs: the dual's minimal winning coalitions are the 2^21 transversals
DISJOINT_PAIRS = json.dumps({"n": 42, "min_winning": [[i, i + 1] for i in range(1, 42, 2)]})


@pytest.mark.parametrize("command,game", [("classify", MANY_PLAYERS), ("dual", DISJOINT_PAIRS)],
                         ids=["classify-players", "dual-transversals"])
def test_over_player_or_transversal_cap_exits_3(capsys, monkeypatch, command, game):
    assert_one_error_line(*run(capsys, [command, "-"], game, monkeypatch), exit_code=3)


def test_classify_big_box_under_player_cap(capsys, monkeypatch):
    code, out, _ = run(capsys, ["classify", "-"], BIG_BOX, monkeypatch)
    assert code == 0
    data = json.loads(out)
    assert (data["class_sizes"], len(data["per_player"])) == ([1000, 999], 1999)


@pytest.mark.parametrize("rows", [[], ["--rows", "1", "--with", "vetoer"], ["--rows", "2"]],
                         ids=["all-rows", "rows-1", "rows-2"])
def test_count_over_box_cap_exits_3(capsys, rows):
    # the one composition of 31 into 31 parts has a box of 2^31 profiles; a
    # filtered lone row lists its ranges' product
    assert_one_error_line(*run(capsys, ["count", "--n", "31", "--t", "31", *rows]), exit_code=3)


def test_unfiltered_lone_rows_build_no_box(capsys):
    # C(n + 1, 2t − 1) lone-row games: none for 31 classes of 31 players, and
    # C(41, 39) = 820 for 20 classes of 40, from no box and no composition
    for argv, value in ((["--n", "31", "--t", "31"], "0"), (["--n", "40", "--t", "20"], "820")):
        code, out, err = run(capsys, ["count", *argv, "--rows", "1"])
        assert (code, out, err) == (0, value + "\n", ""), argv


def test_enumerate_csv_over_box_cap_exits_3(capsys):
    # the table is counted before its header is printed
    assert_one_error_line(*run(capsys, ["enumerate", "--n", "31", "--t", "31", "--format", "csv"]),
                          exit_code=3)


@pytest.mark.parametrize("argv", [["count", "--n", "40", "--t", "32", "--rows", "2"],
                                  ["enumerate", "--n", "40", "--t", "32", "--format", "csv"]],
                         ids=["count-rows-2", "enumerate-csv"])
def test_row_table_width_over_box_cap_exits_3(capsys, argv):
    # the row table's width comes from the balanced composition's box, so the cap
    # fires before any of the 61,523,748 compositions is listed
    assert_one_error_line(*run(capsys, argv), exit_code=3)


EMPTY_SUITES = {"bijections": "1", "sequences": "-5", "duality": "0", "oracle": "0", "rows": "0"}


@pytest.mark.parametrize("suite,max_n", EMPTY_SUITES.items(), ids=EMPTY_SUITES.keys())
def test_verify_empty_suite_is_usage_error(capsys, suite, max_n):
    assert_one_error_line(*run(capsys, ["verify", "--suite", suite, "--max-n", max_n]), exit_code=2)


# sha256 of `csgames verify` stdout, pinned before the checks moved out of the CLI
VERIFY_SUITES = {
    "rows": ("8", "fd9dc6a6e3c51f06d53ee3cd17caae47b21947ba9fb147d3b67bb7344e89adf6"),
    "oracle": ("4", "e4deba52f3058d7859280fc153f769b8082591183b50222a8d1eba40761752e2"),
    "formulas": ("6", "e364a9ae344c6f7c82b1222aa18daacf2f9c3cb5212daf34b8f1607d7ca5bd1d"),
    "duality": ("4", "00dab7c6c9ae6aed3ac8b4b72b0786ec5de0d3e36e89d8eebab9a8b90e3f83d6"),
    "sequences": ("6", "e4baed36a398a494142a92307c6a123c528cddbfae9ea4ae3ca9aa2af2e28e0e"),
    "bijections": ("4", "0c36151766b69260fdea73516d344030bfa8085f581ea9881a99e54ff79b25e3"),
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("suite", VERIFY_SUITES)
def test_verify_suite_bytes(capsys, suite, jobs):
    max_n, digest = VERIFY_SUITES[suite]
    code, out, _ = run(capsys, ["verify", "--suite", suite, "--max-n", max_n, "--jobs", jobs])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_mismatch_exits_4(capsys, monkeypatch):
    monkeypatch.setitem(refcounts.CG_T3, 5, 51)
    code, out, _ = run(capsys, ["verify", "--suite", "sequences", "--max-n", "6"])
    assert code == 4
    lines = out.splitlines()
    assert {"4,3,6,6,true", "5,3,51,50,false", "6,3,262,262,true"} <= set(lines)
