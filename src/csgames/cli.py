"""Command-line interface for batch use and verification runs.

Exit codes: 0 success, 1 validation or domain error, 2 usage error,
3 capacity abort, 4 verification suite failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from typing import Iterable, Iterator

from . import formulas
from .checks import SUITES
from .core import SimpleGame, WeightedRepresentation, from_weighted
from .enumeration import EnumSpec, count_games, count_rows, enumerate_invariants
from .errors import CapacityError, GameError
from .invariants import Invariants, expand, extract
from .roles import Role, semantic_roles, structural_roles
from .transforms import Bijection, apply_bijection, dual, dual_invariants

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_VERIFY = 4


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class _Joined(dict):
    """Comma-joined text of int tuples, each joined once."""

    def __missing__(self, ints: tuple[int, ...]) -> str:
        text = self[ints] = ",".join(map(str, ints))
        return text


def _invariants_lines(invs: Iterable[Invariants]) -> Iterator[str]:
    """``_dump(inv.to_json_dict())`` of each pair, formatted directly: compact, keys sorted.

    Each distinct row and n_bar is joined once.  There are no more of them
    than the candidate rows of the boxes, which the enumerator holds anyway.
    """
    text = _Joined()
    for inv in invs:
        rows = "],[".join([text[row] for row in inv.matrix])
        yield f'{{"M":[[{rows}]],"n_bar":[{text[inv.n_bar]}]}}'


def _read_json(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as f:
                text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise GameError(f"cannot read input: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameError(f"malformed JSON input: {exc}") from exc


def _load_any(data):
    """Game, invariants, or weighted JSON, by key shape."""
    if not isinstance(data, dict):
        raise GameError("input must be a JSON object")
    if "min_winning" in data:
        return SimpleGame.from_json_dict(data)
    if "M" in data or "n_bar" in data:
        return Invariants.from_json_dict(data)
    if "quota" in data:
        return from_weighted(WeightedRepresentation.from_json_dict(data))
    raise GameError("input is neither a game, invariants, nor a weighted representation")


def _as_game(obj) -> SimpleGame:
    return expand(obj) if isinstance(obj, Invariants) else obj


def _cmd_validate(args) -> int:
    data = _read_json(args.input)
    inv = Invariants.from_json_dict(data)
    print(_dump(inv.to_json_dict()))
    return EXIT_OK


def _cmd_expand(args) -> int:
    inv = Invariants.from_json_dict(_read_json(args.input))
    print(_dump(expand(inv).to_json_dict()))
    return EXIT_OK


def _cmd_extract(args) -> int:
    game = _as_game(_load_any(_read_json(args.input)))
    print(_dump(extract(game).to_json_dict()))
    return EXIT_OK


def _cmd_classify(args) -> int:
    obj = _load_any(_read_json(args.input))
    report = structural_roles(obj) if isinstance(obj, Invariants) else semantic_roles(obj)
    print(_dump(report.to_json_dict()))
    return EXIT_OK


def _cmd_dual(args) -> int:
    obj = _load_any(_read_json(args.input))
    if isinstance(obj, Invariants):
        print(_dump(dual_invariants(obj).to_json_dict()))
    else:
        print(_dump(dual(obj).to_json_dict()))
    return EXIT_OK


def _cmd_map(args) -> int:
    inv = Invariants.from_json_dict(_read_json(args.input))
    out = apply_bijection(Bijection.from_name(args.bijection), inv, inverse=args.inverse)
    print(_dump(out.to_json_dict()))
    return EXIT_OK


def _roles_from(names) -> frozenset[Role]:
    return frozenset(Role.from_name(name) for name in names or ())


def _spec(args) -> EnumSpec:
    return EnumSpec(
        n=args.n,
        t=args.t,
        rows=args.rows,
        require=_roles_from(args.require),
        forbid=_roles_from(args.forbid),
    )


def _cmd_enumerate(args) -> int:
    spec = _spec(args)
    if args.count_only:
        print(count_games(spec, jobs=args.jobs))
        return EXIT_OK
    if args.format == "csv":
        by_rows, filt = count_rows(spec, jobs=args.jobs), _filter_label(spec)
        print("n,t,r,filter,count")
        for r, games in by_rows.items():
            print(f"{args.n},{args.t},{r},{filt},{games}")
        return EXIT_OK
    for line in _invariants_lines(enumerate_invariants(spec, jobs=args.jobs)):
        print(line)
    return EXIT_OK


def _filter_label(spec: EnumSpec) -> str:
    parts = [f"+{r.value}" for r in sorted(spec.require, key=lambda r: r.value)]
    parts += [f"-{r.value}" for r in sorted(spec.forbid, key=lambda r: r.value)]
    return "".join(parts) or "none"


def _int_text(value: int) -> str:
    """str(value); CapacityError past the int-to-str digit limit."""
    try:
        return str(value)
    except ValueError as exc:  # a closed form in a huge --n
        limit = sys.get_int_max_str_digits()
        raise CapacityError(f"the value has more than {limit} digits, the int-to-str limit") from exc


def _cmd_count(args) -> int:
    spec = _spec(args)
    text = _int_text(count_games(spec, jobs=args.jobs))
    if args.format == "csv":
        print("n,t,r,filter,count")
        print(f"{args.n},{args.t},{args.rows or ''},{_filter_label(spec)},{text}")
    else:
        print(text)
    return EXIT_OK


def _cmd_formula(args) -> int:
    fam = formulas.Family.from_name(args.family)
    print(_int_text(formulas.evaluate(fam, args.n, t=args.t)))
    return EXIT_OK


def _cmd_verify(args) -> int:
    header, suite = SUITES[args.suite]
    rows = suite(args.max_n, args.jobs)
    first = next(rows, None)
    if first is None:
        print(f"error: --max-n {args.max_n} leaves the {args.suite} suite with nothing to check",
              file=sys.stderr)
        return EXIT_USAGE
    print(header)
    failed = False
    for *fields, match in itertools.chain([first], rows):
        print(*fields, "true" if match else "false", sep=",")
        failed = failed or not match
    return EXIT_VERIFY if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csgames",
        description="Represent, classify, transform, enumerate and count complete simple games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", nargs="?", default="-", help="JSON file path, or - for stdin")

    p = sub.add_parser("validate", help="check invariant JSON and echo its canonical form")
    add_input(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("expand", help="invariants JSON to extensional game JSON")
    add_input(p)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("extract", help="game JSON to canonical invariants JSON")
    add_input(p)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("classify", help="report the distinguished roles of a game")
    add_input(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("dual", help="dual game (or dual invariants)")
    add_input(p)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("map", help="apply one of the class bijections to invariants")
    p.add_argument("--bijection", required=True, choices=[b.value for b in Bijection])
    p.add_argument("--inverse", action="store_true")
    add_input(p)
    p.set_defaults(func=_cmd_map)

    role_names = [r.value for r in Role]

    def add_enum_args(p):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--t", type=int, required=True)
        p.add_argument("--rows", type=int, default=None)
        p.add_argument("--with", dest="require", action="append", choices=role_names,
                       metavar="ROLE", help="require a role (repeatable)")
        p.add_argument("--without", dest="forbid", action="append", choices=role_names,
                       metavar="ROLE", help="forbid a role (repeatable)")
        p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("enumerate", help="stream canonical invariants as JSONL")
    add_enum_args(p)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("count", help="count matching games")
    add_enum_args(p)
    p.add_argument("--format", choices=["plain", "csv"], default="plain")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("formula", help="evaluate a closed-form count")
    p.add_argument("--family", required=True, choices=[f.value for f in formulas.Family])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, default=None)
    p.set_defaults(func=_cmd_formula)

    p = sub.add_parser("verify", help="run a verification suite, emitting CSV")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except GameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
