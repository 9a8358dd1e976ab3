"""One pass of one benchmark section, in a fresh interpreter.

    python3 perfbench/worker.py --section count|filtered|convert --seed N [--trace]

Every CLI invocation of csgames starts cold (empty ``_prepare`` and
``_h2_tables`` caches), so each pass runs in its own process.  The pass
prints one JSON object on stdout: set-up time (import plus input generation),
the timed section's wall and CPU time, the peak resident set, one
``[label, correct, ms]`` entry per operation, and, with ``--trace``, the
spans and work counters of the section.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import csgames  # noqa: E402

if not os.path.abspath(csgames.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"csgames imported from {csgames.__file__}, not from {SRC}")

from csgames import cli, formulas, refcounts  # noqa: E402
from csgames.core import type_partition  # noqa: E402
from csgames.enumeration import EnumSpec, _prepare, compositions, count_games, raw_pairs  # noqa: E402
from csgames.invariants import Invariants, expand, extract  # noqa: E402
from csgames.roles import Role, role_present_raw, structural_roles  # noqa: E402
from csgames.transforms import Bijection, apply_bijection, dual, dual_invariants  # noqa: E402

from spans import NullTracer, Tracer  # noqa: E402

# The `csgames enumerate --n 8 --t 4` stream as it stood when the benchmark
# was defined.  Any change to its bytes is counted as a failed operation.
STREAM_ARGV = ["enumerate", "--n", "8", "--t", "4"]
STREAM_LINES = 45483
STREAM_SHA256 = "378e22b50040d5d2f0a4ba6d319f3c689ec7a96fb3f5dcbe0680f0ef56cf5b17"

# Stream positions of the 35 games on which bijection h2 cannot use its column
# surgery and builds its pairing tables (about 3 s, once per process).  A
# uniform sample would include one in only ~4 runs of 5, so every sample
# draws exactly one of them and the cost shows in every run.
H2_TABLE_LINES = (
    30, 258, 1120, 1123, 1417, 2285, 4926, 4929, 6763, 12082, 12085, 12104,
    12734, 12795, 14693, 17146, 18161, 18164, 19614, 24058, 24061, 24092,
    25505, 25595, 30272, 37782, 37785, 37799, 37842, 38157, 38206, 38424,
    39705, 40103, 42815,
)

# p99 of the per-game latency then has 15 samples beyond it.
GAME_SAMPLE = 1500

# Chunk of the stream that one span covers in traced passes.
CHUNK = 4096

V, N, P = Role.VETOER, Role.NULL, Role.PASSER
SV, SP = Role.SEMI_VETOER, Role.SEMI_PASSER

# Roles a game needs before a bijection applies, and the least class count.
BIJECTION_DOMAINS = {
    Bijection.VETO_TO_NULL: ({V}, 2),
    Bijection.PASSER_TO_NULL: ({P}, 2),
    Bijection.VETO_TO_SEMI_VETO: ({V}, 1),
    Bijection.PASSER_TO_SEMI_PASSER: ({P}, 1),
    Bijection.SEMI_VETO_TO_NULL: ({V, SV}, 2),
}


def count_cells():
    """(label, specs, expected) for the unfiltered counts; value = sum over specs."""
    return [
        ("CG(10,4)", [EnumSpec(10, 4)], refcounts.CG_LARGE[(10, 4)]),
        ("CG(13,3)", [EnumSpec(13, 3)], refcounts.CG_T3[13]),
        ("sum_t CG(12,t,rows=1)", [EnumSpec(12, t, rows=1) for t in range(1, 13)], 2**12 - 1),
        ("CG(12,2)", [EnumSpec(12, 2)], formulas.evaluate(formulas.Family.CG_T2, 12)),
    ]


def filtered_cells():
    """Role-filtered counts; expected values encode the bijection equalities.

    h and k make +vetoer, +semi-vetoer and +semi-passer equinumerous, so all
    three expect CGV_T3[10]; -semi-vetoer is the rest of CG(10,3); h2 makes
    +vetoer+semi-vetoer equal to +vetoer+null, given by its closed form.
    """
    cg_v = refcounts.CGV_T3[10]
    return [
        ("CG(10,3)+vetoer", [EnumSpec(10, 3, require={V})], cg_v),
        ("CG(10,3)+semi-vetoer", [EnumSpec(10, 3, require={SV})], cg_v),
        ("CG(10,3)+semi-passer", [EnumSpec(10, 3, require={SP})], cg_v),
        ("CG(10,3)-semi-vetoer", [EnumSpec(10, 3, forbid={SV})], refcounts.CG_T3[10] - cg_v),
        ("CG(10,3)+vetoer+semi-vetoer", [EnumSpec(10, 3, require={V, SV})],
         formulas.evaluate(formulas.Family.CGVN_T3, 10)),
        ("CG(9,4)+vetoer+null", [EnumSpec(9, 4, require={V, N})], refcounts.CGVN_T4[9]),
    ]


def game_sample(seed: int) -> list[int]:
    """Sorted stream positions: one h2 table game plus a uniform draw of the rest."""
    rng = random.Random(seed)
    pinned = rng.choice(H2_TABLE_LINES)
    rest = rng.sample(range(STREAM_LINES - 1), GAME_SAMPLE - 1)
    return sorted([pinned] + [i + (i >= pinned) for i in rest])


def timed_op(ops, label, fn):
    """Run one operation; a wrong value and an exception both count as failed."""
    t = time.perf_counter()
    try:
        ok = bool(fn())
        error = None
    except Exception as exc:  # one broken operation must not end the pass
        ok = False
        error = f"{type(exc).__name__}: {exc}"
    ops.append([label, ok, (time.perf_counter() - t) * 1e3] + ([error] if error else []))
    return ok


def prepare_all(tr, n, t, prepared):
    """Build the per-composition tables inside their own spans."""
    for comp in compositions(n, t):
        with tr.span("enumeration.prepare"):
            prep = _prepare(comp)
        if comp not in prepared:
            prepared.add(comp)
            tr.count("enumeration.prepare_rows", len(prep.rows))


def count_traced(tr, specs, prepared):
    total = 0
    for spec in specs:
        if spec.rows == 1:
            with tr.span("enumeration.single_row"):
                total += count_games(spec, jobs=1)
            continue
        prepare_all(tr, spec.n, spec.t, prepared)
        with tr.span("enumeration.count"):
            total += count_games(spec, jobs=1)
    return total


def filtered_traced(tr, spec, prepared):
    """The filtered count as stream plus predicate, in alternating chunk spans.

    Roles are tested in the order ``enumeration._passes_filters`` uses (the
    spec's frozensets), so the predicate calls match the library's.
    """
    prepare_all(tr, spec.n, spec.t, prepared)
    stream = raw_pairs(EnumSpec(spec.n, spec.t))
    kept = examined = calls = 0
    while True:
        with tr.span("enumeration.stream"):
            chunk = list(itertools.islice(stream, CHUNK))
        if not chunk:
            break
        examined += len(chunk)
        with tr.span("roles.filter"):
            for sizes, matrix in chunk:
                ok = True
                for role in spec.require:
                    calls += 1
                    if not role_present_raw(sizes, matrix, role):
                        ok = False
                        break
                if ok:
                    for role in spec.forbid:
                        calls += 1
                        if role_present_raw(sizes, matrix, role):
                            ok = False
                            break
                kept += ok
    tr.count("enumeration.matrices", examined)
    tr.count("roles.filter_examined", examined)
    tr.count("roles.filter_kept", kept)
    tr.count("roles.filter_calls", calls)
    return kept


def run_cells(cells, tr, traced, ops):
    prepared: set = set()

    def value(specs):
        if not traced:
            return sum(count_games(s, jobs=1) for s in specs)
        with tr.span("bench.cell"):
            if specs[0].filtered:
                return filtered_traced(tr, specs[0], prepared)
            return count_traced(tr, specs, prepared)

    for label, specs, expected in cells:
        timed_op(ops, label, lambda: value(specs) == expected)


def stream_untraced() -> str:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        code = cli.main(STREAM_ARGV)
    if code != 0:
        raise RuntimeError(f"csgames {' '.join(STREAM_ARGV)} exited {code}")
    return sink.getvalue()


def stream_traced(tr) -> str:
    """What `csgames enumerate` does, split into enumeration, validation and dump spans."""
    prepare_all(tr, 8, 4, set())
    pairs = raw_pairs(EnumSpec(8, 4))
    sink = io.StringIO()
    while True:
        with tr.span("enumeration.stream"):
            chunk = list(itertools.islice(pairs, CHUNK))
        if not chunk:
            break
        tr.count("enumeration.matrices", len(chunk))
        with tr.span("invariants.validate"):
            games = [Invariants(sizes, matrix) for sizes, matrix in chunk]
        with tr.span("cli.dump"):
            for inv in games:
                print(cli._dump(inv.to_json_dict()), file=sink)
    return sink.getvalue()


def applicable_bijections(present, t):
    for bij, (need, min_t) in BIJECTION_DOMAINS.items():
        if need <= present and t >= min_t:
            yield bij
    if V in present and (N in present or SV in present):
        yield Bijection.DUAL_SWAP


def game_pipeline(line: str, tr) -> bool:
    """Conversions, duality, roles and bijections on one streamed game, all checked."""
    with tr.span("bench.game"):
        with tr.span("invariants.validate"):
            inv = Invariants.from_json_dict(json.loads(line))
        with tr.span("invariants.expand"):
            game = expand(inv)
        tr.count("invariants.min_winning", len(game.min_winning))
        with tr.span("core.type_partition"):
            ok = type_partition(game).sizes == inv.n_bar
        with tr.span("invariants.extract"):
            ok &= extract(game) == inv
        with tr.span("transforms.dual_invariants"):
            dual_inv = dual_invariants(inv)
            ok &= dual_invariants(dual_inv) == inv
        with tr.span("transforms.dual"):
            dual_game = dual(game)
        with tr.span("invariants.extract"):
            ok &= extract(dual_game) == dual_inv
        tr.count("invariants.box_profiles", 3 * inv.box_size)
        with tr.span("roles.structural"):
            present = structural_roles(inv).present
        for bij in applicable_bijections(present, inv.t):
            with tr.span("transforms.bijection"):
                image = apply_bijection(bij, inv)
                ok &= apply_bijection(bij, image, inverse=True) == inv
            tr.count("transforms.bijection_calls", 2)
        return ok


def run_convert(sample, tr, traced, ops):
    state = {}

    def stream():
        with tr.span("bench.stream"):
            text = stream_traced(tr) if traced else stream_untraced()
        digest = hashlib.sha256(text.encode()).hexdigest()
        state["stream"] = {"lines": text.count("\n"), "sha256": digest}
        state["lines"] = text.split("\n")
        return state["stream"]["lines"] == STREAM_LINES and digest == STREAM_SHA256

    timed_op(ops, "stream", stream)
    lines = state.get("lines", [])
    for index in sample:
        timed_op(ops, f"game {index}", lambda: game_pipeline(lines[index], tr))
    return state.get("stream")


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def pool_speedup(ops) -> dict:
    """CG(10,4) at jobs=1 over jobs=nproc, tables warm in both; outside the timed section."""
    jobs = len(os.sched_getaffinity(0))
    spec, expected = EnumSpec(10, 4), refcounts.CG_LARGE[(10, 4)]
    seconds = {}
    for k in (1, jobs):
        t = time.perf_counter()
        timed_op(ops, f"pool CG(10,4) jobs={k}", lambda: count_games(spec, jobs=k) == expected)
        seconds[k] = time.perf_counter() - t
    return {"jobs": jobs, "jobs1_s": seconds[1], "jobsN_s": seconds[jobs],
            "speedup": seconds[1] / seconds[jobs]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--section", required=True, choices=["count", "filtered", "convert"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    if args.section == "convert":
        sample = game_sample(args.seed)
    else:
        cells = count_cells() if args.section == "count" else filtered_cells()
        random.Random(args.seed).shuffle(cells)
    tr = Tracer(f"{args.section}-{args.seed}-{os.getpid()}") if args.trace else NullTracer()
    setup_s = time.perf_counter() - _T0

    ops: list = []
    stream = None
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    if args.section == "convert":
        stream = run_convert(sample, tr, args.trace, ops)
    else:
        run_cells(cells, tr, args.trace, ops)
    wall_s = time.perf_counter() - t0
    cpu_s = cpu_seconds() - cpu0

    pool = pool_speedup(ops) if args.trace and args.section == "count" else None
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print(json.dumps({
        "section": args.section,
        "seed": args.seed,
        "traced": args.trace,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_kb / 1024,
        "ops": ops,
        "stream": stream,
        "pool": pool,
        "spans": tr.spans,
        "counters": tr.counters,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
