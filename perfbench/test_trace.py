"""Traced passes repeat their work counters exactly for one seed.

    python3 -m pytest perfbench/test_trace.py   (about a minute)
"""

import os
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from spans import Tracer, layer_self_times  # noqa: E402

WORK_COUNTERS = ("_rows", "_calls", ".matrices", ".box_profiles", ".min_winning")


def work_counters(result):
    return {k: v for k, v in result["counters"].items() if k.endswith(WORK_COUNTERS)}


@pytest.mark.parametrize("section", run.WORKLOADS)
def test_two_traced_passes_count_the_same_work(section):
    deadline = time.monotonic() + 170
    first = run.run_pass(section, 7, True, deadline)
    second = run.run_pass(section, 7, True, deadline)
    assert work_counters(first)
    assert work_counters(first) == work_counters(second)
    assert all(op[1] for op in first["ops"] + second["ops"])


def test_self_time_subtracts_children():
    tr = Tracer("t")
    with tr.span("bench.outer"):
        with tr.span("enumeration.inner"):
            time.sleep(0.01)
    inner = tr.spans[1]["end"] - tr.spans[1]["start"]
    outer = tr.spans[0]["end"] - tr.spans[0]["start"]
    selfs = layer_self_times(tr.spans)
    assert selfs["enumeration"] == pytest.approx(inner)
    assert selfs["bench"] == pytest.approx(outer - inner)
    assert tr.spans[1]["parent"] == 0 and tr.spans[0]["parent"] is None
