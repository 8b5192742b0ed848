"""Smoke tests of the benchmark, at tiny sizes:

    python3 -m pytest perfbench
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)
with open(os.path.join(HERE, "expected.json")) as fh:
    EXPECTED = json.load(fh)


def bench(*args):
    proc = subprocess.run(
        [sys.executable, RUN, "--smoke", "--seed", "3", "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    rc, result, out = bench("--workload", workload, "--trace", str(trace))
    assert rc == 0 and result["correct"], out
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end" if trace == 0 else "per_layer"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want


def _alter_law_count(expected):
    laws = expected["smoke"]["morphisms"]["laws"]
    laws[next(iter(laws))] += 1
    return "morphisms", "checked counts"


def _alter_golden_digest(expected):
    expected["smoke"]["queries"]["golden_digest"] = "0" * 64
    return "queries", "golden digest"


@pytest.mark.parametrize("alter", [_alter_law_count, _alter_golden_digest])
def test_gate_trips_on_altered_expectation(tmp_path, alter):
    expected = json.loads(json.dumps(EXPECTED))
    workload, message = alter(expected)
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    rc, result, out = bench("--workload", workload, "--expected", str(path))
    assert rc == 1 and not result["correct"]
    assert f"# FAILED: {message}" in out


def _corrupt(text):
    """The output with the first coefficient doubled."""
    obj = json.loads(text)
    term = obj["terms"][0]
    term["coeff"] = str(2 * Fraction(term["coeff"]))
    return json.dumps(obj)


def test_oracles_reject_a_wrong_output(tmp_path):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import queries
    from wqsym import cli

    stream = queries.make_stream(random.Random(5), str(tmp_path))
    seen = set()
    for q in stream:
        if q.kind not in queries.ORACLES or q.kind in seen:
            continue
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(q.argv)
        text = out.getvalue()
        if not json.loads(text)["terms"]:
            continue
        assert queries.check(q, rc, text), q.argv
        assert not queries.check(q, rc, _corrupt(text)), q.argv
        assert not queries.check(q, 2, text), q.argv
        seen.add(q.kind)
    assert seen == set(queries.ORACLES)
