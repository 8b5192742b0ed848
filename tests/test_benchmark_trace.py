"""The traced benchmark passes, at smoke sizes.

``perfbench/run.py --trace 1`` wraps each context's coproduct once the
context is built.  The graded antipode reads the coproduct off its context
at call time, so every coproduct of its recursion (the queries workload's
hsym and ssym antipodes) goes through that wrapper; the morphism suite
takes the hsym coproduct as the plain ``standard_splits``, so it runs the
same work traced or not.  The full benchmark tests (``python -m pytest
perfbench``) take too long for tier-1, so this runs the three traced passes
that read the contexts at smoke sizes.
"""
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["hopf-hsym", "morphisms", "queries"])
def test_traced_smoke_pass_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--smoke", "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
