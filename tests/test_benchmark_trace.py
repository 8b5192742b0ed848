"""The traced benchmark passes that read the contexts' coproducts.

``perfbench/run.py --trace 1`` wraps each context's coproduct, and the
morphism suite reads the plain function under its memo off
``__wrapped__``.  The full benchmark tests (``python -m pytest perfbench``)
take too long for tier-1, so this runs the two traced passes that depend on
that contract at smoke sizes.
"""
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["hopf-hsym", "morphisms"])
def test_traced_smoke_pass_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--smoke", "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
