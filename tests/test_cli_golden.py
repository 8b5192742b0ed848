"""Byte-for-byte output of every CLI command other than ``verify``.

Each case runs in both output formats and is compared with the file
``tests/golden/cli/<case>.<json|txt>``.  The files were written by this
module's ``capture`` before the ``Series``/``LinComb`` fold, so they pin
the output of that code; ``map-phi2-zero`` and ``coproduct-hsym-id`` were
written while ``json.dumps`` still printed every listing, and
``expand-m-empty``, ``expand-f-8-vars`` and ``gamma-chain-6-vars`` before
Gamma was placed from packed P-partitions.  To record a new file after
a deliberate change of output, run ``PYTHONPATH=src python
tests/test_cli_golden.py`` and check that the diff shows only the
intended change.

The help pages, and the usage and error bytes of two parse errors, are
compared with ``tests/golden/help/<case>.txt``; they were written by
argparse before the options were declared in one table, and are the same
on Python 3.10 to 3.13.  The invalid-choice error is not pinned, since
3.13 words it differently.
"""

import contextlib
import hashlib
import io
import os
import sys
from unittest import mock

import pytest

from wqsym.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden", "cli")
POSETS = os.path.join(HERE, "golden", "posets")

CASES = {}
for name, lam, a, b in [
    ("hsym-lam-1", "-1", "1,-2", "2,-1"),
    ("hsym-lam0", "0", "-1,2", "-2,1"),
    ("hsym-lam2over3", "2/3", "-1,-2", "-1,2"),
    ("ssym", "-1", "2,1", "1,2"),
    ("rqsym-m", "-1", "1,e", "e,2"),
    ("rqsym-f", "-1", "1,e", "e,2"),
    ("qsym", "-1", "2,1", "1,1"),
]:
    algebra = name.split("-lam")[0]
    CASES[f"product-{name}"] = ("product", "--algebra", algebra, "--lambda", lam, a, b)
# F products with 103 and 206 terms, captured before the F product went
# through signed permutations
for name, a, b in [("2e3e-e2", "2,e,3,e", "e,2"), ("31-111eee", "3,1", "1,1,1,e,e,e")]:
    CASES[f"product-rqsym-f-{name}"] = ("product", "--algebra", "rqsym-f", a, b)
for name, lam, x in [
    ("hsym-lam-1", "-1", "-2,-1,-3"),
    ("hsym-lam0", "0", "-2,-1,-3"),
    ("hsym-lam2over3", "2/3", "-2,-1,-3"),
    ("ssym", "-1", "3,1,2"),
    ("rqsym-m", "-1", "e,2,e"),
    ("rqsym-f", "-1", "e,2,e"),
    ("qsym", "-1", "1,2,1"),
]:
    algebra = name.split("-lam")[0]
    CASES[f"antipode-{name}"] = ("antipode", "--algebra", algebra, "--lambda", lam, x)
for algebra, x in [("hsym", "-2,3,-1"), ("ssym", "3,1,2"), ("rqsym-m", "e,2,e"),
                   ("rqsym-f", "1,e,1"), ("qsym", "2,1,1")]:
    CASES[f"coproduct-{algebra}"] = ("coproduct", "--algebra", algebra, x)
CASES["coproduct-hsym-id"] = ("coproduct", "--algebra", "hsym", "id")
CASES["convert-f-to-m"] = ("convert", "--from", "f", "--to", "m", "e,1,e,2")
CASES["convert-m-to-f"] = ("convert", "--from", "m", "--to", "f", "e,1,e,2")
for which, x in [("d1", "3,1,4,2"), ("d2", "-3,1,-4,2"), ("phi1M", "1,e"),
                 ("phi1F", "e,2,1"), ("phi2", "-3,1,2,-4")]:
    CASES[f"map-{which}"] = ("map", "--which", which, x)
# a +-+ word: phi2 sends it to 0, the only zero LinComb listing
CASES["map-phi2-zero"] = ("map", "--which", "phi2", "1,-2,3")
CASES["expand-m"] = ("expand", "--basis", "m", "--vars", "4", "e,2,e")
CASES["expand-f"] = ("expand", "--basis", "f", "--vars", "3", "e,1,1,e")
# more parts than variables, so no placement: the empty listing
CASES["expand-m-empty"] = ("expand", "--basis", "m", "--vars", "2", "e,2,e")
# a command of the queries tail: 462 terms from the chain of e,2,2
CASES["expand-f-8-vars"] = ("expand", "--basis", "f", "--vars", "8", "e,2,2")
for poset, k in [("fork", "3"), ("chain", "4"), ("antichain", "2"), ("zero", "2")]:
    CASES[f"gamma-{poset}"] = ("gamma", "--poset", os.path.join(POSETS, f"{poset}.poset"),
                               "--vars", k)
# more variables than labels
CASES["gamma-chain-6-vars"] = ("gamma", "--poset", os.path.join(POSETS, "chain.poset"),
                               "--vars", "6")

FORMATS = {"json": "json", "text": "txt"}

# degree-6 antipodes of the queries tail, too large for a golden file: the
# sha256 of their JSON output, written by the recursion that accumulated
# memoized LinComb products before products were added into each level's
# dict; CI checks the same digests on the command line
HEAVY_ANTIPODES = {
    ("hsym", "-1", "-5,-4,3,-1,-2,-6"):
        "0bb01240928eb87a2122cbff19417be6098abbd695502372adc7f251bd2a18e1",
    ("hsym", "1", "5,-2,6,-4,1,3"):
        "e963588c5d882e32c3637be7fe000d9bc81fc53468b7292fdf340f82c41c96d1",
    ("hsym", "2/3", "2,5,-4,-6,-3,1"):
        "511c739f962ad47e255b9ba3aa037181ed32d76eab15335bcfe7f848e80e6305",
    ("hsym", "0", "-3,-5,-6,1,2,4"):
        "16f5603fcd4eb3b7e1d2e1437f5dc695d7321aca30594f437366b8cf650af2b1",
    ("ssym", "-1", "1,5,3,6,2,4"):
        "751367c4f80a5452504fa7cdcc65e4b7d225b9be22980d1a5d176eaba289538e",
}

HELP = os.path.join(HERE, "golden", "help")
# case: (argv, exit code); help goes to stdout with 0, an error to stderr with 2
HELP_CASES = {"wqsym": (("-h",), 0)}
for name in ("product", "coproduct", "antipode", "convert", "map", "gamma", "expand",
             "verify"):
    HELP_CASES[name] = ((name, "-h"), 0)
HELP_CASES["product-missing-option"] = (("product", "1", "2"), 2)
HELP_CASES["product-extra-argument"] = (("product", "--algebra", "hsym", "1", "2", "3"), 2)


def run_case(argv, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--format", fmt])
    return code, out.getvalue()


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_matches_golden(case, fmt):
    code, out = run_case(CASES[case], fmt)
    assert code == 0
    with open(os.path.join(GOLDEN, f"{case}.{FORMATS[fmt]}")) as fh:
        assert out == fh.read()


def test_heavy_antipodes_match_their_digests():
    for (algebra, lam, x), digest in HEAVY_ANTIPODES.items():
        code, out = run_case(("antipode", "--algebra", algebra, "--lambda", lam, x), "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (algebra, lam, x)


def run_help(argv):
    """The exit code of ``main(argv)``, which argparse ends, and what it
    wrote to stdout and stderr, at a fixed width of 80 columns."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            main(list(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()
    raise AssertionError(f"{argv} did not exit")


@pytest.mark.parametrize("case", sorted(HELP_CASES))
def test_help_and_usage_errors_match_golden(case):
    argv, code = HELP_CASES[case]
    with open(os.path.join(HELP, f"{case}.txt")) as fh:
        text = fh.read()
    assert run_help(argv) == ((code, text, "") if code == 0 else (code, "", text))


def capture():
    os.makedirs(HELP, exist_ok=True)
    for case, (argv, code) in sorted(HELP_CASES.items()):
        got, out, err = run_help(argv)
        if got != code:
            sys.exit(f"{case} exited {got}, not {code}")
        with open(os.path.join(HELP, f"{case}.txt"), "w") as fh:
            fh.write(out or err)
    os.makedirs(GOLDEN, exist_ok=True)
    for case, argv in sorted(CASES.items()):
        for fmt, ext in FORMATS.items():
            code, out = run_case(argv, fmt)
            if code:
                sys.exit(f"{case} --format {fmt} exited {code}")
            with open(os.path.join(GOLDEN, f"{case}.{ext}"), "w") as fh:
                fh.write(out)


if __name__ == "__main__":
    capture()
