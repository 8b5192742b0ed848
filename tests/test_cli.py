"""Command line behaviour: encodings, determinism, exit codes."""

import argparse
import concurrent.futures
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wqsym import cli, hopf, morphisms, ppartitions
from wqsym.cli import _listing, _Parser, build_parser, main, parse_argv
from wqsym.compositions import (EPS, comp_to_text, eps_runs, refinement_terms,
                                 regularized_compositions)
from wqsym.hopf import ALGEBRAS, context_by_name
from wqsym.laws import Law, run_laws
from wqsym.lincomb import LinComb, lincomb_from_json
from wqsym.ppartitions import Series, expand_f, expand_m
from wqsym.words import text_to_perm
from wqsym.compositions import text_to_comp

from oracles import basis_sort_key_reference, series_one


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_product_hsym_worked_example(capsys):
    code, out, _ = run(
        capsys, "product", "--algebra", "hsym", "--lambda", "-1", "1,-2", "2,-1"
    )
    assert code == 0
    blob = json.loads(out)
    terms = {t["key"]: t["coeff"] for t in blob["terms"]}
    assert terms == {
        "1,3,-2": "-1",
        "3,1,-2": "-1",
        "1,-2,4,-3": "1",
        "1,4,-3,-2": "1",
        "1,4,-2,-3": "1",
        "4,-3,1,-2": "1",
        "4,1,-3,-2": "1",
        "4,1,-2,-3": "1",
    }


def test_map_phi2_example(capsys):
    code, out, _ = run(capsys, "map", "--which", "phi2", "-3,1,2,-4")
    assert code == 0
    assert json.loads(out) == {"terms": [{"coeff": "-1", "key": "1,2"}]}


@pytest.mark.parametrize("which, key, bad", [
    ("d1", "2,3,1", "1,1"), ("d2", "-1,2", "1,0"), ("phi2", "-3,1,2,-4", "1,x"),
    ("phi1M", "1,e", "1,0"), ("phi1F", "e,2", "x")])
def test_map_builds_only_the_target_context(capsys, monkeypatch, which, key, bad):
    """map reads its input with the key reader of the source algebra and
    builds one context, the target's, to print the result; a bad key gets
    the error the source's context gives."""
    source, fn, target = {"d1": ("hsym", "d1", "rqsym-f"), "d2": ("hsym", "d2", "rqsym-f"),
                          "phi2": ("hsym", "phi2", "ssym"), "phi1M": ("rqsym-m", "phi1_m", "qsym"),
                          "phi1F": ("rqsym-f", "phi1_f", "rqsym-f")}[which]
    out = context_by_name(target)
    want = _listing(getattr(morphisms, fn)(context_by_name(source).parse_key(key)), out.key_text)
    with pytest.raises(ValueError) as refused:
        context_by_name(source).parse_key(bad)
    built = []
    monkeypatch.setattr(cli.hopf, "context_by_name",
                        lambda *args: built.append(args) or context_by_name(*args))
    assert run(capsys, "map", "--which", which, key) == (0, want + "\n", "")
    assert built == [(target,)]
    assert run(capsys, "map", "--which", which, bad) == (2, "", f"error: {refused.value}\n")


def test_verify_square_summary(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "square", "--max-degree", "3", "--format", "text"
    )
    assert code == 0
    assert "0 mismatches / 59 checks" in out


def test_product_output_reparses(capsys):
    code, out, _ = run(
        capsys, "product", "--algebra", "rqsym-f", "1,e", "1,e"
    )
    assert code == 0
    lc = lincomb_from_json(json.loads(out), text_to_comp)
    from wqsym.hopf import rqsym_product_f

    assert lc == rqsym_product_f(text_to_comp("1,e"), text_to_comp("1,e"))


def test_output_is_deterministic(capsys):
    args = ("product", "--algebra", "hsym", "--lambda", "2/3", "1,-2", "-1")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_coproduct_and_antipode(capsys):
    code, out, _ = run(capsys, "coproduct", "--algebra", "rqsym-m", "1,e")
    assert code == 0
    blob = json.loads(out)
    assert {tuple(t["key"]) for t in blob["terms"]} == {
        ("empty", "1,e"),
        ("1", "e"),
        ("1,e", "empty"),
    }
    code, out, _ = run(capsys, "antipode", "--algebra", "rqsym-m", "e")
    assert json.loads(out) == {"terms": [{"coeff": "-1", "key": "e"}]}
    code, out, _ = run(capsys, "antipode", "--algebra", "hsym", "2,1")
    assert code == 0
    lc = lincomb_from_json(json.loads(out), text_to_perm)
    from wqsym.hopf import context_by_name

    assert lc == context_by_name("hsym", -1).antipode((2, 1))


def test_convert_round_trip(capsys):
    code, out, _ = run(capsys, "convert", "--from", "f", "--to", "m", "2")
    assert code == 0
    assert {t["key"] for t in json.loads(out)["terms"]} == {"2", "1,1"}
    code, out, _ = run(capsys, "convert", "--from", "m", "--to", "f", "2")
    assert code == 0
    code, _, err = run(capsys, "convert", "--from", "f", "--to", "f", "2")
    assert code == 2


def test_expand_command(capsys):
    code, out, _ = run(capsys, "expand", "--basis", "m", "--vars", "2", "1,e")
    assert code == 0
    blob = json.loads(out)
    assert blob == {"k": 2, "terms": [{"coeff": "1", "exps": ["1", "e"]}]}


def test_expand_f_of_a_long_composition(capsys):
    code, out, err = run(capsys, "expand", "--basis", "f", "--vars", "1", "3000",
                         "--format", "text")
    assert code == 0 and out.strip() == "1*x1^3000"
    assert "Traceback" not in err


def test_expand_refuses_an_oversized_request(capsys, monkeypatch):
    """Checked by the estimate alone: ``--vars 100 1,1,1,1,1`` is
    C(100, 5) = 75,287,520 terms in either basis, and exits 2 before any
    is computed."""
    def never(alpha, k):
        raise AssertionError("the oversized expansion ran")

    monkeypatch.setattr(ppartitions, "expand_m", never)
    monkeypatch.setattr(ppartitions, "expand_f", never)
    for basis in "mf":
        code, out, err = run(capsys, "expand", "--basis", basis, "--vars", "100", "1,1,1,1,1")
        assert (code, out) == (2, "")
        assert err == "error: expand would write more than 100000 entries\n"
        assert ppartitions.expansion_size((1,) * 5, 100, basis, math.inf) == math.comb(100, 5)


@pytest.mark.parametrize("basis, vars_, alpha, why", [
    ("f", "1", "1000000", "one term, but a chain of 10^6 letters"),
    ("m", "1000000", "empty", "one term of 10^6 exponents"),
    ("f", "2", ",".join("e" * 400), "401 P-partitions of 400 letters each"),
    ("f", "1", ",".join(["1"] * 100001), "no P-partition, but 100,001 letters"),
])
def test_expand_bounds_the_entries_not_only_the_terms(capsys, monkeypatch, basis, vars_,
                                                      alpha, why):
    """Few terms but wide ones are refused too, by the count alone: the
    expansions are patched to fail, and the composition is never turned
    into a word."""
    def never(*args):
        raise AssertionError("the oversized expansion ran")

    for name in ("expand_m", "expand_f", "wcomp_preimage"):
        monkeypatch.setattr(ppartitions, name, never)
    code, out, err = run(capsys, "expand", "--basis", basis, "--vars", vars_, alpha)
    assert (code, out) == (2, ""), why
    assert err == "error: expand would write more than 100000 entries\n"


def test_gamma_command(tmp_path, capsys):
    poset = tmp_path / "fork.poset"
    poset.write_text("-4 < 2\n2 < -1\n2 < -3\n")
    code, out, _ = run(capsys, "gamma", "--poset", str(poset), "--vars", "2")
    assert code == 0
    blob = json.loads(out)
    assert blob["terms"] == [{"coeff": "1", "exps": ["1", "e"]}]
    code, _, err = run(capsys, "gamma", "--poset", str(tmp_path / "nope"), "--vars", "2")
    assert code == 2 and "cannot read" in err


def test_gamma_refuses_an_oversized_request(tmp_path, capsys, monkeypatch):
    """Three labels in 10^5 variables: counted from the packed counts, and
    refused before any term is placed."""
    def never(counts, k):
        raise AssertionError("the oversized series was placed")

    monkeypatch.setattr(ppartitions, "_place", never)
    poset = tmp_path / "small.poset"
    poset.write_text("1 < 2\n-3\n")
    code, out, err = run(capsys, "gamma", "--poset", str(poset), "--vars", "100000")
    assert (code, out) == (2, "")
    assert err == "error: gamma would write more than 100000 entries\n"


def test_gamma_bounds_the_walk_before_walking(tmp_path, capsys, monkeypatch):
    """Checked by the estimate alone: an antichain of 20 labels in 3
    variables bounds its walk by 3^20 and exits 2 before any packed
    P-partition is walked; one of 12 labels, 3^12, is admitted."""
    def never(poset, cap):
        raise AssertionError("the oversized walk ran")

    monkeypatch.setattr(ppartitions, "_exponent_counts", never)
    text = lambda n: "\n".join(["1"] + [str(-i) for i in range(2, n + 1)]) + "\n"
    antichain = lambda n: ppartitions.parse_poset(text(n))
    poset = tmp_path / "antichain.poset"
    poset.write_text(text(20))
    code, out, err = run(capsys, "gamma", "--poset", str(poset), "--vars", "3")
    assert (code, out) == (2, "")
    assert err == "error: gamma would walk more than 1000000 packed P-partitions\n"
    assert ppartitions.walk_size(antichain(20), 3, math.inf) == 3**20
    assert ppartitions.walk_size(antichain(12), 3, math.inf) == 3**12 <= cli.GAMMA_MAX_WALK


def test_walk_size_bounds_the_packed_walk():
    """On random posets, chains and antichains, the bound is at least the
    packed P-partitions with at most min(k, |P|) values, both the l^|P| maps
    and, with a cap below them, the chain cover; on a chain of 3000 labels
    in 2 variables the cover gives the 3001 maps into [2]."""
    rng = random.Random(30)
    posets = [ppartitions.random_poset(rng, 7) for _ in range(150)]
    posets += [ppartitions.chain_poset(w) for w in [(1, -2, 3), (-1, -2, -3, 4), (3, 2, 1, -4)]]
    posets += [ppartitions.Poset(w) for w in [(1, -2, 3), (-1, -2, -3, 4)]]
    for poset in posets:
        for k in (1, 2, 3, 5):
            l = min(k, len(poset))
            walked = sum(ppartitions._exponent_counts(poset, l).values())
            assert walked <= ppartitions.walk_size(poset, k, math.inf) == l ** len(poset)
            assert walked <= ppartitions.walk_size(poset, k, l ** len(poset) - 1), (poset, k)
    chain = ppartitions.chain_poset(tuple(range(1, 3001)))
    assert ppartitions.walk_size(chain, 2, 10**6) == 3001


def estimate(command, *argv):
    """The estimate that the row of ``command`` makes of the plain line
    ``command *argv``, read by ``parse_argv``."""
    estimate, limit, _ = cli.COMMANDS[command][4]
    return estimate(parse_argv([command, *argv]), limit)


def output_size(algebra, lam, *texts):
    """The bound of ``product`` on two keys, of ``antipode`` on one."""
    command = "product" if len(texts) == 2 else "antipode"
    return estimate(command, "--algebra", algebra, "--lambda", lam, *texts)


@pytest.mark.parametrize("argv", [
    ("product", "--algebra", "hsym", "-1,-2,-3,-4,-5,-6,-7,-8,-9,-10", "-1,-2,-3,-4,-5,-6,-7,-8,-9,-10"),
    ("product", "--algebra", "ssym", ",".join(map(str, range(1, 14))), "1,2,3,4,5,6,7,8,9,10,11,12,13"),
    ("product", "--algebra", "rqsym-m", ",".join(["1"] * 12), ",".join(["e"] * 12)),
    ("antipode", "--algebra", "hsym", "1,-2,3,-4,5,-6,7,-8,-9"),
    ("antipode", "--algebra", "ssym", "1,2,3,4,5,6,7,8,9,10,11"),
    ("antipode", "--algebra", "rqsym-m", ",".join(["1"] * 30)),
    ("antipode", "--algebra", "rqsym-f", "17"),
    ("antipode", "--algebra", "rqsym-f", "16"),
    ("antipode", "--algebra", "rqsym-f", "15"),
])
def test_product_and_antipode_refuse_an_oversized_request(capsys, monkeypatch, argv):
    """Checked by the estimate alone: each exits 2 before the context
    computes anything."""
    def never(*args):
        raise AssertionError("the oversized operation ran")

    def context(*args):
        ctx = context_by_name(*args)
        ctx.product = ctx.antipode = ctx.graded_antipode = ctx.closed_antipode = never
        return ctx

    monkeypatch.setattr(cli.hopf, "context_by_name", context)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {argv[0]} would write more than 100000000 entries\n"


def test_output_size_calibration_and_bound():
    """hsym -1,...,-9 times itself, 4.4 s at n = 9, is admitted and n = 10
    refused; the bound is at least the entries written, on every antipode
    and a seeded sample of products of degree <= 4 in every algebra."""
    limit = cli.OPERATION_MAX_ENTRIES
    neg = lambda n: ",".join(str(-i) for i in range(1, n + 1))
    assert output_size("hsym", "-1", neg(9), neg(9)) <= limit < output_size(
        "hsym", "-1", neg(10), neg(10))
    rng = random.Random(30)
    for algebra in ALGEBRAS:
        for lam in ("-1", "0", "2/3") if algebra == "hsym" else ("-1",):
            ctx = context_by_name(algebra, lam)
            size = len if algebra in ("rqsym-m", "qsym") else ctx.degree  # parts of an M key
            keys = [x for d in range(5) for x in ctx.basis(d)]
            for x in keys:
                assert len(ctx.antipode(x)) * size(x) <= output_size(algebra, lam, ctx.key_text(x))
            for x, y in ((rng.choice(keys), rng.choice(keys)) for _ in range(60)):
                assert len(ctx.product(x, y)) * (size(x) + size(y)) <= output_size(
                    algebra, lam, ctx.key_text(x), ctx.key_text(y)), (x, y)


def test_convert_and_coproduct_bounds_count_their_terms():
    """The convert bound is the terms that ``refinement_terms`` lists times
    the weight, and the coproduct bound the terms of the coproduct times
    len + 1, on every key of degree <= 5; both are at least the entries
    written.  F -> M of the one part 18 is admitted and of 19 refused; the
    rqsym-f coproduct of the one part 99,999 is admitted and of 10^5
    refused."""
    entries = lambda lc, size: sum(size(k) for k in lc.terms)
    for w in range(6):
        for alpha in regularized_compositions(w):
            for frm, to, fn in (("f", "m", hopf.f_to_m), ("m", "f", hopf.m_to_f)):
                got = estimate("convert", "--from", frm, "--to", to, comp_to_text(alpha))
                assert got == len(refinement_terms(alpha)) * w >= entries(fn(alpha), len), alpha
    for algebra in ALGEBRAS:
        ctx = context_by_name(algebra)
        for x in (x for d in range(6) for x in ctx.basis(d)):
            got = estimate("coproduct", "--algebra", algebra, ctx.key_text(x))
            coproduct = ctx.coproduct(x)
            assert got == len(coproduct) * (len(x) + 1), (algebra, x)
            assert got >= entries(coproduct, lambda kk: len(kk[0]) + len(kk[1]))
    assert estimate("convert", "--from", "f", "--to", "m", "18") <= cli.CONVERT_MAX_ENTRIES \
        < estimate("convert", "--from", "f", "--to", "m", "19")
    assert estimate("coproduct", "--algebra", "rqsym-f", "99999") <= cli.COPRODUCT_MAX_ENTRIES \
        < estimate("coproduct", "--algebra", "rqsym-f", "100000")


def _walk_bounds(alpha):
    """The bounds that the proof in ``cli._output_size`` gives the three
    walks of the rqsym-f antipode of ``alpha`` (F -> M, the monomial
    antipode, M -> F), each a product of one factor per gap of the units of
    ``alpha``, at most 3^(1 + i) for an inner gap with i e's and 3^i for an
    end; for e^E alone, E, 2^E - 1 and T(E - 1)."""
    tri = lambda i: (i + 1) * (i + 2) // 2
    runs, parts = eps_runs(alpha)
    if not parts:
        return runs[0], 2 ** runs[0] - 1, tri(runs[0] - 1)
    inside, cuts, ends = sum(parts) - len(parts), runs[1:-1], (runs[0], runs[-1])
    return (2 ** inside * math.prod(i + 1 for i in (*cuts, *ends)),
            3 ** inside * math.prod(2 ** (i + 2) - 2 for i in cuts)
            * math.prod(2 ** (i + 1) - 1 for i in ends),
            3 ** inside * math.prod(2 + tri(i) for i in cuts) * math.prod(map(tri, ends)))


def test_rqsym_f_antipode_bound_counts_the_monomial_walk(monkeypatch):
    """The closed rqsym-f antipode walks F -> M, the monomial antipode and
    M -> F.  On every key of weight w <= 7 each walk lists at most the terms
    that ``_walk_bounds`` gives, at most 3^(w - 1), the last two as many at
    w = 7, and the bound is at least the entries of all three.  Each factor
    of ``_walk_bounds`` keeps to its power of 3 for every run of e's up to
    the weight 14 that the limit admits, so every admitted key keeps to
    3^(w - 1) too.  The part 14 (about 6 s) is admitted and 15 refused."""
    walks = {}

    def counting(name, fn):
        def walk(key):
            lc = fn(key)
            terms, entries = walks.get(name, (0, 0))
            walks[name] = terms + len(lc), entries + sum(map(len, lc.terms))
            return lc
        return walk

    names = ("f_to_m_cached", "rqsym_antipode_m", "m_to_f_cached")
    for name, fn in zip(names, (hopf.f_to_m, hopf.rqsym_antipode_m, hopf.m_to_f)):
        monkeypatch.setattr(hopf, name, counting(name, fn))
    most = {}
    for w in range(8):
        for alpha in regularized_compositions(w):
            walks.clear()
            hopf.rqsym_antipode_f(alpha)
            assert len(walks) == 3 or not alpha
            entries = sum(entries for _, entries in walks.values())
            assert entries <= estimate("antipode", "--algebra", "rqsym-f", comp_to_text(alpha))
            if alpha:
                for name, bound in zip(names, _walk_bounds(alpha)):
                    assert walks[name][0] <= bound <= 3 ** (w - 1), (alpha, name)
            for name, (terms, _) in walks.items():
                most[w, name] = max(most.get((w, name), 0), terms)
    assert all(terms <= 3 ** max(w - 1, 0) for (w, _), terms in most.items())
    assert most[7, "rqsym_antipode_m"] == most[7, "m_to_f_cached"] == 3 ** 6
    tri = lambda i: (i + 1) * (i + 2) // 2
    for i in range(15):
        assert max(2, i + 1, 2 ** (i + 2) - 2, 2 + tri(i)) <= 3 ** (1 + i)
        assert max(i + 1, 2 ** (i + 1) - 1, tri(i)) <= 3 ** i
        assert i == 0 or max(i, 2 ** i - 1, tri(i - 1)) <= 3 ** (i - 1)
    assert estimate("antipode", "--algebra", "rqsym-f", "14") <= cli.OPERATION_MAX_ENTRIES \
        < estimate("antipode", "--algebra", "rqsym-f", "15")


def test_every_command_with_elements_declares_a_bound(tmp_path, capsys, monkeypatch):
    """Every command that takes elements declares a bound in its row, but
    map, which writes at most its input; every bounded command refuses one
    oversized request by its estimate alone, with its handler and every
    function that would do its work patched to fail, and a malformed one
    by its checks first."""
    poset = tmp_path / "antichain.poset"
    poset.write_text("\n".join(["1"] + [str(-i) for i in range(2, 21)]) + "\n")
    neg = ",".join(str(-i) for i in range(1, 11))
    oversized = {
        "product": (["--algebra", "hsym", neg, neg], "write more than 100000000 entries"),
        "coproduct": (["--algebra", "rqsym-f", "100000000"], "write more than 200000 entries"),
        "antipode": (["--algebra", "rqsym-f", "17"], "write more than 100000000 entries"),
        "convert": (["--from", "f", "--to", "m", "40"], "write more than 3000000 entries"),
        "gamma": (["--poset", str(poset), "--vars", "3"],
                  "walk more than 1000000 packed P-partitions"),
        "expand": (["--basis", "m", "--vars", "100", "1,1,1,1,1"],
                   "write more than 100000 entries"),
    }
    writes_at_most_its_input = {"map"}

    def never(*args):
        raise AssertionError("the oversized request ran")

    for module, names in [
            (hopf, ["shifted_quasi_shuffle", "add_shifted_product", "shifted_shuffle",
                    "star_product", "rqsym_product_f", "standard_splits", "deconcatenation",
                    "rqsym_coproduct_f", "rqsym_antipode_m", "rqsym_antipode_f",
                    "refinement_terms", "f_to_m_cached", "m_to_f_cached"]),
            (ppartitions, ["_exponent_counts", "gamma", "expand_m", "expand_f"])]:
        for name in names:
            monkeypatch.setattr(module, name, never)
    bounded = {name for name, row in cli.COMMANDS.items() if row[4]}
    assert bounded == set(oversized)
    for name, (help_text, options, n_elements, fn, bound) in cli.COMMANDS.items():
        assert not n_elements or name in bounded | writes_at_most_its_input, name
        if bound:
            monkeypatch.setitem(cli.COMMANDS, name, (help_text, options, n_elements, never, bound))
            argv, refusal = oversized[name]
            assert run(capsys, name, *argv) == (2, "", f"error: {name} would {refusal}\n")
    # the checks on the operands come before the count
    assert run(capsys, "product", "--algebra", "hsym", "--lambda", "x", neg, neg) == (
        2, "", "error: bad rational 'x'\n")
    assert run(capsys, "convert", "--from", "m", "--to", "m", "40") == (
        2, "", "error: convert needs --from f --to m or --from m --to f\n")


def test_gamma_on_deep_and_cyclic_posets(tmp_path, capsys):
    chain = tmp_path / "chain.poset"
    chain.write_text("".join(f"{i} < {i + 1}\n" for i in range(1, 3000)))
    code, out, _ = run(capsys, "gamma", "--poset", str(chain), "--vars", "1",
                       "--format", "text")
    assert code == 0 and out.strip() == "1*x1^3000"
    cycle = tmp_path / "cycle.poset"
    cycle.write_text("1 < 2\n2 < -3\n-3 < 1\n")
    code, _, err = run(capsys, "gamma", "--poset", str(cycle), "--vars", "2")
    assert code == 2 and "cycle" in err


def test_gamma_suite_at_degree_zero(capsys):
    """Degree 0 checks the exact laws on the empty permutation and on the
    pairs of combined length at most 1."""
    code, out, _ = run(capsys, "verify", "--suite", "gamma", "--max-degree", "0")
    assert code == 0
    report = json.loads(out)
    assert report["summary"] == {"suite": "gamma", "max_degree": 0, "total": 106,
                                 "failed": 0, "status": "pass"}
    assert all(check["status"] == "pass" for check in report["checks"])


def test_gamma_suite_at_degree_four_for_any_split(capsys):
    args = ("verify", "--suite", "gamma", "--max-degree", "4")
    code, solo, _ = run(capsys, *args, "--jobs", "1")
    assert code == 0
    report = json.loads(solo)
    assert [check["checked"] for check in report["checks"]] == [443, 11161, 50, 50]
    assert all(check["status"] == "pass" for check in report["checks"])
    code, duo, _ = run(capsys, *args, "--jobs", "2")
    assert code == 0 and duo == solo


def test_parse_errors_exit_two(capsys):
    code, _, err = run(capsys, "product", "--algebra", "hsym", "1,1", "2,-1")
    assert code == 2 and "'1,1' is not a signed permutation" in err
    code, _, err = run(capsys, "product", "--algebra", "ssym", "-1", "1")
    assert code == 2 and "'-1' has negative letters" in err
    code, _, err = run(capsys, "product", "--algebra", "qsym", "e", "1")
    assert code == 2 and "'e' has epsilon parts" in err
    code, _, err = run(capsys, "map", "--which", "d1", "-1,2")
    assert code == 2
    code, _, err = run(capsys, "verify", "--suite", "hopf", "--max-degree", "1")
    assert code == 2 and "lambda" in err
    code, _, err = run(capsys, "verify", "--suite", "square", "--max-degree", "-3")
    assert code == 2 and "--max-degree" in err
    code, _, err = run(capsys, "verify", "--suite", "gamma", "--max-degree", "-1")
    assert code == 2 and "--max-degree" in err
    code, _, err = run(capsys, "expand", "--basis", "m", "--vars", "-2", "1,e")
    assert code == 2 and "--vars" in err
    code, _, err = run(capsys, "expand", "--basis", "f", "--vars", "0", "1")
    assert code == 2 and "--vars" in err
    code, _, err = run(capsys, "verify", "--suite", "square", "--jobs", "0")
    assert code == 2 and "--jobs" in err


def test_parse_errors_name_the_input(capsys):
    code, _, err = run(capsys, "product", "--algebra", "hsym", "1,-2", "2,x")
    assert (code, err) == (2, "error: bad letter 'x' at position 2 of '2,x'\n")
    code, _, err = run(capsys, "coproduct", "--algebra", "rqsym-m", "1,0,e")
    assert (code, err) == (2, "error: nonpositive part 0 at position 2 of '1,0,e'\n")
    code, _, err = run(capsys, "map", "--which", "d1", "-1,2")
    assert (code, err) == (2, "error: d1 needs an ordinary permutation, got -1,2\n")


def test_one_parser_serves_successive_calls(capsys):
    """The parser is built once; a value or an error of one call does not
    leak into the next."""
    assert build_parser() is build_parser()
    code, out, _ = run(capsys, "product", "--algebra", "hsym", "--lambda", "2/3",
                       "-1,-2", "-1,2")
    assert code == 0 and '"2/3"' in out
    code, _, err = run(capsys, "verify", "--suite", "hopf", "--max-degree", "1")
    assert code == 2 and "lambda" in err
    with pytest.raises(SystemExit) as exc:
        main(["product", "--algebra", "nope", "1", "1"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    code, out, _ = run(capsys, "product", "--algebra", "ssym", "1", "1")
    assert code == 0 and len(json.loads(out)["terms"]) == 2


def failing_square(max_len, shard=(0, 1)):
    """Stands in for verify_square: 31 of its 63 cases fail.  Module level,
    so that worker processes can import it."""
    law = Law("odd sums", [(a,) for a in range(7)], lambda a, b: (a + b) % 2 == 0,
              str, expand=lambda unit: (unit + (b,) for b in range(9)))
    return run_laws([law], shard)


def test_verification_failure_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(morphisms, "verify_square", failing_square)
    args = ("verify", "--suite", "square", "--max-degree", "1")
    code, solo, _ = run(capsys, *args)
    assert code == 1
    summary = json.loads(solo)["summary"]
    assert summary["status"] == "fail" and summary["failed"] == 31
    code, duo, _ = run(capsys, *args, "--jobs", "2")
    assert code == 1
    assert duo == solo


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize("suite, flags", [
    ("hopf", ("--lambda", "-1", "--max-degree", "2")),
    ("square", ("--max-degree", "3")),
    ("morphisms", ("--max-degree", "2")),
    ("gamma", ("--max-degree", "2")),
])
def test_verify_matches_golden(capsys, suite, flags):
    """The reports match outputs recorded before the law runner existed,
    except that a law with no cases now reports "empty" instead of "pass"."""
    code, out, _ = run(capsys, "verify", "--suite", suite, *flags)
    assert code == 0
    with open(os.path.join(GOLDEN, f"verify_{suite}.json")) as fh:
        golden = fh.read()
    golden = golden.replace('"checked": 0,\n      "status": "pass"',
                            '"checked": 0,\n      "status": "empty"')
    assert out == golden


def test_jobs_do_not_change_output(capsys):
    args = ("verify", "--suite", "square", "--max-degree", "2")
    _, solo, _ = run(capsys, *args, "--jobs", "1")
    _, duo, _ = run(capsys, *args, "--jobs", "2")
    assert solo == duo


@pytest.mark.parametrize("flags", [
    ("--suite", "surjectivity"),
    ("--suite", "hopf", "--algebra", "rqsym-f", "--lambda", "-1"),
    ("--suite", "hopf", "--algebra", "qsym", "--lambda", "-1"),
    ("--suite", "morphisms"),
], ids=["surjectivity", "hopf-rqsym-f", "hopf-qsym", "morphisms"])
def test_more_suites_pass_for_any_split(capsys, flags):
    args = ("verify", *flags, "--max-degree", "2")
    code, solo, _ = run(capsys, *args, "--jobs", "1")
    assert code == 0 and json.loads(solo)["summary"]["status"] == "pass"
    code, duo, _ = run(capsys, *args, "--jobs", "2")
    assert code == 0 and duo == solo


@pytest.mark.parametrize("flags", [
    ("--suite", "square", "--algebra", "hsym"),
    ("--suite", "morphisms", "--algebra", "ssym"),
    ("--suite", "surjectivity", "--algebra", "qsym"),
    ("--suite", "gamma", "--algebra", "rqsym-m"),
    ("--suite", "square", "--lambda", "2/3"),
    ("--suite", "morphisms", "--lambda", "2/3"),
    ("--suite", "surjectivity", "--lambda", "0"),
    ("--suite", "gamma", "--lambda", "1"),
])
def test_verify_refuses_options_the_suite_does_not_read(capsys, flags):
    """A report must not pass a check that was never run: an algebra or a
    weight other than -1 on a suite that reads neither exits 2, before any
    law runs."""
    code, out, err = run(capsys, "verify", *flags, "--max-degree", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and flags[2] in err


@pytest.mark.parametrize("algebra, digest", [
    ("ssym", "350fc4927124531c75282419e867ba23a753b09e43c905928a6f20e88b8b27ff"),
    ("rqsym-m", "68694ebe5e482f96a3d911697aeb7c069820229da2fd9276e180f2981ff907c6"),
    ("rqsym-f", "f71415c1705bf3a619aa20af4fb9ac305e9d6e2f98c6593a19c9e26bb08c4d89"),
    ("qsym", "8d9977268d7c70f174752da6ed4807545920d2e9a7b450b0ebc01a88a2bbca80"),
])
def test_hopf_suite_refuses_a_weight_its_algebra_never_reads(capsys, algebra, digest):
    """Only hsym reads --lambda: on any other algebra a weight but -1 exits
    2 before any law runs, and -1 writes the report it always wrote (sha256
    recorded before the refusal existed)."""
    args = ("verify", "--suite", "hopf", "--algebra", algebra, "--max-degree", "2")
    code, out, err = run(capsys, *args, "--lambda", "5")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and algebra in err and "--lambda" in err
    code, out, _ = run(capsys, *args, "--lambda", "-1")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("text", ["-1", "1_0", " 1 ", "+1", "-0", "4/2", "1e2", "1.5",
                                  "0x1", "2/0", "abc"])
def test_weight_is_read_once_as_fraction_reads_it(capsys, text):
    """``--lambda`` is ``Fraction(text)``, in an hsym product and in the
    verify report; a text that ``Fraction`` refuses exits 2 with the same
    one error line in both commands."""
    product = ("product", "--algebra", "hsym", "--lambda", text, "1,-2", "-1,-2")
    verify = ("verify", "--suite", "hopf", "--algebra", "hsym", "--lambda", text,
              "--max-degree", "1")
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError):
        for argv in (product, verify):
            assert run(capsys, *argv) == (2, "", f"error: bad rational {text!r}\n")
        return
    lam = cli._parse_lambda(text)
    assert lam == want and type(lam) in (int, Fraction)
    code, out, _ = run(capsys, *product)
    assert code == 0 and lincomb_from_json(json.loads(out), text_to_perm) == \
        context_by_name("hsym", want).product((1, -2), (-1, -2))
    code, out, _ = run(capsys, *verify)
    assert code == 0 and json.loads(out)["summary"]["lambda"] == str(want)


def test_weight_with_an_underscore_is_read_by_fraction_alone(capsys, monkeypatch):
    """``int`` reads "1_0" as 10, which ``Fraction`` refuses before Python
    3.11: with a Fraction that refuses "_", as there, "1_0" still exits 2.
    An integer text without "_", as the default "-1", is read as an int."""
    def fraction_refusing_underscores(text, *args):
        if "_" in str(text):
            raise ValueError(f"Invalid literal for Fraction: {text!r}")
        return Fraction(text, *args)

    assert type(cli._parse_lambda("-1")) is int and type(cli._parse_lambda(" +7 ")) is int
    monkeypatch.setattr(cli, "Fraction", fraction_refusing_underscores)
    for argv in (("product", "--algebra", "hsym", "--lambda", "1_0", "1", "1"),
                 ("verify", "--suite", "hopf", "--algebra", "hsym", "--lambda", "1_0")):
        assert run(capsys, *argv) == (2, "", "error: bad rational '1_0'\n")
    assert cli._parse_lambda("4/2") == 2 and cli._parse_lambda("-1") == -1


def test_verify_reads_weight_minus_one_as_the_default(capsys):
    args = ("verify", "--suite", "square", "--max-degree", "2")
    code, plain, _ = run(capsys, *args)
    assert code == 0
    assert run(capsys, *args, "--lambda", "-1") == (0, plain, "")


def test_jobs_capped_at_cpu_count(capsys, monkeypatch):
    """With one CPU, --jobs 8 runs in this process and starts no worker."""
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    args = ("verify", "--suite", "square", "--max-degree", "2")
    code, capped, _ = run(capsys, *args, "--jobs", "8")
    assert code == 0
    assert capped == run(capsys, *args)[1]


def test_text_format_rendering(capsys):
    code, out, _ = run(
        capsys,
        "product", "--algebra", "rqsym-f", "--format", "text", "1,e", "1,e",
    )
    assert code == 0
    assert out.strip() == (
        "-1*F[2,e] - 1*F[1,1,e] + 2*F[2,e,e] + 2*F[1,e,1,e] + 2*F[1,1,e,e]"
    )


def term_listings():
    """Combinations of every shape the CLI prints, each with the arguments
    of ``_listing`` after it, from seeded random elements: words with
    ``id``, compositions with ``empty`` and ``e`` parts, tensor keys, int
    and Fraction coefficients of both signs, zero combinations, and series
    with epsilon exponents."""
    rng = random.Random(7)
    scalars = (1, -1, 12, -3, Fraction(2, 3), Fraction(-5, 4))
    for name in ALGEBRAS:
        ctx = context_by_name(name, Fraction(-1, 2) if name == "hsym" else -1)
        keys = [key for n in range(4) for key in ctx.basis(n)]
        for x in keys:
            y = rng.choice(keys)
            lc = ctx.product(x, y) - ctx.product(y, x).scale(rng.choice(scalars))
            yield lc, ctx.key_text
            yield ctx.coproduct(x).scale(rng.choice(scalars)), ctx.key_text, True
            yield ctx.antipode(x), ctx.key_text
            yield LinComb.single(x, rng.choice(scalars)), ctx.key_text
        yield LinComb.zero(), ctx.key_text
        yield LinComb.zero(), ctx.key_text, True
        # the empty key beside keys of other lengths
        for x in keys[1:12]:
            yield ctx.antipode(x) + LinComb.single((), rng.choice(scalars)), ctx.key_text
    qsym = context_by_name("qsym")
    hsym = context_by_name("hsym", -1)
    for ctx, n in ((qsym, 5), (hsym, 4)):
        # products whose terms differ in length: EPS-free quasi-shuffles of
        # compositions, and hsym at weight -1
        keys = [key for m in range(1, n) for key in ctx.basis(m)]
        products = [ctx.product(x, rng.choice(keys)) for x in keys]
        mixed = [lc for lc in products if len(set(map(len, lc.terms))) > 1]
        assert len(mixed) > 10
        for lc in mixed:
            yield lc, ctx.key_text
    for k in (1, 2, 3):
        yield (Series.zero(k),)
        yield (series_one(k),)
        for alpha in [(EPS,), (1, EPS), (EPS, 2, EPS), (2, 1), (1, EPS, 1)]:
            yield (expand_m(alpha, k),)
            yield (expand_f(alpha, k) * rng.choice(scalars),)


def reference_listing(lc, key_text=None, tensor=False):
    """``json.dumps(indent=2)`` of the listing that ``_listing`` writes: the
    form of ``lincomb_to_json``, or the one ``Series.from_json`` reads, its
    terms in the order of ``basis_sort_key_reference``, so that the writer's
    order is checked against the definition rather than against
    ``sorted_keys``."""
    terms = [(k, str(lc.terms[k])) for k in sorted(lc.terms, key=basis_sort_key_reference)]
    if key_text is None:
        exps = lambda e: ["e" if x is EPS else str(x) for x in e]
        return json.dumps({"k": lc.k, "terms": [{"coeff": c, "exps": exps(e)} for e, c in terms]},
                          indent=2)
    encode = (lambda kk: [key_text(kk[0]), key_text(kk[1])]) if tensor else key_text
    return json.dumps({"terms": [{"coeff": c, "key": encode(k)} for k, c in terms]}, indent=2)


def test_listing_writer_matches_json_dumps():
    """The CLI's one-pass writer against its reference, json.dumps."""
    texts = [(_listing(*args), reference_listing(*args)) for args in term_listings()]
    assert len(texts) > 500
    for text, reference in texts:
        assert text == reference
    every = "".join(text for text, _ in texts)
    for shape in ('"id"', '"empty"', ',e', '"-1/2"', '"terms": []', '"exps": [', '"e"'):
        assert shape in every


def outcome(parse, argv):
    """What ``parse(argv)`` gives: a namespace, or the exit code of the
    ``SystemExit`` it raises, with all it writes to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


# valid calls of every command and verify suite, each kind of parse error,
# help at both levels, unknown commands and negative first positionals
DISPATCH_CORPUS = [
    *(["product", "--algebra", name, "1", "1"] for name in ALGEBRAS),
    ["product", "--algebra", "hsym", "--lambda", "2/3", "--format", "text", "1,-2", "-1"],
    ["product", "--format=text", "--algebra=ssym", "2,1", "1"],
    ["coproduct", "--algebra", "rqsym-f", "1,e"],
    ["antipode", "--algebra", "hsym", "1,-2", "--lambda", "-1"],
    ["convert", "--from", "f", "--to", "m", "1,e,2"],
    *(["map", "--which", which, "1"] for which in ("d1", "d2", "phi1M", "phi1F", "phi2")),
    ["gamma", "--poset", "p.poset", "--vars", "3"],
    ["expand", "--basis", "m", "1,e", "--vars", "3"],
    *(["verify", "--suite", suite] for suite in
      ("hopf", "morphisms", "square", "surjectivity", "gamma")),
    ["verify", "--suite", "hopf", "--lambda", "-1", "--algebra", "qsym", "--jobs", "2",
     "--max-degree", "3"],
    # a missing required option or element, a bad choice, a bad int
    ["product", "1", "2"],
    ["product", "--algebra", "hsym", "1"],
    ["convert", "--from", "f", "1"],
    ["gamma", "--poset", "p.poset"],
    ["verify"],
    ["map", "--which", "phi3", "1"],
    ["product", "--algebra", "wsym", "1", "2"],
    ["expand", "--basis", "m", "--vars", "x", "1"],
    # extra arguments, alone or beside another error
    ["product", "--algebra", "hsym", "1", "2", "3"],
    ["coproduct", "--algebra", "hsym", "1", "--bogus"],
    ["verify", "--suite", "square", "--bogus", "x", "y"],
    ["convert", "--bogus"],
    # help, unknown commands, no command, options before the command
    ["-h"], ["--help"], ["product", "-h"], ["verify", "--help"], ["gamma", "--vars", "2", "-h"],
    ["bogus"], ["produc", "--algebra", "hsym"], [], ["--format", "json", "product"],
    ["--bogus"],
    # negative first positionals, and "--" before the elements
    ["product", "--algebra", "hsym", "-3,1,2", "-1"],
    ["antipode", "--algebra", "hsym", "-1"],
    ["map", "--which", "phi2", "-1,2,3,-4"],
    ["product", "--algebra", "hsym", "--", "1", "2"],
]


@pytest.mark.parametrize("argv", DISPATCH_CORPUS, ids=" ".join)
def test_dispatch_parses_as_the_top_level_parser(argv):
    """Parsing with the command's parser alone gives the namespace of the
    full parse; where that exits, the same code and the same bytes on
    stdout and stderr."""
    fast = outcome(parse_argv, list(argv))
    full = outcome(build_parser().parse_args, list(argv))
    assert fast == full
    assert fast[0] != ("exit", 0) or fast[1].startswith("usage: wqsym")


# help, the end of the options, a lone dash, dash-led strings that are no
# negative number, an unknown option, and the empty string
IRREGULAR_TEXTS = ("-h", "--help", "--", "-", "-x", "--bogus", "", "-1,e", "- 1")
# strings a value or an element may be: negative numbers and words, keys,
# rationals, an empty string, a file name
VALUE_TEXTS = ("1", "-1", "2/3", "0", "x", "e", "1,e", "-3,1,2", "", "p.poset")


@st.composite
def command_lines(draw):
    """A line of one command, from the declarations of its parser: its
    options, each with a declared choice or a value of its type, and its
    elements, in one run or one by one, in random order; then up to three irregular edits: a string
    of IRREGULAR_TEXTS or an option string with or without its value put
    anywhere, the command name included (help, "--", missing values,
    repeats, split elements), an option joined to its value by "=", an
    option string abbreviated, a string dropped."""
    parser = build_parser()
    name = draw(st.sampled_from(sorted(parser.commands)))
    command = parser.commands[name]
    options, units = [], []
    for action in command._actions:
        if not action.option_strings:
            elements = draw(st.lists(st.sampled_from(VALUE_TEXTS + ("-1,e", "- 1")),
                                     min_size=action.nargs, max_size=action.nargs))
            # in one run three times in four, else each element on its own
            units += [elements] if draw(st.integers(0, 3)) else [[text] for text in elements]
        elif action.nargs is None:
            # a declared value four times in five, else one that may be bad
            good = action.choices or (("2", "-1", "0") if action.type is int else VALUE_TEXTS)
            value = draw(st.sampled_from(good if draw(st.integers(0, 4)) else ("x", "wsym", "-x")))
            unit = [draw(st.sampled_from(action.option_strings)), value]
            options.append(unit)
            # a required option is left out now and then
            if draw(st.integers(0, 9)) < (9 if action.required else 5):
                units.append(unit)
    argv = [name] + [text for unit in draw(st.permutations(units)) for text in unit]
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2, 3)))):
        edit = draw(st.integers(0, 4))
        at = draw(st.integers(0, len(argv)))
        if edit == 0:
            argv.insert(at, draw(st.sampled_from(IRREGULAR_TEXTS)))
        elif edit == 1:
            argv[at:at] = draw(st.sampled_from(options))[:draw(st.integers(1, 2))]
        elif edit == 2 and at + 1 < len(argv) and argv[at].startswith("--"):
            argv[at:at + 2] = ["=".join(argv[at:at + 2])]
        elif edit == 3 and at < len(argv) and argv[at].startswith("--") and len(argv[at]) > 3:
            argv[at] = argv[at][:draw(st.integers(3, len(argv[at])))]
        elif edit == 4 and at < len(argv):
            del argv[at]
    return argv


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(command_lines())
def test_random_lines_parse_as_the_top_level_parser(argv):
    """The plain reader and its fallback against argparse on random lines
    built from each command's declarations."""
    assert outcome(parse_argv, list(argv)) == outcome(build_parser().parse_args, list(argv))


def queries_like_lines():
    """Seeded valid lines of every command kind, shaped like the benchmark's
    query stream: products of 5 to 9 letters (hsym with each weight),
    antipodes, coproducts, conversions, maps, expansions and Gamma."""
    rng = random.Random(19)

    def perm(n, signed):
        letters = rng.sample(range(1, n + 1), n)
        return ",".join(str(-a if signed and rng.random() < 0.5 else a) for a in letters)

    def comp(weight):
        return ",".join(rng.choice(("e", "1", "2")) for _ in range(weight)) or "empty"

    def key(algebra, n):
        if algebra in ("hsym", "ssym"):
            return perm(n, algebra == "hsym")
        return comp(n).replace("e", "1") if algebra == "qsym" else comp(n)

    lines = []
    for i in range(60):
        algebra = ALGEBRAS[i % len(ALGEBRAS)]
        lam = ("-1", "0", "1", "2/3")[i % 4]
        m = rng.randint(1, 4)
        n = rng.randint(5, 9) - m
        lines += [
            ["product", "--algebra", algebra, "--lambda", lam, key(algebra, m), key(algebra, n)],
            ["product", "--algebra", algebra, key(algebra, m), key(algebra, n)],
            ["antipode", "--algebra", algebra, "--lambda", lam, key(algebra, rng.randint(4, 6))],
            ["coproduct", "--algebra", algebra, key(algebra, rng.randint(3, 7))],
            ["convert", "--from", "fm"[i % 2], "--to", "mf"[i % 2], comp(rng.randint(3, 7))],
            ["map", "--which", ("d1", "d2", "phi2", "phi1M", "phi1F")[i % 5],
             perm(rng.randint(3, 8), i % 5 != 0) if i % 5 < 3 else comp(rng.randint(3, 8))],
            ["expand", "--basis", "mf"[i % 2], "--vars", str(rng.randint(4, 8)),
             comp(rng.randint(2, 5))],
            ["gamma", "--poset", f"poset{i:04d}.txt", "--vars", str(rng.randint(4, 8))],
        ]
    return lines


def test_plain_lines_never_reach_argparse(monkeypatch):
    """Every valid line of the dispatch corpus and of a query-shaped corpus
    is read by the plain reader: with argparse's parse refused, and the
    building of its parser too, each still gives argparse's namespace.
    The two valid lines with "=" or "--" are irregular, and do go to
    argparse."""
    parse = build_parser().parse_args
    valid = [argv for argv in DISPATCH_CORPUS
             if isinstance(outcome(parse, list(argv))[0], argparse.Namespace)]
    irregular = [argv for argv in valid if "--" in argv or any("=" in a for a in argv)]
    assert irregular == [["product", "--format=text", "--algebra=ssym", "2,1", "1"],
                         ["product", "--algebra", "hsym", "--", "1", "2"]]
    lines = [argv for argv in valid if argv not in irregular] + queries_like_lines()
    expected = [parse(list(argv)) for argv in lines]

    def refuse(self, args=None, namespace=None):
        raise AssertionError(f"argparse read {args}")

    def refuse_to_build():
        raise AssertionError("argparse built its parser")

    monkeypatch.setattr(_Parser, "parse_known_args", refuse)
    for argv in irregular:
        with pytest.raises(AssertionError, match="argparse read"):
            parse_argv(list(argv))
    monkeypatch.setattr(cli, "build_parser", refuse_to_build)
    assert [parse_argv(list(argv)) for argv in lines] == expected


# one command of each kind: product, coproduct and antipode on every
# algebra (hsym also at a fractional weight), both conversions, every map,
# gamma and both expansions; "POSET" stands for a poset file
NO_CYCLE_COMMANDS = [
    argv
    for name, x, y in (("hsym", "1,-2", "2,-1"), ("ssym", "2,1", "1,2"),
                       ("rqsym-m", "1,e", "e,2"), ("rqsym-f", "1,e", "e,2"),
                       ("qsym", "1,2", "2"))
    for argv in (["product", "--algebra", name, x, y],
                 ["coproduct", "--algebra", name, x],
                 ["antipode", "--algebra", name, x])
] + [
    ["product", "--algebra", "hsym", "--lambda", "2/3", "1,-2", "-1"],
    ["antipode", "--algebra", "hsym", "--lambda", "2/3", "1,-2,3"],
    ["convert", "--from", "f", "--to", "m", "1,e,2"],
    ["convert", "--from", "m", "--to", "f", "1,e,2"],
    *(["map", "--which", which, key] for which, key in
      (("d1", "2,1,3"), ("d2", "1,-2"), ("phi1M", "1,e"), ("phi1F", "e,1,e"),
       ("phi2", "-1,2,3,-4"))),
    ["gamma", "--poset", "POSET", "--vars", "3"],
    ["expand", "--basis", "m", "1,e", "--vars", "3"],
    ["expand", "--basis", "f", "1,e", "--vars", "3"],
]


@pytest.mark.parametrize("argv", NO_CYCLE_COMMANDS, ids=" ".join)
def test_commands_leave_no_reference_cycles(argv, tmp_path, capsys):
    """Every object a command makes, its context and memos included, is
    freed by reference counting: with the cyclic collector off, a command
    run after a warm-up call leaves nothing for ``gc.collect()``."""
    poset = tmp_path / "p.poset"
    poset.write_text("1 < -2\n-3 < 4\n5\n")
    argv = [str(poset) if arg == "POSET" else arg for arg in argv]
    gc.disable()
    try:
        assert main(argv) == 0
        gc.collect()
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert capsys.readouterr().out


def test_closed_stdout_exits_two_without_traceback():
    """A reader that stops early: the output is larger than a pipe buffer,
    and the read end is closed before the CLI writes."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "wqsym.cli", "expand", "--basis", "f", "--vars", "8",
             "e,1,e,2"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    assert "Traceback" not in err and "Exception ignored" not in err
