"""The four surjections, the commuting square, and the vanishing laws."""

import gc
import importlib
import inspect
import itertools
import os
import re
import shutil
import sys

import pytest
from hypothesis import given, settings, strategies as st

import wqsym
from wqsym.lincomb import LinComb
from wqsym.compositions import EPS, wcomp
from wqsym import hopf, morphisms
from wqsym.hopf import f_to_m_cached, report_to_json
from wqsym.morphisms import (
    _phi2_of_product,
    d1,
    d2,
    phi1_f,
    phi1_m,
    phi2,
    verify_annihilation,
    verify_morphism_laws,
    verify_square,
    verify_surjectivity,
)
from wqsym.words import (
    positive_permutations,
    quasi_shuffle,
    shift,
    shifted_quasi_shuffle,
    signed_permutations,
    standardize,
)
from oracles import psi_zeta


def test_d1_examples():
    assert d1((1, 3, 2)) == LinComb.single((2, 1))
    assert d1((1, 2)) == LinComb.single((2,))
    assert d1(()) == LinComb.single(())
    with pytest.raises(ValueError):
        d1((1, -2))


def test_phi1_m_examples():
    assert phi1_m((2, EPS, 1)) == LinComb.single((2, 1), -1)
    assert phi1_m((EPS, 2)) == LinComb.zero()
    assert phi1_m(()) == LinComb.single(())


def test_phi1_f_examples():
    assert phi1_f((EPS, 2, EPS)) == LinComb.single((2,), -1)
    assert phi1_f((2, EPS, EPS)) == LinComb.zero()
    assert phi1_f((EPS, 1, EPS, 2)) == LinComb.zero()
    assert phi1_f(()) == LinComb.single(())
    assert phi1_f((EPS, EPS)) == LinComb.zero()


def test_phi2_examples():
    assert phi2((-3, 1, 2, -4)) == LinComb.single((1, 2), -1)
    assert phi2((1, -3, 2)) == LinComb.zero()
    assert phi2((1, 2)) == LinComb.single((1, 2))
    assert phi2(()) == LinComb.single(())
    assert phi2((-2, -1)) == LinComb.zero()
    assert phi2((-1, 3, 2, -4, -5)) == LinComb.zero()


def test_phi2_only_depends_on_standardization():
    for word in itertools.product((7, -8, 2, -3), repeat=4):
        if len({abs(a) for a in word}) != 4:
            continue
        assert phi2(word) == phi2(standardize(word))


def test_d2_examples():
    assert d2((-4, 2, -1, -3)) == LinComb.single((EPS, 1, EPS, EPS))
    assert d2((5, -6, 2, 4, 3, -7, -1)) == LinComb.single(
        (1, EPS, 2, 1, EPS, EPS)
    )
    assert d2(()) == LinComb.single(())


def test_square_on_derived_examples():
    pi = (-3, 1, 2)
    lhs = phi2(pi).map_basis(d1)
    rhs = phi1_f(wcomp(pi))
    assert lhs == rhs == LinComb.single((2,))
    pi = (-2, -1)
    assert phi2(pi).map_basis(d1) == LinComb.zero()
    assert phi1_f(wcomp(pi)) == LinComb.zero()


def test_square_commutes_up_to_length_three():
    report = report_to_json(verify_square(3))
    assert report["summary"] == {"total": 59, "failed": 0, "status": "pass"}


def test_morphism_laws_small_budget():
    report = report_to_json(verify_morphism_laws(2))
    assert report["summary"]["failed"] == 0


def test_annihilation_small():
    report = report_to_json(verify_annihilation(3))
    assert report["summary"]["failed"] == 0


def test_memoized_morphism_suites_match_the_plain_functions(monkeypatch):
    """Every memo the two verifiers build is checked against its plain
    function: with ``morphisms.cache`` the identity, the reports are
    equal.  The patch reaches only the memos of ``morphisms``; the
    contexts keep theirs, and the hsym coproduct is the plain
    ``standard_splits`` either way."""
    memoized = [report_to_json(verify_morphism_laws(2)),
                report_to_json(verify_annihilation(3))]
    monkeypatch.setattr(morphisms, "cache", lambda f: f)
    plain = [report_to_json(verify_morphism_laws(2)),
             report_to_json(verify_annihilation(3))]
    assert memoized == plain
    assert [r["summary"]["status"] for r in plain] == ["pass", "pass"]


def test_morphism_laws_take_the_plain_hsym_coproduct(monkeypatch):
    """The hsym coproduct laws call ``standard_splits`` by name, never the
    context's coproduct, whatever wraps it: a counting wrapper with no
    ``__wrapped__`` is never called."""
    calls = []
    init = hopf.HopfContext.__init__

    def counting_init(ctx, *args):
        init(ctx, *args)
        if ctx.name == "hsym":
            coproduct = ctx.coproduct
            ctx.coproduct = lambda key: calls.append(key) or coproduct(key)

    monkeypatch.setattr(hopf.HopfContext, "__init__", counting_init)
    assert report_to_json(verify_morphism_laws(2))["summary"]["failed"] == 0
    assert calls == []


def test_morphism_memos_belong_to_one_call(monkeypatch):
    """A phi2 with the wrong sign on one key fails both phi2 laws, with the
    same counts memoized or not; with phi2 mended, the next call passes
    every law, so no memo outlives its call.  No memo is module-level."""
    plain = morphisms.phi2

    def wrong(word):
        return plain(word).scale(-1) if word == (2, 1) else plain(word)

    def failed_laws():
        report = report_to_json(verify_morphism_laws(2))
        return {law["law"]: law["failed"] for law in report["checks"] if law["status"] != "pass"}

    monkeypatch.setattr(morphisms, "phi2", wrong)
    memoized = failed_laws()
    with monkeypatch.context() as m:
        m.setattr(morphisms, "cache", lambda f: f)
        assert failed_laws() == memoized
    assert sorted(memoized) == ["phi2 is comultiplicative", "phi2 is multiplicative"]
    monkeypatch.setattr(morphisms, "phi2", plain)
    assert failed_laws() == {}
    source = inspect.getsource(morphisms)
    assert not re.search(r"^[a-z_]* = (functools\.)?cache\b", source, re.M)


def test_single_negative_letter_annihilates():
    zero = LinComb.zero()
    for n in range(4):
        for sigma in signed_permutations(n):
            assert shifted_quasi_shuffle(sigma, (-1,), -1).map_basis(phi2) == zero
            assert shifted_quasi_shuffle((-1,), sigma, -1).map_basis(phi2) == zero


def test_surjectivity():
    report = report_to_json(verify_surjectivity(4))
    assert report["summary"]["failed"] == 0


def test_d2_respects_product_on_worked_example():
    # d2 of the eight-term product matches the five-term fundamental
    # product
    prod = shifted_quasi_shuffle((1, -2), (2, -1), -1)
    lhs = prod.map_basis(d2).map_basis(f_to_m_cached)
    from wqsym.hopf import rqsym_product_f

    rhs = rqsym_product_f((1, EPS), (1, EPS)).map_basis(f_to_m_cached)
    assert lhs == rhs


def test_d1_is_psi_zeta():
    """d1 is the Aguiar-Bergeron-Sottile map Psi_zeta of the character
    [sigma increasing], which is built from the SSym coproduct alone: they
    agree in the monomial basis on all 874 permutations of length <= 6."""
    perms = [pi for n in range(7) for pi in positive_permutations(n)]
    assert len(perms) == 874
    for pi in perms:
        assert d1(pi).map_basis(f_to_m_cached) == psi_zeta(pi), pi


def test_morphism_laws_do_not_use_the_f_product(monkeypatch):
    """The F product is built on d2 being multiplicative, so the morphism
    laws must check d1 and d2 against the monomial product: with the F
    product disabled they still pass, with the same counts."""
    want = report_to_json(verify_morphism_laws(2))

    def disabled(alpha, beta):
        raise AssertionError("the morphism laws called the F product")

    monkeypatch.setattr(hopf, "rqsym_product_f", disabled)
    monkeypatch.setattr(morphisms, "rqsym_product_f", disabled, raising=False)
    got = report_to_json(verify_morphism_laws(2))
    assert got == want
    assert got["summary"]["status"] == "pass"
    assert {law["law"] for law in got["checks"] if law["checked"]} >= {
        "d2 is multiplicative", "d1 is multiplicative"}


def test_failing_coproduct_laws_report_both_sides(monkeypatch):
    """A broken phi1 fails its coproduct law, and each failure lists both
    sides, every term keyed by the texts of its two legs."""
    plain = morphisms.phi1_m
    monkeypatch.setattr(morphisms, "phi1_m", lambda alpha: plain(alpha).scale(2))
    report = report_to_json(verify_morphism_laws(1))
    failing = [law for law in report["checks"]
               if law["law"].endswith("comultiplicative") and law["status"] == "fail"]
    assert [law["law"] for law in failing] == ["phi1 is comultiplicative"]
    assert failing[0]["failures"][0] == {
        "inputs": ["empty"],
        "lhs": {"terms": [{"coeff": "4", "key": ["empty", "empty"]}]},
        "rhs": {"terms": [{"coeff": "2", "key": ["empty", "empty"]}]},
    }
    for law in failing:
        for failure in law["failures"]:
            for side in (failure["lhs"], failure["rhs"]):
                assert side["terms"]
                for term in side["terms"]:
                    assert [type(leg) for leg in term["key"]] == [str, str]


def test_block_and_trail_fails_exactly_on_a_pnp_pattern():
    """The +-+ law selects its factors by ``_block_and_trail(pi) is None``:
    that holds exactly when the sign string has a +-+ pattern."""
    pnp = re.compile(r"\+-+\+")
    for n in range(7):
        for pi in signed_permutations(n):
            signs = "".join("+" if a > 0 else "-" for a in pi)
            assert (morphisms._block_and_trail(pi) is None) == bool(pnp.search(signs)), pi


# The pruned phi2 of a product against the reference: phi2 applied to
# every raw word of the weight -1 quasi-shuffle product.


def reference_phi2_of_product(s, t):
    return quasi_shuffle(s, shift(t, len(s)), -1).map_basis(phi2)


def small_pairs(max_total):
    perms = [list(signed_permutations(n)) for n in range(max_total + 1)]
    for a in range(max_total + 1):
        for b in range(max_total + 1 - a):
            yield from itertools.product(perms[a], perms[b])


def test_pruned_phi2_of_product_matches_reference_exhaustively():
    nonzero = 0
    for s, t in small_pairs(5):
        want = reference_phi2_of_product(s, t)
        assert _phi2_of_product(s, t) == want, (s, t)
        nonzero += bool(want)
    # the vanishing laws only assert zero, so the sweep must also compare
    # products that survive
    assert nonzero >= 100


def test_products_leave_no_reference_cycles():
    """The recursive closures of quasi_shuffle, shifted_quasi_shuffle and
    _phi2_of_product refer to themselves; each call must break that cycle,
    so that its memo is freed when it returns rather than at the next
    collection."""
    gc.collect()
    gc.disable()
    try:
        quasi_shuffle((1, -2, 3), (-4, 5), -1)
        assert gc.collect() == 0
        assert shifted_quasi_shuffle((-1, 2, -3), (-2, -1), -1)
        assert gc.collect() == 0
        assert _phi2_of_product((-1, 2, 3), (1, -2))
        assert gc.collect() == 0
    finally:
        gc.enable()


def _signed_perm(n):
    return st.tuples(st.permutations(range(1, n + 1)),
                     st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)
                     ).map(lambda ps: tuple(a * b for a, b in zip(*ps)))


@st.composite
def _pairs_of_total_6_to_8(draw):
    total = draw(st.integers(6, 8))
    left = draw(st.integers(0, total))
    return draw(_signed_perm(left)), draw(_signed_perm(total - left))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_pairs_of_total_6_to_8())
def test_pruned_phi2_of_product_matches_reference_sampled(pair):
    s, t = pair
    assert _phi2_of_product(s, t) == reference_phi2_of_product(s, t)


def _mutant_fails_cross_check(tmp_path, monkeypatch, old, new):
    """Whether a copy of the package with ``old``, which occurs once in
    morphisms.py, replaced by ``new`` fails the exhaustive cross-check."""
    mutant = tmp_path / "wqsym_mutant"
    shutil.copytree(os.path.dirname(wqsym.__file__), mutant,
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = (mutant / "morphisms.py").read_text()
    assert source.count(old) == 1
    (mutant / "morphisms.py").write_text(source.replace(old, new))
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        mutated = importlib.import_module("wqsym_mutant.morphisms")._phi2_of_product
        # compare terms: the copy's LinComb is a class of its own, and
        # LinComb.__eq__ returns NotImplemented for another class
        return any(mutated(s, t).terms != reference_phi2_of_product(s, t).terms
                   for s, t in small_pairs(5))
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] == "wqsym_mutant"]:
            del sys.modules[name]


def test_cross_check_passes_an_unmutated_copy(tmp_path, monkeypatch):
    """The copy itself, unedited, passes the exhaustive cross-check, so a
    mutant that fails it fails for its edit."""
    assert not _mutant_fails_cross_check(tmp_path, monkeypatch, "phase == 1", "phase == 1")


def test_cross_check_catches_a_wrong_trailing_negative_limit(tmp_path, monkeypatch):
    """A copy of the package whose product lets letters follow the one
    trailing negative must fail the exhaustive cross-check."""
    assert _mutant_fails_cross_check(tmp_path, monkeypatch, "phase == 1", "phase == 2")


def test_cross_check_catches_dropped_merged_negatives(tmp_path, monkeypatch):
    """A copy of the package whose product never merges two negative
    letters must fail the exhaustive cross-check."""
    assert _mutant_fails_cross_check(tmp_path, monkeypatch,
                                     "u[i] < 0 and v[j] < 0", "False")


def test_cancelling_annihilation_cases_match_reference(monkeypatch):
    """The vanishing laws only assert zero.  In most of their products no
    raw word has phi2's shape; the products whose raw words include some
    that phi2 keeps cancel for real, and the dynamic program must compute
    those sums.  Every such pair (s, t) that verify_annihilation(4) checks
    gets, from the memo by sign shape, the reference value of s * t itself,
    and there are enough of them to exercise cancellation."""
    cases = {}
    by_shape = morphisms._phi2_by_shape

    def recording():
        product = by_shape()

        def record(s, t):
            cases[s, t] = got = product(s, t)
            return got

        return record

    monkeypatch.setattr(morphisms, "_phi2_by_shape", recording)
    assert report_to_json(verify_annihilation(4))["summary"]["status"] == "pass"
    # phi2 keeps a word by the signs of its letters alone, and shift keeps
    # signs, so one product per pair of sign patterns finds the kept words
    keeps = {}

    def has_kept_raw_word(s, t):
        signs = (tuple(a > 0 for a in s), tuple(a > 0 for a in t))
        if signs not in keeps:
            raw = quasi_shuffle(s, shift(t, len(s)), -1)
            keeps[signs] = any(phi2(w) for w in raw.terms)
        return keeps[signs]

    cancelling = [(s, t) for s, t in sorted(cases) if has_kept_raw_word(s, t)]
    assert len(cancelling) >= 300
    for s, t in cancelling:
        assert cases[s, t] == reference_phi2_of_product(s, t), (s, t)


def memo_key_mismatches(key, values):
    """How many pairs of ``values`` (pair -> phi2 of its product) differ in
    value from the first pair with the same ``key``."""
    first = {}
    return sum(first.setdefault(key(*pair), got) != got for pair, got in values.items())


def test_phi2_of_product_depends_on_the_sign_shapes_alone():
    """The memo of verify_annihilation computes one product per pair of
    sign shapes.  That key is sound: over every pair of total length <= 5,
    phi2 of the product of the shapes equals phi2 of the product, so does
    the memoized product of one call, and no two pairs with the same
    shapes differ.  A key of the signs alone is not: it merges pairs whose
    kept blocks standardize differently.  The vanishing laws cannot catch
    a bad key, as every value they see is zero."""
    shape = morphisms._sign_shape
    product = morphisms._phi2_by_shape()
    values = {(s, t): _phi2_of_product(s, t) for s, t in small_pairs(5)}
    assert sum(map(bool, values.values())) >= 3000
    for (s, t), want in values.items():
        assert _phi2_of_product(shape(s), shape(t)) == want, (s, t)
        assert product(s, t) == want, (s, t)
    assert memo_key_mismatches(lambda s, t: (shape(s), shape(t)), values) == 0
    signs = lambda word: tuple(a > 0 for a in word)
    assert memo_key_mismatches(lambda s, t: (signs(s), signs(t)), values) > 1000


def test_annihilation_memos_belong_to_one_call(monkeypatch):
    """A phi2 of products that keeps a term of (1) * (-1) fails the
    negative-letter law once; with it mended, the next call passes every
    law, so the memo by sign shape does not outlive its call.  No memo in
    the module is module-level."""
    plain = morphisms._phi2_of_product

    def wrong(s, t):
        return LinComb.single((1,)) if (s, t) == ((1,), (-1,)) else plain(s, t)

    def failed_laws():
        report = report_to_json(verify_annihilation(3))
        return {law["law"]: law["failed"] for law in report["checks"] if law["status"] != "pass"}

    monkeypatch.setattr(morphisms, "_phi2_of_product", wrong)
    assert failed_laws() == {"phi2 kills products with the negative letter": 1}
    monkeypatch.setattr(morphisms, "_phi2_of_product", plain)
    assert failed_laws() == {}
    source = inspect.getsource(morphisms)
    assert not re.search(r"^\w+ = ((functools\.)?cache\b|\{|dict\()", source, re.M)
