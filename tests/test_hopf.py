"""Coproducts, antipodes, basis changes, and the axiom checker."""

import contextlib
import functools
import importlib
import os
import random
import shutil
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wqsym.lincomb import LinComb, tensor_bimap
from wqsym.compositions import (
    EPS,
    comp_to_text,
    compositions_of,
    regularized_compositions,
    star_product,
    ntilde_add,
    text_to_comp,
)
from wqsym import hopf
from wqsym.hopf import (
    ALGEBRAS,
    context_by_name,
    deconcatenation,
    f_to_m,
    m_to_f,
    report_to_json,
    rqsym_antipode_f,
    rqsym_antipode_m,
    rqsym_coproduct_f,
    rqsym_product_f,
    standard_splits,
    verify_hopf,
)
from wqsym.words import (
    add_shifted_product,
    positive_permutations,
    shifted_quasi_shuffle,
    signed_permutations,
)
from oracles import (
    graded_antipode_reference,
    rqsym_antipode_f_reference,
    rqsym_product_f_via_m,
    standardized_deconcatenation,
    weight,
)


def test_coproduct_of_1324():
    expected = LinComb(
        {
            ((), (1, 3, 2, 4)): 1,
            ((1,), (2, 1, 3)): 1,
            ((1, 2), (1, 2)): 1,
            ((1, 3, 2), (1,)): 1,
            ((1, 3, 2, 4), ()): 1,
        }
    )
    assert standard_splits((1, 3, 2, 4)) == expected


def test_coproduct_of_signed_word():
    expected = LinComb(
        {
            ((), (3, -2, 1, 4, -5)): 1,
            ((1,), (-2, 1, 3, -4)): 1,
            ((2, -1), (1, 2, -3)): 1,
            ((3, -2, 1), (1, -2)): 1,
            ((3, -2, 1, 4), (-1,)): 1,
            ((3, -2, 1, 4, -5), ()): 1,
        }
    )
    assert standard_splits((3, -2, 1, 4, -5)) == expected


def test_coproduct_of_identity():
    assert standard_splits(()) == LinComb.single(((), ()))


def test_coproduct_is_cograded():
    for n in range(5):
        for pi in signed_permutations(n):
            for a, b in standard_splits(pi).terms:
                assert len(a) + len(b) == n


def test_standard_splits_match_the_reference():
    """Each leg read off its neighbour equals that leg standardized from
    scratch, on every signed permutation of length <= 6 and on a seeded
    sample of lengths 7 and 8.  Negative letters must move towards zero
    too, which only signed words show."""
    rng = random.Random(23)
    sample = [tuple(a if rng.random() < 0.5 else -a for a in rng.sample(range(1, n + 1), n))
              for n in (7, 8) for _ in range(500)]
    words = [w for n in range(7) for w in signed_permutations(n)] + sample
    for w in words:
        assert standard_splits(w).terms == standardized_deconcatenation(w).terms, w


def _convolution(ctx, x):
    out = LinComb.zero()
    for (a, b), c in ctx.coproduct(x).terms.items():
        for ka, ca in ctx.antipode(a).terms.items():
            out = out + ctx.product(ka, b).scale(c * ca)
    return out


def test_antipode_trivial_values():
    ctx = context_by_name("hsym", -1)
    assert ctx.antipode(()) == LinComb.single(())
    assert ctx.antipode((-1,)) == LinComb.single((-1,), -1)
    assert ctx.antipode((1,)) == LinComb.single((1,), -1)


def test_antipode_convolution_on_12():
    ctx = context_by_name("hsym", -1)
    assert _convolution(ctx, (1, 2)) == LinComb.zero()


def test_rqsym_product_examples():
    assert star_product((1,), (1,)) == LinComb({(1, 1): 2, (2,): 1})
    assert star_product((), (2, EPS)) == LinComb.single((2, EPS))
    assert star_product((EPS,), (1,)) == LinComb(
        {(EPS, 1): 1, (1, EPS): 1, (1,): 1}
    )


def test_rqsym_product_is_graded_over_the_monoid():
    keys = [a for w in range(4) for a in regularized_compositions(w)]
    for a in keys:
        for b in keys:
            if not a or not b:
                continue
            expect = ntilde_add(weight(a), weight(b))
            for key in star_product(a, b).terms:
                assert weight(key) == expect


def test_rqsym_coproduct_counit_antipode():
    assert deconcatenation((1, EPS)) == LinComb(
        {((), (1, EPS)): 1, ((1,), (EPS,)): 1, ((1, EPS), ()): 1}
    )
    ctx = context_by_name("rqsym-m")
    assert ctx.counit(()) == 1
    assert ctx.counit((EPS,)) == 0
    assert rqsym_antipode_m((EPS,)) == LinComb.single((EPS,), -1)
    assert rqsym_antipode_m((7,)) == LinComb.single((7,), -1)
    assert rqsym_antipode_m(()) == LinComb.single(())


def test_rqsym_antipode_convolution_closed_form():
    for w in range(5):
        for alpha in regularized_compositions(w):
            conv = LinComb.zero()
            for (a, b), c in deconcatenation(alpha).terms.items():
                for ka, ca in rqsym_antipode_m(a).terms.items():
                    conv = conv + star_product(ka, b).scale(c * ca)
            assert conv == LinComb.single((), 1 if alpha == () else 0)


def test_qsym_antipode_strategies_agree():
    # on compositions the closed form and the graded recursion match
    ctx = context_by_name("qsym")
    for n in range(5):
        for alpha in compositions_of(n):
            assert rqsym_antipode_m(alpha) == ctx.graded_antipode(alpha)


@pytest.mark.parametrize("name", ["rqsym-m", "rqsym-f"])
def test_closed_antipodes_match_the_graded_recursion(name):
    """The closed form of a table row against the recursion over the same
    row's coproduct and product, on every key of weight <= 4."""
    ctx = context_by_name(name)
    keys = [alpha for w in range(5) for alpha in ctx.basis(w)]
    assert len(keys) == 1 + 2 + 5 + 13 + 34
    for alpha in keys:
        assert ctx.antipode(alpha) == ctx.graded_antipode(alpha), alpha


def test_f_antipode_matches_the_monomial_walk():
    """The closed F antipode against F -> M, S, M -> F, as full
    combinations, on all 987 keys of weight <= 7."""
    keys = [alpha for w in range(8) for alpha in regularized_compositions(w)]
    assert len(keys) == 987
    for alpha in keys:
        assert rqsym_antipode_f(alpha) == rqsym_antipode_f_reference(alpha), alpha


def test_f_to_m_examples():
    assert f_to_m((2,)) == LinComb({(2,): 1, (1, 1): 1})
    assert f_to_m((EPS,)) == LinComb.single((EPS,))
    assert f_to_m((EPS, EPS)) == LinComb({(EPS,): 1, (EPS, EPS): 1})


def test_basis_change_round_trip():
    for w in range(6):
        for alpha in regularized_compositions(w):
            assert f_to_m(alpha).map_basis(m_to_f) == LinComb.single(alpha)
            assert m_to_f(alpha).map_basis(f_to_m) == LinComb.single(alpha)


def test_f_coproduct_examples():
    assert rqsym_coproduct_f((2,)) == LinComb(
        {((), (2,)): 1, ((1,), (1,)): 1, ((2,), ()): 1}
    )
    assert rqsym_coproduct_f((EPS,)) == LinComb(
        {((), (EPS,)): 1, ((EPS,), ()): 1}
    )


def test_f_and_m_coproducts_commute_with_basis_change():
    for w in range(5):
        for alpha in regularized_compositions(w):
            lhs = tensor_bimap(rqsym_coproduct_f(alpha), f_to_m, f_to_m)
            rhs = f_to_m(alpha).map_basis(deconcatenation)
            assert lhs == rhs


def test_f_product_five_term_example():
    out = rqsym_product_f((1, EPS), (1, EPS))
    assert out == LinComb(
        {
            (1, EPS, 1, EPS): 2,
            (1, 1, EPS, EPS): 2,
            (2, EPS, EPS): 2,
            (1, 1, EPS): -1,
            (2, EPS): -1,
        }
    )


def f_pairs(max_total):
    """Every pair of regularized compositions of summed weight <= max_total."""
    comps = [regularized_compositions(w) for w in range(max_total + 1)]
    return [(a, b) for wa in range(max_total + 1) for wb in range(max_total + 1 - wa)
            for a in comps[wa] for b in comps[wb]]


def test_f_product_matches_the_monomial_route_exhaustively():
    """The product through signed permutations equals the product through
    the monomial basis, as full combinations, on all 1,985 pairs of
    summed weight <= 6."""
    pairs = f_pairs(6)
    assert len(pairs) == 1985
    for a, b in pairs:
        assert rqsym_product_f(a, b) == rqsym_product_f_via_m(a, b), (a, b)


@st.composite
def _regularized_composition(draw, total):
    parts = []
    while total:
        part = draw(st.integers(1, total))
        parts.append(EPS if part == 1 and draw(st.booleans()) else part)
        total -= part
    return tuple(parts)


@st.composite
def _f_pairs_of_total_7_to_10(draw):
    total = draw(st.integers(7, 10))
    left = draw(st.integers(0, total))
    return draw(_regularized_composition(left)), draw(_regularized_composition(total - left))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_f_pairs_of_total_7_to_10())
def test_f_product_matches_the_monomial_route_sampled(pair):
    a, b = pair
    assert rqsym_product_f(a, b) == rqsym_product_f_via_m(a, b)


@contextlib.contextmanager
def mutant_hopf(tmp_path, monkeypatch, text, replacement):
    """``hopf`` of a copy of the package whose ``hopf.py`` has its one
    ``text`` replaced."""
    mutant = tmp_path / "wqsym_mutant"
    shutil.copytree(os.path.dirname(hopf.__file__), mutant,
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = (mutant / "hopf.py").read_text()
    assert source.count(text) == 1
    (mutant / "hopf.py").write_text(source.replace(text, replacement))
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        yield importlib.import_module("wqsym_mutant.hopf")
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] == "wqsym_mutant"]:
            del sys.modules[name]


def across(mut, fn):
    """``fn`` of the copy ``mut`` on keys of this package: the copy has its
    own EPS, so keys cross over as text."""
    def crossed(*keys):
        keys = [mut.text_to_comp(comp_to_text(k)) for k in keys]
        return LinComb((text_to_comp(mut.comp_to_text(k)), c) for k, c in fn(*keys).terms.items())
    return crossed


def test_cross_check_catches_the_wrong_weight(tmp_path, monkeypatch):
    """A copy of the package whose F product uses the weight 0 shuffle
    must fail the cross-check against the monomial route."""
    weighted = "quasi_shuffle(s, shift(t, len(s)), -1)"
    with mutant_hopf(tmp_path, monkeypatch, weighted, weighted.replace("-1", "0")) as mut:
        mutated = across(mut, mut.rqsym_product_f)
        assert mutated((1,), (1,)) == rqsym_product_f((1,), (1,))
        wrong = sum(mutated(a, b) != rqsym_product_f_via_m(a, b) for a, b in f_pairs(4))
        assert wrong > 0


def test_f_antipode_cross_check_catches_a_wrong_binomial(tmp_path, monkeypatch):
    """A copy of the package that reads a run of k e's with C(k, j) in
    place of C(k - 1, j - 1) must fail the cross-check."""
    with mutant_hopf(tmp_path, monkeypatch, "comb(k - 1, j - 1)", "comb(k, j)") as mut:
        mutated = across(mut, mut.rqsym_antipode_f)
        assert mutated((EPS,)) == rqsym_antipode_f((EPS,))
        keys = [alpha for w in range(5) for alpha in regularized_compositions(w)]
        assert sum(mutated(a) != rqsym_antipode_f_reference(a) for a in keys) > 0


def test_qsym_closure():
    for n in range(4):
        for alpha in compositions_of(n):
            for beta in compositions_of(3):
                for key in star_product(alpha, beta).terms:
                    assert all(isinstance(p, int) for p in key)
            for (a, b) in deconcatenation(alpha).terms:
                assert all(isinstance(p, int) for p in a + b)


@pytest.mark.parametrize(
    "make,degree",
    [
        (lambda: context_by_name("hsym", -1), 2),
        (lambda: context_by_name("hsym", 0), 2),
        pytest.param(lambda: context_by_name("ssym"), 3, id="ssym-3"),
        pytest.param(lambda: context_by_name("rqsym-m"), 3, id="rqsym-m-3"),
        pytest.param(lambda: context_by_name("qsym"), 3, id="qsym-3"),
        pytest.param(lambda: context_by_name("rqsym-f"), 2, id="rqsym-f-2"),
    ],
)
def test_verify_hopf_smoke(make, degree):
    report = report_to_json(verify_hopf(make(), degree))
    assert report["summary"]["status"] == "pass"
    assert report["summary"]["failed"] == 0


def test_context_lookup():
    assert context_by_name("hsym", -1).name == "hsym"
    assert context_by_name("qsym").name == "qsym"
    assert [context_by_name(name).name for name in ALGEBRAS] == list(ALGEBRAS)
    with pytest.raises(ValueError):
        context_by_name("nope")


def test_parse_key_checks_entries_without_a_basis():
    """Parsing looks at the entries of the key only: signed_permutations(8)
    alone would be 10,321,920 keys."""
    for name, text, key in [("ssym", "8,7,6,5,4,3,2,1", (8, 7, 6, 5, 4, 3, 2, 1)),
                            ("qsym", "3,1,4", (3, 1, 4))]:
        ctx = context_by_name(name)
        ctx.basis = None
        assert ctx.parse_key(text) == key
    with pytest.raises(ValueError, match="'1,e' has epsilon parts"):
        context_by_name("qsym").parse_key("1,e")
    assert context_by_name("rqsym-m").parse_key("1,e") == (1, EPS)


def test_contexts_use_the_functions_bound_when_built(monkeypatch):
    """A context built after a module function of ``hopf`` is replaced
    calls the replacement, so that wrappers installed after import (the
    per-layer spans of ``perfbench``) see every call."""
    calls = {"shifted_quasi_shuffle": 0, "rqsym_product_f": 0}

    def counting(name):
        fn = getattr(hopf, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(hopf, name, counting(name))
    hsym, rqsym_f = context_by_name("hsym", -1), context_by_name("rqsym-f")
    assert hsym.product((1,), (-1,)) == shifted_quasi_shuffle((1,), (-1,), -1)
    assert calls["shifted_quasi_shuffle"] == 1
    assert rqsym_f.product((1,), (EPS,)) == rqsym_product_f((1,), (EPS,))
    assert calls["rqsym_product_f"] == 1


class _Forgetful(dict):
    """A memo that stores nothing."""

    def __setitem__(self, key, value):
        pass


def antipode_memo(ctx):
    """The dict that holds the values of ``ctx.graded_antipode``."""
    return ctx._graded


def unmemoized(ctx):
    """``ctx``, built at weight -1, with every memo replaced by the plain
    function of its row, and the memo of the graded antipode by one that
    stores nothing: the reference for the memoized context."""
    _, _, _, product, coproduct, _, antipode, *_ = hopf._ROWS[ctx.name](-1)
    ctx.product, ctx.coproduct = product, coproduct
    if ctx.closed_antipode:
        ctx.closed_antipode = antipode
    ctx._graded = _Forgetful()
    return ctx


@pytest.mark.parametrize("name", ALGEBRAS)
def test_memoized_context_matches_the_plain_one(name):
    """verify_hopf at degree 3 gives the same report, law by law, on the
    memoized context as on the same context with its memos unwrapped;
    the memoized run reuses products."""
    ctx = context_by_name(name, -1)
    plain = unmemoized(context_by_name(name, -1))
    assert not hasattr(plain.product, "cache_info")
    assert report_to_json(verify_hopf(ctx, 3)) == report_to_json(verify_hopf(plain, 3))
    assert not antipode_memo(plain)
    assert ctx.product.cache_info().hits > 0
    assert ctx.coproduct.cache_info().hits > 0


def test_memos_are_per_context_and_results_stay_unchanged():
    """Every context starts cold, and a cached combination is shared by
    the laws without being mutated by any of them."""
    ctx = context_by_name("hsym", -1)
    x, y = (1, -2), (-1,)
    prod, cop, anti = ctx.product(x, y), ctx.coproduct(x), ctx.antipode(x)
    before = [dict(lc.terms) for lc in (prod, cop, anti)]
    verify_hopf(ctx, 3)
    assert ctx.product(x, y) is prod and ctx.coproduct(x) is cop and ctx.antipode(x) is anti
    assert [lc.terms for lc in (prod, cop, anti)] == before
    assert len(antipode_memo(ctx)) > 0
    fresh = context_by_name("hsym", -1)
    assert fresh.product.cache_info().currsize == 0
    assert len(antipode_memo(fresh)) == 0


def test_building_a_context_copies_no_metadata(monkeypatch):
    """A context's memos are the bare C caches: building and using a
    context of every row calls no ``functools.update_wrapper``."""
    def never(*args, **kwargs):
        raise AssertionError("update_wrapper called")

    monkeypatch.setattr(functools, "update_wrapper", never)
    for name in ALGEBRAS:
        ctx = context_by_name(name, Fraction(2, 3) if name == "hsym" else "-1")
        x = ctx.basis(2)[-1]
        assert ctx.product(x, x) and ctx.coproduct(x) and ctx.antipode(x)
        assert ctx.product.cache_info().misses == 1


@pytest.mark.parametrize("name", ALGEBRAS)
def test_two_contexts_share_no_memo_entry(name):
    """Two contexts of the same row hold distinct memos: after one has run
    the Hopf suite at degree 2, the other's are all empty, and they fill
    with entries of their own."""
    ctx, other = context_by_name(name), context_by_name(name)
    memos = lambda c: [m for m in (c.product, c.coproduct, c.closed_antipode) if m]
    verify_hopf(ctx, 2)
    assert all(m.cache_info().currsize for m in memos(ctx)) and (ctx._graded or ctx.closed_antipode)
    assert not any(m.cache_info().currsize for m in memos(other)) and not other._graded
    x = ctx.basis(2)[0]
    assert other.product(x, x) is not ctx.product(x, x)
    assert other.antipode(x) is not ctx.antipode(x)


def test_graded_antipode_reads_the_coproduct_at_call_time():
    """A wrapper put on ``ctx.coproduct`` after the context is built, as
    perfbench's tracer puts one, sees every coproduct of the recursion,
    not only the first."""
    ctx = context_by_name("hsym", -1)
    seen, coproduct = [], ctx.coproduct

    def recording(key):
        seen.append(key)
        return coproduct(key)

    ctx.coproduct = recording
    x = (2, -1, 3)
    assert ctx.antipode(x) == context_by_name("hsym", -1).antipode(x)
    assert len(set(seen)) > 1 and seen[0] == x


def antipode_mismatches(name, lam, keys, ctx=None):
    """The keys on which the graded antipode of ``ctx`` (by default a fresh
    context of the row) differs from the reference on another one."""
    ctx = ctx or context_by_name(name, lam)
    ref, memo = context_by_name(name, lam), {}
    return [x for x in keys if ctx.graded_antipode(x) != graded_antipode_reference(ref, x, memo)]


@pytest.mark.parametrize("lam", [-1, 0, 1, Fraction(2, 3)])
def test_graded_antipode_matches_the_reference_on_hsym(lam):
    """Every signed permutation of degree <= 5."""
    keys = [x for n in range(6) for x in signed_permutations(n)]
    assert len(keys) == 4283
    assert antipode_mismatches("hsym", lam, keys) == []


def test_graded_antipode_matches_the_reference_on_ssym_and_a_sample():
    """Every permutation of degree <= 6, and a seeded sample of degrees 6
    and 7 at each weight the queries use."""
    keys = [x for n in range(7) for x in positive_permutations(n)]
    assert antipode_mismatches("ssym", -1, keys) == []
    rng = random.Random(30)
    for lam in (-1, 0, 1, Fraction(2, 3)):
        keys = [tuple(a if rng.random() < 0.5 else -a for a in rng.sample(range(1, n + 1), n))
                for n in (6, 6, 7)]
        assert antipode_mismatches("hsym", lam, keys) == [], lam
    keys = [tuple(rng.sample(range(1, 8), 7)) for _ in range(3)]
    assert antipode_mismatches("ssym", -1, keys) == []


def test_a_mutant_antipode_fails_the_reference():
    """A kernel that drops the scale of each product is caught."""
    keys = [x for n in range(4) for x in signed_permutations(n)]
    ctx = context_by_name("hsym", -1)
    ctx.add_product = lambda out, a, b, c: add_shifted_product(out, a, b, -1)
    assert antipode_mismatches("hsym", -1, keys, ctx)


@pytest.mark.parametrize("lam", [Fraction(2, 3), -1, 3, Fraction(-5, 7)])
def test_weight_scaling_is_a_hopf_isomorphism(lam):
    """w -> lam^|w| w takes HSym at weight lam to HSym at weight 1, so each
    term w of a product or antipode at lam is the weight-1 term times lam to
    the power of the letters lost: on every product of lengths <= 3 and <= 2,
    and every antipode of degree 1 to 4."""
    ctx, one = context_by_name("hsym", lam), context_by_name("hsym", 1)
    lefts, rights = ([x for n in range(top + 1) for x in signed_permutations(n)]
                     for top in (3, 2))
    checked = 0
    for x in lefts:
        for y in rights:
            want = {w: c * lam ** (len(x) + len(y) - len(w))
                    for w, c in one.product(x, y).terms.items()}
            assert ctx.product(x, y).terms == want, (x, y)
            checked += 1
    for x in (x for n in range(1, 5) for x in signed_permutations(n)):
        want = {w: c * lam ** (len(x) - len(w)) for w, c in one.antipode(x).terms.items()}
        assert ctx.antipode(x).terms == want, x
        checked += 1
    assert checked == 649 + 442


def test_integral_weight_keeps_int_coefficients():
    """An integral weight, even given as a Fraction, leaves hsym
    coefficients int; a proper fraction makes the merged terms Fractions."""
    x, y = (-1, -2), (-1, 2)
    for lam in (-1, Fraction(-1), "-1"):
        coeffs = context_by_name("hsym", lam).product(x, y).terms.values()
        assert all(type(c) is int for c in coeffs)
    coeffs = list(context_by_name("hsym", Fraction(2, 3)).product(x, y).terms.values())
    assert Fraction(2, 3) in coeffs and any(type(c) is Fraction for c in coeffs)


def test_basis_change_memos_stay_bounded():
    """f_to_m_cached and m_to_f_cached outlive every context, so each is
    bounded: after a seeded stream over more distinct keys than it may hold,
    each holds at most its maxsize, and its values stay right."""
    rng = random.Random(28)
    pool = [alpha for w in range(9) for alpha in regularized_compositions(w)]
    for alpha in (rng.choice(pool) for _ in range(4000)):
        assert hopf.f_to_m_cached(alpha) == hopf.f_to_m(alpha)
        assert hopf.m_to_f_cached(alpha) == hopf.m_to_f(alpha)
    for memo in (hopf.f_to_m_cached, hopf.m_to_f_cached):
        info = memo.cache_info()
        assert info.misses > info.maxsize >= info.currsize
