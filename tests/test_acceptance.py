"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every equality below is exact rational equality (tolerance: none).  Each
test prints a single PASS line once its criterion holds; run with
``pytest tests/test_acceptance.py -v -s`` to see the lines and timings.
"""

import itertools
import math
import time
from fractions import Fraction

from wqsym.lincomb import LinComb
from wqsym.compositions import (
    EPS,
    j_apply,
    regularized_compositions,
    reversal,
    text_to_comp,
    wcomp,
)
from wqsym.hopf import (
    context_by_name,
    f_to_m,
    m_to_f,
    report_to_json,
    rqsym_antipode_m,
    rqsym_product_f,
    verify_hopf,
)
from wqsym.morphisms import (
    phi1_f,
    phi1_m,
    verify_annihilation,
    verify_morphism_laws,
    verify_square,
)
from wqsym.ppartitions import (
    Poset,
    chain_poset,
    enumerate_ppartitions,
    expand_f,
    gamma,
    verify_gamma_identities,
)
from oracles import concat, multinomial_collapse, near_concat, stuffle
from wqsym.words import (
    quasi_shuffle,
    shifted_quasi_shuffle,
    shifted_shuffle,
    signed_permutations,
    standardize,
)

import pytest


def _announce(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{name}]: PASS{suffix}")


def test_criterion_1_golden_examples():
    t0 = time.time()

    # standardization
    assert standardize((3, -2, 7, -5)) == (2, -1, 4, -3)
    assert standardize((2, -2, 1, -2, 2)) == (2, -3, 1, -4, 5)

    # shifted shuffle of 12 with itself
    assert shifted_shuffle((1, 2), (1, 2)) == LinComb(
        {w: 1 for w in [(1, 2, 3, 4), (1, 3, 2, 4), (1, 3, 4, 2),
                        (3, 1, 2, 4), (3, 1, 4, 2), (3, 4, 1, 2)]}
    )

    # the two coproduct displays
    coproduct = context_by_name("hsym").coproduct
    assert coproduct((1, 3, 2, 4)) == LinComb(
        {((), (1, 3, 2, 4)): 1, ((1,), (2, 1, 3)): 1, ((1, 2), (1, 2)): 1,
         ((1, 3, 2), (1,)): 1, ((1, 3, 2, 4), ()): 1}
    )
    assert coproduct((3, -2, 1, 4, -5)) == LinComb(
        {((), (3, -2, 1, 4, -5)): 1, ((1,), (-2, 1, 3, -4)): 1,
         ((2, -1), (1, 2, -3)): 1, ((3, -2, 1), (1, -2)): 1,
         ((3, -2, 1, 4), (-1,)): 1, ((3, -2, 1, 4, -5), ()): 1}
    )

    # the eight-term product at three weights
    for lam in (-1, 0, 1):
        expected = {
            (1, -2, 4, -3): 1, (1, 4, -2, -3): 1, (1, 4, -3, -2): 1,
            (4, 1, -2, -3): 1, (4, 1, -3, -2): 1, (4, -3, 1, -2): 1,
        }
        if lam:
            expected[(1, 3, -2)] = lam
            expected[(3, 1, -2)] = lam
        assert shifted_quasi_shuffle((1, -2), (2, -1), lam) == LinComb(expected)

    # structural operations on regularized compositions
    alpha, beta = text_to_comp("3,1,e"), text_to_comp("2,e")
    assert reversal(alpha) == text_to_comp("e,1,3")
    assert j_apply((1, 2), alpha) == (3, 1)
    assert concat(alpha, beta) == text_to_comp("3,1,e,2,e")
    assert near_concat(reversal(alpha), beta) == text_to_comp("e,1,5,e")
    with pytest.raises(ValueError):
        near_concat(alpha, beta)

    # wcomp of (5, neg, 2 4 3, neg^2)
    assert wcomp((5, -6, 2, 4, 3, -7, -1)) == (1, EPS, 2, 1, EPS, EPS)

    # the five-term fundamental product
    assert rqsym_product_f((1, EPS), (1, EPS)) == LinComb(
        {(1, EPS, 1, EPS): 2, (1, 1, EPS, EPS): 2, (2, EPS, EPS): 2,
         (1, 1, EPS): -1, (2, EPS): -1}
    )

    # the fork poset: extensions, the overlap, the generating function
    fork = Poset([-1, 2, -3, -4], [(-4, 2), (2, -1), (2, -3)])
    pi, sigma = (-4, 2, -1, -3), (-4, 2, -3, -1)
    assert sorted(fork.linear_extensions()) == sorted([pi, sigma])
    k = 4
    a_p = {frozenset(f.items()) for f in enumerate_ppartitions(fork, k)}
    a_pi = {frozenset(f.items()) for f in enumerate_ppartitions(chain_poset(pi), k)}
    a_sigma = {
        frozenset(f.items()) for f in enumerate_ppartitions(chain_poset(sigma), k)
    }
    assert a_p == a_pi | a_sigma
    overlap = {
        frozenset(f.items())
        for f in (dict(zip([-4, 2, -1, -3], v))
                  for v in itertools.product(range(1, k + 1), repeat=4))
        if f[-4] <= f[2] < f[-1] == f[-3]
    }
    assert a_pi & a_sigma == overlap
    assert gamma(fork, k) == (
        expand_f((EPS, 1, EPS, EPS), k).scale(2) - expand_f((EPS, 1, EPS), k)
    )

    elapsed = time.time() - t0
    assert elapsed < 10  # each individual example is far below a second
    _announce(1, "golden examples", f"{elapsed:.2f}s")


def test_criterion_2_hopf_axioms():
    t0 = time.time()
    runs = [(f"hsym lam={lam}", context_by_name("hsym", lam), 4)
            for lam in (-1, 0, 1, Fraction(2, 3))]
    runs.append(("ssym", context_by_name("ssym"), 4))
    runs.append(("rqsym-m", context_by_name("rqsym-m"), 4))
    for name, ctx, degree in runs:
        report = report_to_json(verify_hopf(ctx, degree))
        assert report["summary"]["failed"] == 0, (name, report["summary"])
    elapsed = time.time() - t0
    assert elapsed < 120
    _announce(2, "Hopf axiom suite", f"{elapsed:.1f}s, budget 4")


def test_criterion_3_morphism_suite():
    t0 = time.time()
    laws = verify_morphism_laws(4)
    report = report_to_json(laws)
    assert report["summary"]["failed"] == 0, report["summary"]
    lemmas = verify_annihilation(4)
    lemma_report = report_to_json(lemmas)
    assert lemma_report["summary"]["failed"] == 0, lemma_report["summary"]
    total = report["summary"]["total"] + lemma_report["summary"]["total"]
    _announce(3, "morphism suite", f"{total} checks, {time.time() - t0:.1f}s")


def test_criterion_4_commuting_square():
    t0 = time.time()
    report = report_to_json(verify_square(4))
    elapsed = time.time() - t0
    assert report["summary"]["failed"] == 0
    assert report["summary"]["total"] == sum(
        2**n * math.factorial(n) for n in range(5)
    )
    assert elapsed < 30
    _announce(4, "commuting square", f"{report['summary']['total']} permutations, "
              f"{elapsed:.1f}s")


def test_criterion_5_oracle_equivalences():
    t0 = time.time()

    # recursive quasi-shuffle against the injection-pair stuffle
    alphabet = (1, -1, 2, -2, 3, -3)
    pairs = 0
    for total in range(7):
        for m in range(total + 1):
            for u in itertools.product(alphabet, repeat=m):
                for v in itertools.product(alphabet, repeat=total - m):
                    assert quasi_shuffle(u, v, -1) == stuffle(u, v, -1), (u, v)
                    pairs += 1

    # basis change round trip
    for w in range(6):
        for alpha in regularized_compositions(w):
            assert f_to_m(alpha).map_basis(m_to_f) == LinComb.single(alpha)

    # phi1 on fundamentals equals the conjugated monomial map
    for w in range(5):
        for alpha in regularized_compositions(w):
            conjugated = f_to_m(alpha).map_basis(phi1_m).map_basis(m_to_f)
            assert phi1_f(alpha) == conjugated

    # alternating multinomial sums collapse to one
    for m in range(7):
        for n in range(7):
            assert sum(multinomial_collapse(m, n).terms.values()) == 1

    _announce(5, "oracle equivalences",
              f"{pairs} word pairs, {time.time() - t0:.1f}s")


def test_criterion_6_generating_functions():
    t0 = time.time()
    report = report_to_json(
        verify_gamma_identities(
            max_len=3, k=6, pair_len=4, pair_k=8,
            random_cases=50, random_k=4,
        )
    )
    elapsed = time.time() - t0
    assert report["summary"]["failed"] == 0, report["summary"]
    assert elapsed < 120
    _announce(6, "generating functions",
              f"{report['summary']['total']} checks, {elapsed:.1f}s")


def test_criterion_7_antipode_convolutions():
    t0 = time.time()

    ctx = context_by_name("hsym", -1)
    for n in range(4):
        for pi in signed_permutations(n):
            target = LinComb.single((), ctx.counit(pi))
            conv = LinComb.zero()
            for (a, b), c in ctx.coproduct(pi).terms.items():
                for ka, ca in ctx.antipode(a).terms.items():
                    conv = conv + ctx.product(ka, b).scale(c * ca)
            assert conv == target, pi

    ctx = context_by_name("rqsym-m")
    for w in range(5):
        for alpha in regularized_compositions(w):
            conv = LinComb.zero()
            for (a, b), c in ctx.coproduct(alpha).terms.items():
                for ka, ca in rqsym_antipode_m(a).terms.items():
                    conv = conv + ctx.product(ka, b).scale(c * ca)
            assert conv == LinComb.single((), ctx.counit(alpha)), alpha

    _announce(7, "antipode convolutions", f"{time.time() - t0:.1f}s")
