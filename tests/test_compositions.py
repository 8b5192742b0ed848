"""The monoid with epsilon, regularized compositions, refinement, and the
quasi-shuffle of compositions."""

import itertools
import pickle

import pytest

from wqsym import lincomb
from wqsym.lincomb import LinComb
from wqsym.compositions import (
    EPS,
    comp_to_text,
    eps_runs,
    j_apply,
    ntilde_add,
    refinement_terms,
    regularize,
    regularized_compositions,
    reversal,
    star_product,
    text_to_comp,
    total_weight,
    wcomp,
    wcomp_preimage,
)
from wqsym.words import (
    is_signed_permutation,
    quasi_shuffle,
    shift,
    signed_permutations,
    standardize,
    weak_descent_set,
)
from oracles import (
    comp_descent_set as descent_set,
    concat,
    enumerate_refinements,
    near_concat,
    refines,
    stats,
    stuffle,
    unregularize,
    weight,
)


def test_eps_pickles_by_reference():
    """Worker processes of ``--jobs`` receive keys by pickle; epsilon
    parts must come back as the one ``EPS``, whichever module it is
    imported from."""
    assert pickle.loads(pickle.dumps((1, EPS, EPS))) == (1, EPS, EPS)
    assert pickle.loads(pickle.dumps(EPS)) is EPS is lincomb.EPS


def test_monoid_addition_table():
    assert ntilde_add(EPS, EPS) is EPS
    assert ntilde_add(0, EPS) is EPS
    assert ntilde_add(EPS, 0) is EPS
    assert ntilde_add(2, EPS) == 2
    assert ntilde_add(EPS, 2) == 2
    assert ntilde_add(0, 0) == 0
    assert ntilde_add(2, 3) == 5


def test_regularize_examples():
    assert regularize((1, 0, 2, 3)) == (1, EPS, 2, 3)
    assert regularize((0,)) == (EPS,)
    assert regularize(()) == ()
    with pytest.raises(ValueError):
        regularize((1, -1))


def test_regularize_is_a_bijection_on_small_weak_compositions():
    seen = {}
    for length in range(6):
        for parts in itertools.product(range(5), repeat=length):
            image = regularize(parts)
            assert image not in seen
            seen[image] = parts
            assert unregularize(image) == parts


def _stats_by_blocks(alpha):
    # independent recomputation straight from the block description
    runs, parts = eps_runs(alpha)
    k = len(parts)
    eps_len = sum(runs)
    if k == 0:
        w = EPS if runs[0] else 0
        tot = eps_len  # |alpha| + eps-length in the monoid collapses to eps_len
    else:
        w = sum(parts)
        tot = w + eps_len
    descents = set()
    b = 0
    for q in range(k):
        b += runs[q] + parts[q]
        descents.add(b)
    return w, tot, eps_len, descents


def test_stats_examples():
    a = (EPS, 1, EPS, EPS)
    assert stats(a) == (1, 4, 3, {2})
    b = (2, 1)
    assert stats(b) == (3, 3, 0, {2, 3})
    assert total_weight(b) in descent_set(b)
    c = (EPS, EPS)
    assert weight(c) is EPS
    assert stats(c)[1:] == (2, 2, set())
    assert stats(()) == (0, 0, 0, set())


def test_stats_against_block_oracle():
    for w in range(6):
        for alpha in regularized_compositions(w):
            assert stats(alpha) == _stats_by_blocks(alpha)
            assert descent_set(alpha) <= set(range(1, total_weight(alpha) + 1))
            is_comp = all(isinstance(p, int) for p in alpha)
            assert (weight(alpha) == total_weight(alpha)) == is_comp or not alpha


def test_trailing_run_decides_final_descent():
    for w in range(1, 6):
        for alpha in regularized_compositions(w):
            runs, parts = eps_runs(alpha)
            if parts:
                assert (total_weight(alpha) in descent_set(alpha)) == (runs[-1] == 0)


def test_refinement_worked_example():
    alpha = text_to_comp("1,2,e,e,1,3,2,e")
    beta = text_to_comp("3,e,e,1,e,5,e,e,e")
    assert refines(alpha, beta)
    assert not refines(beta, alpha)
    gamma = text_to_comp("1,2,e,e,1,3,2")
    assert not refines(gamma, beta)
    assert not refines(beta, gamma)


def test_refinement_is_a_partial_order():
    keys = [a for w in range(6) for a in regularized_compositions(w)]
    for a in keys:
        assert refines(a, a)
    related = []
    for a in keys:
        for b in keys:
            if refines(a, b):
                related.append((a, b))
                if refines(b, a):
                    assert a == b
    for a, b in related:
        for c in keys:
            if refines(b, c):
                assert refines(a, c)


def test_enumerate_refinements_examples():
    assert set(enumerate_refinements((2,))) == {(2,), (1, 1)}
    assert enumerate_refinements((EPS,)) == [(EPS,)]


def test_enumerate_refinements_against_brute_force():
    universe = [b for w in range(6) for b in regularized_compositions(w)]
    for w in range(6):
        for alpha in regularized_compositions(w):
            fast = sorted(enumerate_refinements(alpha), key=str)
            brute = sorted(
                (b for b in universe if total_weight(b) <= w and refines(b, alpha)),
                key=str,
            )
            assert fast == brute


def test_basis_change_coefficient_examples():
    # all-epsilon coarsenings carry binomial weights from the trailing run
    terms = dict(refinement_terms((EPS, EPS, EPS)))
    assert terms == {(EPS,): 1, (EPS, EPS): 2, (EPS, EPS, EPS): 1}
    # interior run of length 2 against a kept run of length 1
    terms = dict(refinement_terms((EPS, EPS, 1)))
    assert terms == {(1,): 1, (EPS, 1): 2, (EPS, EPS, 1): 1}


def test_structural_ops_worked_example():
    alpha = text_to_comp("3,1,e")
    beta = text_to_comp("2,e")
    assert reversal(alpha) == text_to_comp("e,1,3")
    assert j_apply((1, 2), alpha) == (3, 1)
    assert concat(alpha, beta) == text_to_comp("3,1,e,2,e")
    assert near_concat(reversal(alpha), beta) == text_to_comp("e,1,5,e")
    with pytest.raises(ValueError):
        near_concat(alpha, beta)
    with pytest.raises(ValueError):
        j_apply((1, 1), alpha)
    with pytest.raises(ValueError):
        j_apply((2, 2), alpha)


def test_star_product_examples():
    assert star_product((1,), (1,)) == LinComb({(1, 1): 2, (2,): 1})
    assert star_product((EPS,), (1,)) == LinComb(
        {(EPS, 1): 1, (1, EPS): 1, (1,): 1}
    )
    alpha = (2, EPS, 1)
    assert star_product((), alpha) == LinComb.single(alpha)
    assert star_product(alpha, ()) == LinComb.single(alpha)


def test_star_product_matches_the_stuffle_oracle():
    """star_product is the word recursion with monoid addition as the
    bullet; the stuffle form of the same product is its reference."""
    keys = [a for w in range(7) for a in regularized_compositions(w)]
    pairs = 0
    for a in keys:
        for b in keys:
            if total_weight(a) + total_weight(b) <= 6:
                assert star_product(a, b) == stuffle(a, b, 1, ntilde_add), (a, b)
                pairs += 1
    assert pairs == 1985


def test_star_product_associative_and_graded():
    keys = [a for w in range(3) for a in regularized_compositions(w)]
    for a in keys:
        for b in keys:
            prod = star_product(a, b)
            expected = ntilde_add(weight(a) if a else 0, weight(b) if b else 0)
            for key in prod.terms:
                assert weight(key) == (expected if key else 0) or not key
            for c in keys:
                lhs = prod.map_basis(lambda k: star_product(k, c))
                rhs = star_product(b, c).map_basis(lambda k: star_product(a, k))
                assert lhs == rhs


def test_wcomp_examples():
    assert wcomp((5, -6, 2, 4, 3, -7, -1)) == (1, EPS, 2, 1, EPS, EPS)
    assert wcomp((-4, 2, -1, -3)) == (EPS, 1, EPS, EPS)
    assert wcomp(()) == ()


def test_wcomp_invariants():
    for n in range(7):
        for pi in signed_permutations(n):
            alpha = wcomp(pi)
            assert total_weight(alpha) == n
            assert descent_set(alpha) == weak_descent_set(pi)


def test_wcomp_split_rule():
    # cutting at a negative letter or a weak descent concatenates; cutting
    # inside an ascent of a positive block near-concatenates
    for n in range(1, 5):
        for pi in signed_permutations(n):
            full = wcomp(pi)
            wd = weak_descent_set(pi)
            for p in range(1, n):
                left = wcomp(standardize(pi[:p]))
                right = wcomp(standardize(pi[p:]))
                if pi[p - 1] < 0 or p in wd:
                    assert full == concat(left, right)
                else:
                    assert full == near_concat(left, right)


def test_wcomp_of_a_raw_product_word_is_wcomp_of_its_standardization():
    """wcomp skips st: on every raw word of s * t[len(s)] at weight -1,
    merged or not, it equals wcomp of the standardized word."""
    perms = [list(signed_permutations(n)) for n in range(5)]
    for a in range(5):
        for b in range(5 - a):
            for s, t in itertools.product(perms[a], perms[b]):
                for w in quasi_shuffle(s, shift(t, a), -1).terms:
                    assert wcomp(w) == wcomp(standardize(w)), w
    assert wcomp((7, 2, 2, -9)) == wcomp(standardize((7, 2, 2, -9))) == (1, 2, EPS)


def test_wcomp_preimage_round_trip():
    for w in range(8):
        for alpha in regularized_compositions(w):
            pi = wcomp_preimage(alpha)
            assert is_signed_permutation(pi), alpha
            assert wcomp(pi) == alpha


def test_composition_text_round_trip():
    assert comp_to_text(()) == "empty"
    assert text_to_comp("empty") == ()
    assert text_to_comp("1,e,2,1,e,e") == (1, EPS, 2, 1, EPS, EPS)
    assert comp_to_text((1, EPS, 2)) == "1,e,2"
    with pytest.raises(ValueError, match="nonpositive part 0 at position 2 of '1,0,2'"):
        text_to_comp("1,0,2")
    with pytest.raises(ValueError, match="bad part 'x' at position 2 of '1,x'"):
        text_to_comp("1,x")


def test_regularized_composition_counts():
    # parts of size one come in two colors, so the count of total weight w
    # compositions is sum over compositions of 2^(number of ones)
    counts = [len(regularized_compositions(w)) for w in range(6)]
    assert counts == [1, 2, 5, 13, 34, 89]
