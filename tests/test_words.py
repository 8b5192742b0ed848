"""Standardization, quasi-shuffle and stuffle products, descents."""

import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from wqsym import words
from wqsym.compositions import EPS, ntilde_add
from wqsym.lincomb import LinComb
from oracles import (
    descent_set,
    min_bullet,
    multinomial_collapse,
    quasi_shuffle_recursion,
    right_quasi_shuffle_step,
    shifted_quasi_shuffle_recursion,
    shifted_quasi_shuffle_reference,
    stuffle,
    stuffle_patterns,
)
from wqsym.words import (
    is_signed_permutation,
    perm_to_text,
    quasi_shuffle,
    shift,
    shifted_quasi_shuffle,
    shifted_shuffle,
    sign_bullet,
    signed_permutations,
    standardize,
    text_to_perm,
    weak_descent_set,
)


def test_standardize_known_values():
    assert standardize((3, -2, 7, -5)) == (2, -1, 4, -3)
    assert standardize((2, -2, 1, -2, 2)) == (2, -3, 1, -4, 5)
    assert standardize(()) == ()


def test_standardize_idempotent_and_sign_preserving():
    for n in range(5):
        for pi in signed_permutations(n):
            assert standardize(pi) == pi
    for word in itertools.product((1, -1, 2, -2), repeat=4):
        st = standardize(word)
        assert standardize(st) == st
        assert all((a > 0) == (b > 0) for a, b in zip(word, st))
        assert is_signed_permutation(st)


def test_shift():
    assert shift((2, -1), 2) == (4, -3)
    assert shift((1, 2), 2) == (3, 4)
    assert shift((3, -5, 1), 0) == (3, -5, 1)


def test_quasi_shuffle_single_letters():
    # two negative letters: a.b = a
    out = quasi_shuffle((-1,), (-2,), Fraction(2, 3))
    assert out == LinComb(
        {(-1, -2): 1, (-2, -1): 1, (-1,): Fraction(2, 3)}
    )
    assert quasi_shuffle((-1,), (-2,), -1) == LinComb(
        {(-1, -2): 1, (-2, -1): 1, (-1,): -1}
    )


def test_quasi_shuffle_weight_zero_is_plain_shuffle():
    for m, n in [(1, 2), (2, 2), (3, 2)]:
        u = tuple(range(1, m + 1))
        v = tuple(range(m + 1, m + n + 1))
        out = quasi_shuffle(u, v, 0)
        assert sum(out.terms.values()) == comb(m + n, m)
        assert all(len(w) == m + n for w in out.terms)


def test_quasi_shuffle_unit():
    assert quasi_shuffle((), (3, -1), -1) == LinComb.single((3, -1))
    assert quasi_shuffle((3, -1), (), -1) == LinComb.single((3, -1))


def test_stuffle_matches_quasi_shuffle_small():
    alphabet = (1, -1, 2, -2)
    for lam in (-1, 0, 1, Fraction(2, 3)):
        for total in range(5):
            for m in range(total + 1):
                for u in itertools.product(alphabet, repeat=m):
                    for v in itertools.product(alphabet, repeat=total - m):
                        assert quasi_shuffle(u, v, lam) == stuffle(u, v, lam)


def test_stuffle_single_letters():
    out = stuffle((-1,), (-2,), -1)
    assert out == LinComb({(-1, -2): 1, (-2, -1): 1, (-1,): -1})


def test_injection_pair_counts():
    # |J_{m,n,r}| = C(m+n-r, r) C(m+n-2r, m-r)
    for m in range(5):
        for n in range(5):
            for r in range(min(m, n) + 1):
                expected = comb(m + n - r, r) * comb(m + n - 2 * r, m - r)
                assert sum(1 for _ in stuffle_patterns(m, n, r)) == expected


def test_right_recursion_agrees_with_quasi_shuffle():
    alphabet = (1, -2, 3, -4)
    for total in range(2, 6):
        for m in range(1, total):
            for u in itertools.product(alphabet, repeat=m):
                for v in itertools.product(alphabet, repeat=total - m):
                    assert right_quasi_shuffle_step(u, v, -1) == quasi_shuffle(
                        u, v, -1
                    )


def test_right_recursion_base_case():
    out = right_quasi_shuffle_step((-1,), (-2,), 5)
    assert out == LinComb({(-1, -2): 1, (-2, -1): 1, (-1,): 5})
    out = right_quasi_shuffle_step((1, 2), (3,), 0)
    assert out == LinComb({(1, 2, 3): 1, (1, 3, 2): 1, (3, 1, 2): 1})


def test_right_recursion_rejects_empty():
    with pytest.raises(ValueError):
        right_quasi_shuffle_step((), (1,), -1)
    with pytest.raises(ValueError):
        right_quasi_shuffle_step((1,), (), -1)


def _weak_descents_by_the_letter(pi):
    # literal scan of the defining condition, kept separate from the
    # implementation on purpose
    n = len(pi)
    if n == 0:
        return set()
    if pi[n - 1] < 0:
        return {i for i in range(1, n) if pi[i - 1] > max(0, pi[i])}
    return {i for i in range(1, n) if pi[i - 1] > max(0, pi[i])} | {n}


def test_weak_descent_examples():
    assert weak_descent_set((1, 3, 2)) == {2, 3}
    assert weak_descent_set((5, -3, 2, 4, -6, -1)) == {1, 4}
    assert weak_descent_set((-2, -3, -1)) == set()
    assert weak_descent_set(()) == set()


def test_weak_descents_against_literal_scan():
    for n in range(5):
        for pi in signed_permutations(n):
            assert weak_descent_set(pi) == _weak_descents_by_the_letter(pi)


def test_descent_set_with_leading_zero():
    # position 0 counts when the first letter is negative
    assert descent_set((-1, 2)) == {0}
    assert descent_set((2, 1)) == {1}
    assert descent_set(()) == set()


def test_multinomial_collapse_values():
    assert multinomial_collapse(1, 1) == LinComb({2: 2, 1: -1})
    assert multinomial_collapse(0, 3) == LinComb({3: 1})
    assert multinomial_collapse(2, 0) == LinComb({2: 1})


def test_multinomial_collapse_matches_actual_product():
    for m in range(4):
        for n in range(4):
            u = tuple(-i for i in range(1, m + 1))
            v = shift(tuple(-i for i in range(1, n + 1)), m)
            by_length = {}
            for word, coeff in quasi_shuffle(u, v, -1).terms.items():
                assert all(a < 0 for a in word)
                by_length[len(word)] = by_length.get(len(word), 0) + coeff
            assert LinComb(by_length) == multinomial_collapse(m, n)


def test_alternating_multinomial_sum_is_one():
    for m in range(7):
        for n in range(7):
            assert sum(multinomial_collapse(m, n).terms.values()) == 1


def test_shifted_shuffle_of_12_and_12():
    out = shifted_shuffle((1, 2), (1, 2))
    assert out == LinComb(
        {w: 1 for w in [(1, 2, 3, 4), (1, 3, 2, 4), (1, 3, 4, 2),
                        (3, 1, 2, 4), (3, 1, 4, 2), (3, 4, 1, 2)]}
    )


EXPECTED_12_21 = {
    (1, -2, 4, -3): 1,
    (1, 4, -2, -3): 1,
    (1, 4, -3, -2): 1,
    (4, 1, -2, -3): 1,
    (4, 1, -3, -2): 1,
    (4, -3, 1, -2): 1,
}


def test_shifted_quasi_shuffle_12_21():
    for lam in (-1, 0, 1):
        expected = dict(EXPECTED_12_21)
        if lam:
            expected[(1, 3, -2)] = lam
            expected[(3, 1, -2)] = lam
        assert shifted_quasi_shuffle((1, -2), (2, -1), lam) == LinComb(expected)


def test_shifted_quasi_shuffle_negative_letters():
    out = shifted_quasi_shuffle((-1,), (-1,), -1)
    assert out == LinComb({(-1, -2): 1, (-2, -1): 1, (-1,): -1})


def test_shift_amount_does_not_matter_beyond_length():
    for sigma in [(1, -2), (2, 1), (-1,)]:
        for tau in [(1,), (-2, 1), (2, -1)]:
            m = len(sigma)
            base = shifted_quasi_shuffle(sigma, tau, -1)
            for k in (m + 1, m + 3):
                raw = quasi_shuffle(sigma, shift(tau, k), -1)
                st_terms = {}
                for w, c in raw.terms.items():
                    key = standardize(w)
                    st_terms[key] = st_terms.get(key, 0) + c
                assert LinComb(st_terms) == base


@pytest.mark.parametrize("lam", [-1, 0, Fraction(2, 3)])
def test_merge_free_terms_skip_standardize(lam):
    """The product relabels only the words shorter than the full length;
    the reference standardizes every term.  Every pair of signed
    permutations of total degree <= 4."""
    perms = [list(signed_permutations(n)) for n in range(5)]
    pairs = 0
    for m in range(5):
        for n in range(5 - m):
            for sigma in perms[m]:
                for tau in perms[n]:
                    got = shifted_quasi_shuffle(sigma, tau, lam)
                    assert got.terms == shifted_quasi_shuffle_reference(sigma, tau, lam).terms
                    assert all(is_signed_permutation(w) for w in got.terms)
                    pairs += 1
    assert pairs == 1177


def test_relabelled_product_matches_the_reference():
    """Every pair of total degree <= 5, where a kept letter of tau[m] first
    has two dropped letters below it, and a seeded sample of total degree
    6-9, against the reference that standardizes every term; the terms
    come in the reference's order too."""
    perms = [list(signed_permutations(n)) for n in range(6)]
    pairs = [(sigma, tau) for m in range(6) for n in range(6 - m)
             for sigma in perms[m] for tau in perms[n]]
    rng = random.Random(25)
    for total in range(6, 10):
        for _ in range(12):
            m = rng.randint(0, total)
            pairs.append(tuple(tuple(a if rng.random() < 0.5 else -a
                                     for a in rng.sample(range(1, n + 1), n))
                               for n in (m, total - m)))
    assert len(pairs) == 11161 + 48
    for lam in (-1, 0, 1, Fraction(2, 3)):
        for sigma, tau in pairs:
            got = shifted_quasi_shuffle(sigma, tau, lam).terms
            want = shifted_quasi_shuffle_reference(sigma, tau, lam).terms
            assert list(got.items()) == list(want.items()), (sigma, tau, lam)


def _signed_permutation(rng, n):
    return tuple(a if rng.random() < 0.5 else -a for a in rng.sample(range(1, n + 1), n))


@pytest.mark.parametrize("lam", [-1, 0, 1, Fraction(2, 3)])
def test_tables_match_the_letter_by_letter_recursions(lam):
    """Both products against the recursions they replaced: quasi_shuffle
    with the sign bullet on signed words and with ntilde_add on regularized
    compositions, and the shifted product on signed permutations.  Every
    pair of total length <= 5, and a seeded sample of total length 6-12,
    past TABLE_LENGTH, where the walk takes letters before it reads a
    table."""
    rng = random.Random(29)
    for bullet, alphabet in ((sign_bullet, (1, -1, 2, -2)), (ntilde_add, (1, 2, EPS))):
        pairs = [(u, v) for total in range(6) for m in range(total + 1)
                 for u in itertools.product(alphabet, repeat=m)
                 for v in itertools.product(alphabet, repeat=total - m)]
        pairs += [tuple(tuple(rng.choice(alphabet) for _ in range(n)) for n in (m, total - m))
                  for total in range(6, 13) for m in rng.sample(range(total + 1), 4)]
        for u, v in pairs:
            assert quasi_shuffle(u, v, lam, bullet) == quasi_shuffle_recursion(u, v, lam, bullet)
    perms = [list(signed_permutations(n)) for n in range(6)]
    pairs = [(sigma, tau) for m in range(6) for n in range(6 - m)
             for sigma in perms[m] for tau in perms[n]]
    pairs += [(_signed_permutation(rng, m), _signed_permutation(rng, total - m))
              for total in range(6, 13) for m in rng.sample(range(total + 1), 6)]
    for sigma, tau in pairs:
        got = shifted_quasi_shuffle(sigma, tau, lam)
        assert got == shifted_quasi_shuffle_recursion(sigma, tau, lam), (sigma, tau)


def test_no_table_is_built_past_the_bound(monkeypatch):
    """Products of two 8-letter words take letters until the rest fits: every
    table they build has m + n <= TABLE_LENGTH, and some reach it."""
    monkeypatch.setattr(words, "_tables", {})
    rng = random.Random(8)
    shifted_quasi_shuffle(_signed_permutation(rng, 8), _signed_permutation(rng, 8), -1)
    quasi_shuffle(*(tuple(rng.choice((1, -1, 2, -2)) for _ in range(8)) for _ in "uv"), 1)
    shapes = [m + n for m, n, _ in words._tables]
    assert shapes and max(shapes) == words.TABLE_LENGTH


def test_shifted_product_associative():
    perms = [pi for n in range(3) for pi in signed_permutations(n)]
    for lam in (-1, Fraction(2, 3)):
        for a in perms:
            for b in perms:
                for c in perms:
                    lhs = shifted_quasi_shuffle(a, b, lam).map_basis(
                        lambda k: shifted_quasi_shuffle(k, c, lam)
                    )
                    rhs = shifted_quasi_shuffle(b, c, lam).map_basis(
                        lambda k: shifted_quasi_shuffle(a, k, lam)
                    )
                    assert lhs == rhs


def test_bullets_are_associative():
    # on formal spans, with 0 as the absorbing zero element
    def compose(bullet, a, b):
        return bullet(a, b) if a and b else 0

    letters = (-3, -1, 1, 2)
    for bullet in (sign_bullet, min_bullet):
        for a in letters:
            for b in letters:
                for c in letters:
                    lhs = compose(bullet, compose(bullet, a, b), c)
                    rhs = compose(bullet, a, compose(bullet, b, c))
                    assert lhs == rhs


def test_commutative_bullet_gives_commutative_product():
    alphabet = (1, 2, 3)
    for total in range(4):
        for m in range(total + 1):
            for u in itertools.product(alphabet, repeat=m):
                for v in itertools.product(alphabet, repeat=total - m):
                    assert quasi_shuffle(u, v, 1, min_bullet) == quasi_shuffle(
                        v, u, 1, min_bullet
                    )


def test_noncommutative_commutator_identity():
    # a * b - b * a = lam (a.b - b.a) on single letters
    lam = -1
    for a in (-2, -1, 1, 2):
        for b in (-3, 3):
            lhs = quasi_shuffle((a,), (b,), lam) - quasi_shuffle((b,), (a,), lam)
            rhs = LinComb.zero()
            ab, ba = sign_bullet(a, b), sign_bullet(b, a)
            if ab:
                rhs = rhs + LinComb.single((ab,), lam)
            if ba:
                rhs = rhs - LinComb.single((ba,), lam)
            assert lhs == rhs


def test_ssym_is_closed_and_weight_independent():
    for m in range(4):
        for n in range(4 - m):
            for sigma in itertools.permutations(range(1, m + 1)):
                for tau in itertools.permutations(range(1, n + 1)):
                    base = shifted_quasi_shuffle(sigma, tau, 0)
                    assert all(
                        all(a > 0 for a in key) for key in base.terms
                    )
                    for lam in (-1, 1):
                        assert shifted_quasi_shuffle(sigma, tau, lam) == base


def test_perm_text_round_trip():
    assert perm_to_text(()) == "id"
    assert text_to_perm("id") == ()
    assert text_to_perm("5,-3,2,4,-6,-1") == (5, -3, 2, 4, -6, -1)
    assert perm_to_text((5, -3, 2, 4, -6, -1)) == "5,-3,2,4,-6,-1"
    with pytest.raises(ValueError, match="zero letter at position 2 of '1,0,2'"):
        text_to_perm("1,0,2")
    with pytest.raises(ValueError, match="bad letter 'x' at position 2 of '1,x'"):
        text_to_perm("1,x")


@pytest.mark.parametrize("text, message", [
    ("1,x", "bad letter 'x' at position 2 of '1,x'"),
    ("1,,2", "bad letter '' at position 2 of '1,,2'"),
    ("x,0", "bad letter 'x' at position 1 of 'x,0'"),
    ("1,0,2", "zero letter at position 2 of '1,0,2'"),
    ("2,0,x", "zero letter at position 2 of '2,0,x'"),
    (" -1,-0 ", "zero letter at position 2 of '-1,-0'"),
    ("1,1", "'1,1' is not a signed permutation"),
    ("-1,3", "'-1,3' is not a signed permutation"),
])
def test_perm_text_errors_name_the_first_bad_letter(text, message):
    """The letters are read whole first and walked only to name an error:
    the first letter that is no integer or is zero, else the word."""
    with pytest.raises(ValueError) as refused:
        text_to_perm(text)
    assert str(refused.value) == message
