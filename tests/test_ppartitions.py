"""Posets, signed P-partitions, and their generating functions, truncated
and in the monomial basis."""

import importlib
import itertools
import json
import math
import os
import random
import shutil
import sys
from fractions import Fraction

import pytest

from wqsym.compositions import (
    EPS,
    eps_runs,
    ntilde_add,
    refinement_terms,
    regularized_compositions,
    wcomp,
    wcomp_preimage,
)
import wqsym
from wqsym import cli, ppartitions
from wqsym.hopf import f_to_m, report_to_json
from wqsym.laws import graded_tuples
from wqsym.ppartitions import (
    Poset,
    Series,
    _chain_shape,
    chain_poset,
    enumerate_ppartitions,
    expand_f,
    expand_m,
    expansion_size,
    gamma,
    gamma_m,
    parse_poset,
    random_poset,
    verify_gamma_identities,
)
from wqsym.lincomb import LinComb, accumulate
from wqsym.words import shifted_quasi_shuffle, signed_permutations

from oracles import (
    comp_descent_set,
    expand_m_reference,
    gamma_combo,
    gamma_word,
    series_one,
    series_product_reference,
)


# reference implementations: the plain versions the library's fast paths
# are checked against


def gamma_reference(poset, k):
    """Gamma as the sum of one monomial per P-partition: x_{f(a)} for a
    positive label a, x_{f(a)}^e for a negative one."""
    out = Series.zero(k)
    for f in enumerate_ppartitions(poset, k):
        exps = [0] * k
        for label, value in f.items():
            exps[value - 1] = ntilde_add(exps[value - 1], 1 if label > 0 else EPS)
        out = out + Series(k, {tuple(exps): 1})
    return out


def expand_f_reference(alpha, k):
    """F_alpha by recursion over the positions of the weakly increasing
    tuples."""
    runs, parts = eps_runs(alpha)
    pattern = []
    for q, s in enumerate(parts):
        pattern.extend([EPS] * runs[q])
        pattern.extend([1] * s)
    pattern.extend([EPS] * runs[-1])
    n = len(pattern)
    strict = comp_descent_set(alpha)
    out = {}
    exps = [0] * k

    def rec(t, j):
        if t == n:
            key = tuple(exps)
            out[key] = out.get(key, 0) + 1
            return
        lo = j + 1 if (t > 0 and t in strict) else max(j, 1)
        for value in range(lo, k + 1):
            old = exps[value - 1]
            exps[value - 1] = ntilde_add(old, pattern[t])
            rec(t + 1, value)
            exps[value - 1] = old

    rec(0, 0)
    return Series(k, out)


def linear_extensions_reference(poset):
    """Linear extensions by recursion, trying the minimal elements in order
    of absolute value."""
    st = poset.standardize()
    order = []
    out = []
    indeg = {a: len(st._below[a]) for a in st.labels}
    placed = set()

    def rec():
        ready = sorted((a for a in st.labels if indeg[a] == 0 and a not in placed),
                       key=abs)
        if not ready:
            if len(order) == len(st.labels):
                out.append(tuple(order))
            return
        for a in ready:
            placed.add(a)
            order.append(a)
            for b in st._above[a]:
                indeg[b] -= 1
            rec()
            for b in st._above[a]:
                indeg[b] += 1
            order.pop()
            placed.discard(a)

    rec()
    return out


# stem below a fork: -4 < 2 with 2 < -1 and 2 < -3
FORK = Poset([-1, 2, -3, -4], [(-4, 2), (2, -1), (2, -3)])


def test_poset_validation():
    with pytest.raises(ValueError):
        Poset([0, 1])
    with pytest.raises(ValueError):
        Poset([1, -1])
    with pytest.raises(ValueError):
        Poset([1, 2], [(1, 3)])
    with pytest.raises(ValueError):
        Poset([1, 2], [(1, 2), (2, 1)])


def test_linear_extensions_two_minimal_below_one():
    # 5 and 8- both below 2; standard labels: 2 and 3- below 1
    p = Poset([5, 2, -8], [(5, 2), (-8, 2)])
    st = p.standardize()
    assert st.labels == (1, 2, -3)
    assert st.covers == ((-3, 1), (2, 1))
    assert sorted(p.linear_extensions()) == [(-3, 2, 1), (2, -3, 1)]


def test_linear_extensions_of_the_fork():
    assert sorted(FORK.linear_extensions()) == [(-4, 2, -3, -1), (-4, 2, -1, -3)]


def test_linear_extensions_antichain():
    p = Poset([1, -2, 3])
    exts = p.linear_extensions()
    assert len(exts) == 6
    assert len(set(exts)) == 6


def test_ppartitions_of_a_chain():
    parts = enumerate_ppartitions(chain_poset((-4, 2, -1, -3)), 2)
    assert parts == [{-4: 1, 2: 1, -1: 2, -3: 2}]


def test_ppartitions_single_element():
    assert len(enumerate_ppartitions(Poset([1]), 3)) == 3
    assert len(enumerate_ppartitions(Poset([-1]), 3)) == 3


def test_fork_partition_constraints():
    k = 4
    got = {frozenset(f.items()) for f in enumerate_ppartitions(FORK, k)}
    want = set()
    for vals in itertools.product(range(1, k + 1), repeat=4):
        f = dict(zip([-4, 2, -1, -3], vals))
        if f[-4] <= f[2] < f[-1] and f[2] < f[-3]:
            want.add(frozenset(f.items()))
    assert got == want


def test_ppartitions_of_random_posets_against_brute_force():
    rng = random.Random(11)
    for _ in range(100):
        poset = random_poset(rng, 6)
        for k in (1, 3):
            got = enumerate_ppartitions(poset, k)
            want = []
            for vals in itertools.product(range(1, k + 1), repeat=len(poset.order)):
                f = dict(zip(poset.order, vals))
                if all(f[a] < f[b] if a > max(0, b) else f[a] <= f[b]
                       for a, b in poset.covers):
                    want.append(f)
            assert got == want, poset


def test_fork_extension_overlap():
    k = 4
    pi, sigma = (-4, 2, -1, -3), (-4, 2, -3, -1)
    a_pi = {frozenset(f.items()) for f in enumerate_ppartitions(chain_poset(pi), k)}
    a_sigma = {
        frozenset(f.items()) for f in enumerate_ppartitions(chain_poset(sigma), k)
    }
    a_p = {frozenset(f.items()) for f in enumerate_ppartitions(FORK, k)}
    assert a_p == a_pi | a_sigma
    overlap = {
        frozenset(f.items())
        for f in (
            dict(zip([-4, 2, -1, -3], vals))
            for vals in itertools.product(range(1, k + 1), repeat=4)
        )
        if f[-4] <= f[2] < f[-1] == f[-3]
    }
    assert a_pi & a_sigma == overlap


def test_linear_extensions_match_the_recursive_reference():
    rng = random.Random(5)
    posets = [Poset([]), FORK] + [random_poset(rng, 6) for _ in range(150)]
    for poset in posets:
        assert poset.linear_extensions() == linear_extensions_reference(poset), poset


def test_linear_extensions_of_a_deep_chain():
    chain = chain_poset(tuple(range(1, 3001)))
    assert chain.linear_extensions() == [tuple(range(1, 3001))]


def test_gamma_matches_the_monomial_sum():
    rng = random.Random(3)
    posets = [Poset([]), FORK] + [random_poset(rng, 7) for _ in range(120)]
    # antichains and chains with mixed signs, whose partitions overlap most
    # and least
    for word in [(1,), (-1,), (1, -2), (-1, -2), (1, -2, 3), (-1, 2, -3, 4),
                 (-3, -1, 2, -4, 5)]:
        posets += [Poset(word), chain_poset(word), chain_poset(word[::-1])]
    for poset in posets:
        for k in range(6):
            got = gamma(poset, k)
            assert got == gamma_reference(poset, k), (poset, k)
            assert all(got.terms.values())


def test_gamma_needs_a_nonnegative_number_of_values():
    for poset in (Poset([]), Poset([-1]), FORK):
        with pytest.raises(ValueError):
            gamma(poset, -1)
    for alpha in ((1,), ()):
        with pytest.raises(ValueError):
            expand_f(alpha, -1)


def test_gamma_counts_its_entries_before_placing():
    """The bound is exact: with ``max_entries`` at k times the number of
    terms, gamma gives the series; one less, a ValueError."""
    rng = random.Random(29)
    posets = [Poset([]), FORK] + [random_poset(rng, 6) for _ in range(150)]
    for poset in posets:
        for k in range(1, 7):
            entries = k * len(gamma(poset, k).terms)
            assert gamma(poset, k, entries) == gamma(poset, k), (poset, k)
            with pytest.raises(ValueError, match=f"more than {entries - 1} entries"):
                gamma(poset, k, entries - 1)


def test_gamma_of_a_deep_chain():
    # one partition per place of the single step 1 -> 2 along 1 < ... < 3000
    got = gamma(chain_poset(tuple(range(1, 3001))), 2)
    assert got == Series(2, {(3000 - j, j): 1 for j in range(3001)})


def truncate_m(lc, k):
    """A combination of monomial functions, truncated to k variables by
    the reference, so that it checks the placement in ``gamma`` rather
    than repeating it."""
    out = {}
    for alpha, c in lc.terms.items():
        accumulate(out, expand_m_reference(alpha, k).terms.items(), c)
    return Series.wrap(k, out)


def test_expand_m_matches_the_reference():
    """Placement against the list-per-term reference, for every
    regularized composition of weight <= 5 and every k from 0 to 7: one
    term per l(alpha)-subset of the variables, C(k, l(alpha)) in all."""
    cases = 0
    for w in range(6):
        for alpha in regularized_compositions(w):
            for k in range(8):
                got = expand_m(alpha, k)
                assert got == expand_m_reference(alpha, k), (alpha, k)
                assert len(got.terms) == math.comb(k, len(alpha)), (alpha, k)
                assert set(got.terms.values()) <= {1}
                cases += 1
    assert cases > 1000


def test_gamma_m_truncates_to_gamma():
    rng = random.Random(23)
    posets = [random_poset(rng, 6) for _ in range(300)]
    assert max(map(len, posets)) == 6
    for poset in posets:
        got = gamma_m(poset)
        assert all(got.terms.values())
        for k in (1, 3, 5, 7):
            assert truncate_m(got, k) == gamma(poset, k), (poset, k)
    assert gamma_m(Poset([])) == LinComb.single(())


def test_gamma_m_of_an_antichain_prunes_its_walk(monkeypatch):
    """The antichain on 7 labels has one packed P-partition per ordered set
    partition of its labels, 47,293 in all.  Each placed value costs one
    monoid addition: the pruned walk places 116,369 values, far fewer than
    the 7^7 = 823,543 maps that gamma(P, 7) runs through."""
    placed = []

    def counting_add(a, b):
        placed.append(None)
        return ntilde_add(a, b)

    monkeypatch.setattr(ppartitions, "ntilde_add", counting_add)
    antichain = Poset([1, -2, 3, -4, 5, -6, 7])
    got = gamma_m(antichain)
    assert sum(got.terms.values()) == 47293
    assert len(placed) < 7 ** 7 // 5
    assert truncate_m(got, 3) == gamma(antichain, 3)


def test_truncated_gamma_multiplicativity():
    k = 6
    perms = [list(signed_permutations(n)) for n in range(4)]
    for sigma, tau in graded_tuples(perms, 2, 3):
        lhs = gamma_word(sigma, k) * gamma_word(tau, k)
        assert lhs == gamma_combo(shifted_quasi_shuffle(sigma, tau, -1), k), (sigma, tau)


def test_exact_laws_catch_a_weak_strict_cover(tmp_path, monkeypatch):
    """A copy of the package whose exponent odometer forgets the strict
    increment across a strict cover must fail the exact laws for Gamma(pi)
    and for products, though the second reads the odometer on both sides.
    The union law holds for any condition that stays inside each part."""
    mutant = tmp_path / "wqsym_mutant"
    shutil.copytree(os.path.dirname(wqsym.__file__), mutant,
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = (mutant / "ppartitions.py").read_text()
    head, core = source.split("def _exponent_counts(")
    core, tail = core.split("def gamma(")
    assert core.count("values[q] + strict") == 2
    core = core.replace("values[q] + strict", "values[q]")
    (mutant / "ppartitions.py").write_text(head + "def _exponent_counts(" + core
                                           + "def gamma(" + tail)
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        mutated = importlib.import_module("wqsym_mutant.ppartitions")
        report = report_to_json(mutated.verify_gamma_identities(2, 4, 3, 6))
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] == "wqsym_mutant"]:
            del sys.modules[name]
    failed = {check["law"]: check.get("failed", 0) for check in report["checks"]}
    assert failed["Gamma(pi) = F_{wcomp(pi)}"] > 0
    assert failed["Gamma(sigma) Gamma(tau) = Gamma(sigma * tau)"] > 0


def test_gamma_of_a_chain_depends_only_on_its_shape():
    """The suite memoizes Gamma of a word by ``_chain_shape``: the plain
    ``gamma_m`` must agree on all words of one shape, here every signed
    permutation of length <= 5."""
    by_shape = {}
    words = 0
    for n in range(6):
        for pi in signed_permutations(n):
            got = gamma_m(chain_poset(pi))
            assert by_shape.setdefault(_chain_shape(pi), got) == got, pi
            words += 1
    assert (words, len(by_shape)) == (4283, 144)


def test_a_shape_without_strict_steps_fails_the_laws(monkeypatch):
    """Keyed by the signs alone, the memo gives (1, 2) and (2, 1) one
    Gamma; the exact laws must report it, so they catch a key that is too
    coarse."""
    shape = ppartitions._chain_shape
    monkeypatch.setattr(ppartitions, "_chain_shape", lambda word: shape(word)[:1])
    report = report_to_json(verify_gamma_identities(2, 4, 3, 6))
    failed = {check["law"]: check.get("failed", 0) for check in report["checks"]}
    assert failed["Gamma(pi) = F_{wcomp(pi)}"] > 0
    assert failed["Gamma(sigma) Gamma(tau) = Gamma(sigma * tau)"] > 0


def negative_chain_poset(rng, max_size):
    """A random signed poset whose negative labels form a chain: covers
    drawn forward along a shuffled order, each step between consecutive
    negatives of that order forced in."""
    n = rng.randint(0, max_size)
    labels = [a if rng.random() < 0.5 else -a for a in rng.sample(range(1, 10), n)]
    order = labels[:]
    rng.shuffle(order)
    negatives = [a for a in order if a < 0]
    forced = set(zip(negatives, negatives[1:]))
    return Poset(labels, [(a, b) for p, a in enumerate(order) for b in order[p + 1:]
                          if (a, b) in forced or rng.random() < 0.5])


def sum_over_extensions(poset):
    """The sum of F_{wcomp(pi)} over the linear extensions pi of P, in M."""
    out = {}
    for pi in poset.linear_extensions():
        accumulate(out, f_to_m(wcomp(pi)).terms.items())
    return LinComb.wrap(out)


def test_fundamental_lemma_when_the_negatives_form_a_chain():
    """Gamma(P) = sum of F_{wcomp(pi)} over the linear extensions of P,
    exactly in M, when the negative labels of P form a chain."""
    rng = random.Random(5)
    posets = [negative_chain_poset(rng, 6) for _ in range(300)]
    assert max(map(len, posets)) == 6
    assert sum(1 for p in posets if sum(a < 0 for a in p.labels) >= 2) > 50
    for poset in posets:
        assert gamma_m(poset) == sum_over_extensions(poset), poset


def test_incomparable_negatives_break_the_fundamental_lemma():
    """-1 and -2 may share a value in either order, so both extensions
    count the partition that puts them together."""
    antichain = Poset([-1, -2])
    assert gamma_m(antichain) == LinComb({(EPS,): 1, (EPS, EPS): 2})
    assert sum_over_extensions(antichain) == LinComb({(EPS,): 2, (EPS, EPS): 2})


def test_gamma_combo_matches_scaled_gamma_words():
    k = 5
    rng = random.Random(9)
    words = [pi for n in range(4) for pi in signed_permutations(n)]
    for _ in range(60):
        lc = LinComb((rng.choice(words), Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                     for _ in range(rng.randint(0, 4)))
        want = Series.zero(k)
        for word, coeff in lc.terms.items():
            want = want + gamma_word(word, k).scale(coeff)
        got = gamma_combo(lc, k)
        assert got == want, lc
        assert all(got.terms.values())


def test_gamma_combo_cancels_to_zero():
    # two permutations with one weak composition: their Gammas cancel
    sigma, tau = (1, -3, 2), (3, -2, 1)
    assert wcomp(sigma) == wcomp(tau) and sigma != tau
    got = gamma_combo(LinComb({sigma: Fraction(1), tau: Fraction(-1)}), 4)
    assert got == Series.zero(4)
    assert got.terms == {}


def test_expand_f_matches_the_recursive_reference():
    for w in range(7):
        for alpha in regularized_compositions(w):
            for k in range(7):
                assert expand_f(alpha, k) == expand_f_reference(alpha, k), (alpha, k)


def test_expansion_size_counts_the_expansion():
    """The closed forms against the terms of ``expand_m`` and the
    P-partitions that ``expand_f`` walks, enumerated."""
    for w in range(6):
        for alpha in regularized_compositions(w):
            chain = chain_poset(wcomp_preimage(alpha))
            for k in range(1, 7):
                m, f = (expansion_size(alpha, k, basis, math.inf) for basis in "mf")
                assert m == len(expand_m(alpha, k).terms), (alpha, k)
                assert f == len(enumerate_ppartitions(chain, k)) >= len(expand_f(alpha, k).terms)
                # capped at any value: the count, or one past the cap
                for cap in range(f + 1):
                    assert expansion_size(alpha, k, "f", cap) == min(f, cap + 1)


def test_gamma_of_the_fork():
    for k in (4, 5):
        lhs = gamma(FORK, k)
        rhs = expand_f((EPS, 1, EPS, EPS), k).scale(2) - expand_f((EPS, 1, EPS), k)
        assert lhs == rhs


def test_gamma_chain_small_truncation():
    series = gamma_word((-4, 2, -1, -3), 2)
    assert series == Series(2, {(1, EPS): 1})


def test_gamma_of_empty_poset():
    assert gamma(Poset([]), 3) == series_one(3)
    assert gamma(Poset([]), 0) == expand_f((), 0) == series_one(0)


def test_no_values_allow_only_the_empty_poset():
    assert enumerate_ppartitions(Poset([]), 0) == [{}]
    assert enumerate_ppartitions(FORK, 0) == []
    assert gamma(FORK, 0) == Series.zero(0)
    with pytest.raises(ValueError):
        enumerate_ppartitions(Poset([]), -1)


def test_gamma_is_standardization_invariant():
    p = Poset([5, 2, -8], [(5, 2), (-8, 2)])
    st = p.standardize()
    assert gamma(p, 4) == gamma(st, 4)


def test_gamma_depends_only_on_wcomp():
    seen = {}
    for pi in signed_permutations(3):
        key = wcomp(pi)
        series = gamma_word(pi, 5)
        if key in seen:
            assert seen[key] == series
        else:
            seen[key] = series


def test_expand_m_examples():
    assert expand_m((1, EPS), 2) == Series(2, {(1, EPS): 1})
    assert expand_m((2,), 3) == Series(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    assert expand_m((1, 1, 1), 2) == Series.zero(2)
    assert expand_m((), 2) == series_one(2)


def test_expand_f_example():
    assert expand_f((EPS, 1, EPS, EPS), 2) == Series(2, {(1, EPS): 1})
    assert expand_f((), 3) == series_one(3)


def test_expand_f_equals_weighted_expand_m():
    for w in range(5):
        for alpha in regularized_compositions(w):
            lhs = expand_f(alpha, 6)
            rhs = Series.zero(6)
            for beta, c in refinement_terms(alpha):
                rhs = rhs + expand_m(beta, 6).scale(c)
            assert lhs == rhs


def test_chain_condition_characterization():
    # along a word the constraints alternate between < and <= according to
    # the letters
    for word in [(-2, 1, -3), (3, -1, 2), (2, 1, -3)]:
        k = 3
        got = {tuple(f[a] for a in word) for f in
               enumerate_ppartitions(chain_poset(word), k)}
        want = set()
        for vals in itertools.product(range(1, k + 1), repeat=len(word)):
            ok = True
            for i in range(len(word) - 1):
                if word[i] > max(0, word[i + 1]):
                    ok = ok and vals[i] < vals[i + 1]
                else:
                    ok = ok and vals[i] <= vals[i + 1]
            if ok:
                want.add(vals)
        assert got == want


def test_series_monoid_exponent_rules():
    x_eps = Series(1, {(EPS,): 1})
    x_two = Series(1, {(2,): 1})
    assert x_eps * x_eps == x_eps
    assert x_eps * x_two == x_two
    a = Series(2, {(1, 0): 1, (0, EPS): 2})
    b = Series(2, {(EPS, 1): 3})
    assert a * b == b * a
    c = Series(2, {(0, 1): 1})
    assert (a * b) * c == a * (b * c)


def random_series(rng, k):
    """A seeded random series: entries 0, e and small ints, int or Fraction
    coefficients."""
    entries = [0, 0, 0, EPS, EPS, 1, 2, 3]
    terms = []
    for _ in range(rng.randint(0, 4)):
        exps = tuple(rng.choice(entries) for _ in range(k))
        coeff = rng.randint(-3, 3)
        if rng.random() < 0.5:
            coeff = Fraction(coeff, rng.randint(1, 4))
        terms.append((exps, coeff))
    return Series(k, terms)


def test_series_product_matches_the_coordinatewise_reference():
    rng = random.Random(17)
    for k in range(9):
        fixed = [Series.zero(k), series_one(k),
                 Series(k, {(EPS,) * k: 1, (0,) * k: Fraction(-1, 2)})]
        if k:
            # (1 - x1^e) x1^e = x1^e - x1^e cancels, since x^e x^e = x^e
            x1_eps = Series(k, {(EPS,) + (0,) * (k - 1): 1})
            fixed += [x1_eps, series_one(k) - x1_eps]
            assert fixed[-1] * fixed[-2] == Series.zero(k)
        cases = [(a, b) for a in fixed for b in fixed]
        cases += [(random_series(rng, k), random_series(rng, k)) for _ in range(150)]
        cases += [(a, random_series(rng, k)) for a in fixed for _ in range(10)]
        cases += [(random_series(rng, k), a) for a in fixed for _ in range(10)]
        for a, b in cases:
            got = a * b
            assert got == series_product_reference(a, b), (a, b)
            assert all(got.terms.values())


def test_series_product_matches_gamma_of_disjoint_unions():
    """A reference for ``Series.__mul__`` that adds no exponents: Gamma of
    a disjoint union walks the P-partitions of the union and multiplies
    nothing, and it must equal the product of the Gammas of the two parts,
    on seeded random pairs and every k from 1 to 3."""
    rng = random.Random(29)
    checked = nonzero = 0
    for _ in range(240):
        p, q = random_poset(rng, 3, range(1, 5)), random_poset(rng, 3, range(5, 9))
        for k in range(1, 4):
            union = gamma(p.disjoint_union(q), k)
            assert union == gamma(p, k) * gamma(q, k), (p, q, k)
            checked += 1
            nonzero += bool(union)
    assert checked == 720 and nonzero >= 600


def test_series_arithmetic_keeps_the_kind():
    a = Series(3, {(1, 0, EPS): 2, (0, 0, 0): Fraction(1, 2)})
    b = Series(3, {(1, 0, EPS): -2, (0, 2, 0): 1})
    for got in (a + b, a - b, a.scale(3), 3 * a, a.scale(0), -a, a * b, a * 2):
        assert type(got) is Series and got.k == 3
    assert (a + b).terms == {(0, 0, 0): Fraction(1, 2), (0, 2, 0): 1}
    assert a - a == Series.zero(3) and (a - a).terms == {}
    assert -a == a.scale(-1)


def test_series_equality_includes_k_and_the_kind():
    assert Series.zero(3) == Series.zero(3)
    assert Series.zero(3) != Series.zero(4)
    assert series_one(2) != series_one(3)
    assert LinComb.zero() != Series.zero(3)
    assert Series.zero(3) != LinComb.zero()
    assert series_one(1) != LinComb.single((0,))
    assert LinComb.single((0,)) != series_one(1)


def test_series_of_different_k_do_not_mix():
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(AssertionError):
            op(series_one(2), series_one(3))


def test_equal_series_hash_equal():
    a = Series(2, [((1, EPS), 1), ((0, 1), 2), ((1, EPS), 1)])
    b = Series.wrap(2, {(0, 1): 2, (1, EPS): 2})
    assert a == b and hash(a) == hash(b)
    assert len({a, b, Series.zero(2), Series.zero(3)}) == 3


def test_series_text_keeps_the_plus_sign_of_negative_terms():
    s = Series(2, {(1, 0): 1, (0, EPS): -1, (0, 0): Fraction(-2, 3)})
    assert s.to_text() == "-2/3*1 + -1*x2^e + 1*x1"


def restrict(series, k2):
    """Drop every term that uses a variable above x_{k2}."""
    assert k2 <= series.k
    out = {}
    for e, c in series.terms.items():
        if all(x == 0 for x in e[k2:]):
            out[e[:k2]] = c
    return Series.wrap(k2, out)


def test_series_truncation_consistency():
    for k in (3, 4):
        assert restrict(gamma(FORK, k), k - 1) == gamma(FORK, k - 1)


def test_series_json_round_trip():
    """``Series.from_json`` reads back the listing the CLI prints."""
    s = expand_f((EPS, 2), 3)
    blob = json.loads(cli._listing(s))
    assert blob["k"] == 3
    assert Series.from_json(blob) == s


def test_gamma_multiplicativity_worked_example():
    sigma, tau = (1, -2), (2, -1)
    k = 8
    lhs = gamma_word(sigma, k) * gamma_word(tau, k)
    rhs = gamma_combo(shifted_quasi_shuffle(sigma, tau, -1), k)
    assert lhs == rhs


def test_parse_poset():
    text = """
    # the fork poset
    -4 < 2
    2 < -1
    2 < -3
    """
    p = parse_poset(text)
    assert sorted(p.linear_extensions()) == sorted(FORK.linear_extensions())
    lone = parse_poset("7\n-3\n")
    assert len(lone) == 2 and lone.covers == ()
    with pytest.raises(ValueError):
        parse_poset("1 < x")
    with pytest.raises(ValueError):
        parse_poset("1 < 2 < 3")


def test_random_poset_generator_is_valid():
    rng = random.Random(7)
    for _ in range(50):
        p = random_poset(rng, 4)
        assert len({abs(a) for a in p.labels}) == len(p.labels)


def test_verify_gamma_smoke():
    report = report_to_json(
        verify_gamma_identities(max_len=2, k=4, pair_len=2, pair_k=4, random_cases=10)
    )
    assert report["summary"]["failed"] == 0
