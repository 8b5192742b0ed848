"""Test-only reference implementations.

These are the independent formulas the library's products and statistics
are checked against: the canonical order on basis keys, the stuffle form
of the quasi-shuffle product (a sum over pairs of order preserving
injections), its right-sided recursion, the letter-by-letter recursions
of the quasi-shuffle and of the shifted product that the tables of
interleavings replaced, the plain descent set of a signed
word, the multinomial counts of all-negative products, a second bullet
for the quasi-shuffle laws, the shifted product with every term
standardized, the coproduct of signed permutations with every leg
standardized from scratch, the graded antipode over memoized products,
the product and the antipode of fundamentals through the monomial basis,
the Aguiar-Bergeron-Sottile map Psi_zeta into QSym, the series 1, the
coordinatewise product of truncated series, the monomial functions in k
variables, and the statistics, descent set, refinement order and
concatenations of compositions.
None of them is used by the library itself.
"""
from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from fractions import Fraction
from math import factorial

from wqsym.compositions import (
    EPS,
    eps_runs,
    ntilde_add,
    refinement_terms,
    star_product,
    total_weight,
)
from wqsym.hopf import context_by_name, f_to_m, m_to_f, rqsym_antipode_m
from wqsym.lincomb import LinComb, accumulate, lc_mul, tensor
from wqsym.ppartitions import Series, chain_poset, gamma
from wqsym.words import quasi_shuffle, shift, sign_bullet, standardize


def elem_key(x):
    """Sort value of a single key entry: integers as themselves, the
    epsilon part strictly between 0 and 1 (the monoid order 0 < e < 1)."""
    return x if isinstance(x, int) else Fraction(1, 2)


def basis_sort_key_reference(key):
    """The canonical order on basis keys by its definition: length first,
    then entrywise by ``elem_key``; tensor keys lexicographically by the
    orders of their legs."""
    if key and isinstance(key[0], tuple):
        return tuple(basis_sort_key_reference(k) for k in key)
    return (len(key), [elem_key(x) for x in key])


def min_bullet(a, b):
    """Commutative associative test bullet: the smaller letter."""
    return a if a < b else b


def stuffle_patterns(m, n, r):
    """Position roles for every pair in J_{m,n,r}.

    Yields tuples of length m+n-r over {'u', 'v', 'uv'}: the preimage
    structure of an order preserving injective pair (phi, psi) covering
    [m+n-r] with r common values.
    """
    length = m + n - r
    for collide in itertools.combinations(range(length), r):
        cset = frozenset(collide)
        rest = [p for p in range(length) if p not in cset]
        for uonly in itertools.combinations(rest, m - r):
            uset = frozenset(uonly)
            yield tuple(
                "uv" if p in cset else ("u" if p in uset else "v")
                for p in range(length)
            )


@functools.cache
def stuffle_pattern_tuple(m, n, r):
    """``stuffle_patterns(m, n, r)`` as a tuple, built once per (m, n, r)."""
    return tuple(stuffle_patterns(m, n, r))


def stuffle(u, v, lam, bullet=sign_bullet):
    """Stuffle form of the quasi-shuffle product.

    Sums lam^r over pairs of order preserving injections with r
    collisions; collision positions carry the bullet of the two letters
    and the word is dropped if any bullet vanishes.  Agrees with
    quasi_shuffle on all inputs.
    """
    m, n = len(u), len(v)
    out = {}
    for r in range(min(m, n) + 1):
        weight = lam**r
        if not weight:
            continue
        for roles in stuffle_pattern_tuple(m, n, r):
            word = []
            i = j = 0
            dead = False
            for role in roles:
                if role == "u":
                    word.append(u[i])
                    i += 1
                elif role == "v":
                    word.append(v[j])
                    j += 1
                else:
                    c = bullet(u[i], v[j])
                    if not c:
                        dead = True
                        break
                    word.append(c)
                    i += 1
                    j += 1
            if dead:
                continue
            w = tuple(word)
            out[w] = out.get(w, 0) + weight
    return LinComb.wrap({w: c for w, c in out.items() if c})


def quasi_shuffle_recursion(u, v, lam, bullet=sign_bullet):
    """The quasi-shuffle product by its recursion, one letter per frame:
    the reference for ``words.quasi_shuffle``, which reads its terms off
    tables of interleavings.  Its terms come in depth-first order."""
    out = {}
    nu, nv = len(u), len(v)
    prefix = []
    push = prefix.append
    pop = prefix.pop

    def rec(i, j, coeff):
        if i == nu:
            w = tuple(prefix) + v[j:]
            out[w] = out.get(w, 0) + coeff
            return
        if j == nv:
            w = tuple(prefix) + u[i:]
            out[w] = out.get(w, 0) + coeff
            return
        a = u[i]
        b = v[j]
        push(a)
        rec(i + 1, j, coeff)
        pop()
        push(b)
        rec(i, j + 1, coeff)
        pop()
        if lam:
            c = bullet(a, b)
            if c:
                push(c)
                rec(i + 1, j + 1, coeff * lam)
                pop()

    rec(0, 0, 1)
    del rec  # rec refers to itself through its cell; free it without the gc
    return LinComb.wrap({w: c for w, c in out.items() if c})


def shifted_quasi_shuffle_recursion(sigma, tau, lam):
    """st(sigma * tau[m]) by one recursion that relabels each merged word
    through one table per dropped set: the reference for
    ``words.shifted_quasi_shuffle``, which reads its terms off tables of
    interleavings.  Its terms come in depth-first order."""
    m = len(sigma)
    v = shift(tau, m)
    nv = len(v)
    n = m + nv
    out = {}
    tables = {}

    def rec(i, j, w, dropped, coeff):
        if i == m or j == nv:
            w += sigma[i:] + v[j:]
            if not dropped:
                out[w] = 1
                return
            table = tables.get(dropped)
            if table is None:  # negative letters index it from the end
                table = tables[dropped] = list(range(n + 1)) + list(range(-n, 0))
                below = 0
                for x in range(m + 1, n + 1):
                    below += dropped >> x & 1  # a dropped letter's entry is never read
                    table[x], table[-x] = x - below, below - x
            w = tuple(map(table.__getitem__, w))
            out[w] = out.get(w, 0) + coeff
            return
        a = sigma[i]
        b = v[j]
        rec(i + 1, j, w + (a,), dropped, coeff)
        rec(i, j + 1, w + (b,), dropped, coeff)
        if lam and a < 0 and b < 0:  # the sign bullet: keep a, drop b
            rec(i + 1, j + 1, w + (a,), dropped | 1 << -b, coeff * lam)

    rec(0, 0, (), 0, 1)
    del rec  # rec refers to itself through its cell; free it without the gc
    return LinComb.wrap(out)


def shifted_quasi_shuffle_reference(sigma, tau, lam):
    """st(sigma * tau[m]) with st applied to every term, merged or not:
    the reference for the product that skips st on full-length words."""
    raw = quasi_shuffle(sigma, shift(tau, len(sigma)), lam, sign_bullet)
    return LinComb((standardize(w), c) for w, c in raw.terms.items())


def standardized_deconcatenation(word):
    """Sum of st(u) @ st(v) over the splits word = u v, each leg
    standardized on its own: the reference for ``hopf.standard_splits``."""
    return LinComb((((standardize(word[:p]), standardize(word[p:])), 1)
                    for p in range(len(word) + 1)))


def graded_antipode_reference(ctx, key, memo=None):
    """The antipode of ``key`` by the generic recursion, each product a
    ``LinComb`` from the context's product memo, accumulated into one dict
    that stays zero-free, and ``memo`` holding the values: the reference for
    ``HopfContext.graded_antipode``, which adds each product into its
    level's dict through ``add_product`` and drops zeros once per level."""
    memo = {} if memo is None else memo
    found = memo.get(key)
    if found is not None:
        return found
    deg = ctx.degree(key)
    terms = {} if deg else {key: 1}
    for (a, b), c in ctx.coproduct(key).terms.items():
        if ctx.degree(a) < deg:
            for ka, ca in graded_antipode_reference(ctx, a, memo).terms.items():
                accumulate(terms, ctx.product(ka, b).terms.items(), -c * ca)
    out = memo[key] = LinComb.wrap(terms)
    return out


def right_quasi_shuffle_step(wc, vd, lam, bullet=sign_bullet):
    """One unrolling of the right-sided recursion

        w c * v d = (w * v d) c + (w c * v) d + lam (w * v) (c.d)

    for nonempty words.  Must agree with quasi_shuffle.
    """
    if not wc or not vd:
        raise ValueError("right recursion needs nonempty words on both sides")
    w, c = wc[:-1], wc[-1]
    v, d = vd[:-1], vd[-1]
    out = {}
    for word, coeff in quasi_shuffle(w, vd, lam, bullet).terms.items():
        key = word + (c,)
        out[key] = out.get(key, 0) + coeff
    for word, coeff in quasi_shuffle(wc, v, lam, bullet).terms.items():
        key = word + (d,)
        out[key] = out.get(key, 0) + coeff
    if lam:
        cd = bullet(c, d)
        if cd:
            for word, coeff in quasi_shuffle(w, v, lam, bullet).terms.items():
                key = word + (cd,)
                out[key] = out.get(key, 0) + coeff * lam
    return LinComb.wrap({k: c2 for k, c2 in out.items() if c2})


def descent_set(pi):
    """Plain descents {i in [0, n-1] : pi_i > pi_{i+1}} with pi_0 = 0.

    Position 0 can be a descent when pi_1 < 0.  Only weak_descent_set is
    used by the maps to quasi-symmetric functions.
    """
    n = len(pi)
    padded = (0,) + tuple(pi)
    return {i for i in range(n) if padded[i] > padded[i + 1]}


def multinomial_collapse(m, n):
    """Signed counts by length of the all-negative product of an m-run
    and a shifted n-run of negative letters at weight -1.

    Returns {m+n-i: (-1)^i * (m+n-i)! / (i! (m-i)! (n-i)!)}.
    """
    out = {}
    for i in range(min(m, n) + 1):
        count = factorial(m + n - i) // (
            factorial(i) * factorial(m - i) * factorial(n - i)
        )
        out[m + n - i] = (-1) ** i * count
    return LinComb.wrap({k: c for k, c in out.items() if c})


def rqsym_product_f_via_m(alpha, beta):
    """F_alpha F_beta through the monomial basis: expand both factors in
    M, take the composition quasi-shuffle of every pair, and convert back
    to F.  The reference for the product through signed permutations."""
    return lc_mul(f_to_m(alpha), f_to_m(beta), star_product).map_basis(m_to_f)


def rqsym_antipode_f_reference(alpha):
    """S(F_alpha) through the monomial basis: expand in M, take the closed
    monomial antipode of every term, and convert back to F.  The reference
    for the closed form on the fundamental basis."""
    return f_to_m(alpha).map_basis(rqsym_antipode_m).map_basis(m_to_f)


def psi_zeta(pi):
    """Psi_zeta(pi) = sum_alpha zeta_alpha(pi) M_alpha on the
    Malvenuto-Reutenauer algebra, with the character zeta(sigma) =
    [sigma increasing] (Aguiar, Bergeron and Sottile, Combinatorial Hopf
    algebras and generalized Dehn-Sommerville relations, Thm 4.1).

    zeta_alpha is zeta^{(x) k} on the part of the iterated coproduct of
    degrees alpha_1, ..., alpha_k, so this peels off the left leg of each
    coproduct term of positive degree, using the coproduct alone."""
    coproduct = context_by_name("ssym").coproduct
    increasing = lambda s: all(a < b for a, b in zip(s, s[1:]))

    def psi(key):
        if not key:
            return LinComb.single(())
        return LinComb(((len(a),) + alpha, c * cm)
                       for (a, b), c in coproduct(key).terms.items()
                       if a and increasing(a)
                       for alpha, cm in psi(b).terms.items())

    return psi(tuple(pi))


def series_one(k):
    """The series 1 in k variables."""
    return Series.wrap(k, {(0,) * k: 1})


def series_product_reference(a, b):
    """Product of truncated series adding every coordinate of every pair of
    exponent tuples, zeros included: the reference that ``Series.__mul__``
    is checked against."""
    assert a.k == b.k
    return Series(a.k, ((tuple(map(ntilde_add, e1, e2)), c1 * c2)
                        for e1, c1 in a.terms.items()
                        for e2, c2 in b.terms.items()))


def expand_m_reference(alpha, k):
    """M_alpha truncated to k variables, one term per strictly increasing
    tuple of variables, each built as its own list and accumulated: the
    reference for the placement of ``expand_m`` and ``gamma``."""
    out = {}
    for vars_ in itertools.combinations(range(k), len(alpha)):
        exps = [0] * k
        for v, part in zip(vars_, alpha):
            exps[v] = part
        key = tuple(exps)
        out[key] = out.get(key, 0) + 1
    return Series.wrap(k, out)


def gamma_word(word, k):
    """Gamma of a signed permutation, truncated to k variables."""
    return gamma(chain_poset(word), k)


def gamma_combo(lc, k):
    """Linear extension of gamma_word to combinations of signed
    permutations."""
    out = {}
    for word, coeff in lc.terms.items():
        accumulate(out, gamma_word(word, k).terms.items(), coeff)
    return Series.wrap(k, out)


# ---------------------------------------------------------------------------
# statistics, refinement and concatenation of regularized compositions


def unregularize(alpha):
    return tuple(0 if p is EPS else p for p in alpha)


def weight(alpha):
    """|alpha| in the monoid: 0 for empty, e for all-epsilon, else the
    sum of the positive parts."""
    runs, parts = eps_runs(alpha)
    if parts:
        return sum(parts)
    return EPS if runs[0] else 0


def comp_descent_set(alpha):
    """{b_q = sum_{j<=q} (i_j + s_j)} over the finest block form."""
    runs, parts = eps_runs(alpha)
    out = set()
    b = 0
    for i, s in zip(runs, parts):
        b += i + s
        out.add(b)
    return out


def eps_length(alpha):
    return sum(1 for p in alpha if p is EPS)


Stats = namedtuple("Stats", "weight total_weight eps_length descent_set")


def stats(alpha):
    return Stats(weight(alpha), total_weight(alpha), eps_length(alpha),
                 comp_descent_set(alpha))


def refines(beta, alpha):
    """True when beta is a refinement of alpha.

    A coarsening merges adjacent positive parts and lengthens epsilon
    runs; the trailing run must be empty in both or nonempty in both.
    """
    runs_a, parts_a = eps_runs(alpha)
    runs_b, parts_b = eps_runs(beta)
    t = 0
    for q, target in enumerate(parts_a):
        if t >= len(parts_b) or runs_b[t] > runs_a[q]:
            return False
        acc = parts_b[t]
        t += 1
        while acc < target:
            if t >= len(parts_b) or runs_b[t] != 0:
                return False
            acc += parts_b[t]
            t += 1
        if acc != target:
            return False
    if t != len(parts_b):
        return False
    ja, jb = runs_a[-1], runs_b[-1]
    return (ja == 0 and jb == 0) or (1 <= jb <= ja)


def enumerate_refinements(alpha):
    return [beta for beta, _ in refinement_terms(alpha)]


def concat(alpha, beta):
    return tuple(alpha) + tuple(beta)


def near_concat(alpha, beta):
    """(a_1, ..., a_k + b_1, ..., b_l); defined only for positive
    boundary parts."""
    if not alpha or not beta:
        raise ValueError("near concatenation needs nonempty compositions")
    if alpha[-1] is EPS:
        raise ValueError(
            f"near concatenation undefined: left part at position {len(alpha)} is e"
        )
    if beta[0] is EPS:
        raise ValueError("near concatenation undefined: right part at position 1 is e")
    return tuple(alpha[:-1]) + (alpha[-1] + beta[0],) + tuple(beta[1:])


def lc_mul_reference(a, b, mult):
    """``lincomb.lc_mul`` pair by pair, summed with ``+``: the product of
    each pair of terms, scaled by the product of their coefficients."""
    out = LinComb.zero()
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            out = out + mult(ka, kb).scale(ca * cb)
    return out


def tensor_bilinear_reference(a, b, mult):
    """``lincomb.tensor_bilinear`` pair by pair: the ``tensor`` of the two
    leg products of each pair of terms, then one ``accumulate`` of it."""
    out = {}
    for (xa, ya), ca in a.terms.items():
        for (xb, yb), cb in b.terms.items():
            accumulate(out, tensor(mult(xa, xb), mult(ya, yb)).terms.items(), ca * cb)
    return LinComb.wrap(out)


def tensor_bimap_reference(t, f, g):
    """``lincomb.tensor_bimap`` term by term: the ``tensor`` of the two leg
    images of each term, then one ``accumulate`` of it."""
    out = {}
    for (ka, kb), c in t.terms.items():
        accumulate(out, tensor(f(ka), g(kb)).terms.items(), c)
    return LinComb.wrap(out)
