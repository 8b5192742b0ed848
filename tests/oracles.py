"""Test-only reference implementations.

These are the independent formulas the library's products and statistics
are checked against: the stuffle form of the quasi-shuffle product (a sum
over pairs of order preserving injections), its right-sided recursion,
the plain descent set of a signed word, the multinomial counts of
all-negative products, a second bullet for the quasi-shuffle laws, and
the shifted product with every term standardized.
None of them is used by the library itself.
"""
from __future__ import annotations

import itertools
from math import factorial

from wqsym.lincomb import LinComb
from wqsym.words import quasi_shuffle, shift, sign_bullet, standardize


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
        for roles in stuffle_patterns(m, n, r):
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


def shifted_quasi_shuffle_reference(sigma, tau, lam):
    """st(sigma * tau[m]) with st applied to every term, merged or not:
    the reference for the product that skips st on full-length words."""
    raw = quasi_shuffle(sigma, shift(tau, len(sigma)), lam, sign_bullet)
    return LinComb((standardize(w), c) for w, c in raw.terms.items())


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
