"""Signed words, signed permutations, and quasi-shuffle products.

A signed word is a tuple of nonzero integers.  A signed permutation of
[n] is a signed word whose absolute values are exactly 1..n; the empty
tuple is the identity.  Words are identified with basis elements of the
free algebra on the nonzero integers, and products return ``LinComb``
values over word keys.

The quasi-shuffle product of weight lam with respect to a bullet product
on letters is defined by the recursion

    a u * b v = a (u * b v) + b (a u * v) + lam (a.b) (u * v)

with the empty word as unit.  The bullet is a parameter: a callable
(letter, letter) -> letter-or-0, where 0 means the product of letters is
zero and the whole generated word is dropped.  Signed permutations use
the bullet a.b = a when both letters are negative, 0 otherwise.

``shifted_quasi_shuffle`` takes signed permutations only: it writes
st(sigma * tau[m]) by relabelling merged words, never calling ``standardize``.
"""
from __future__ import annotations

import itertools

from .lincomb import LinComb


def sign_bullet(a, b):
    """Bullet on nonzero integers: a if both negative, else 0."""
    return a if (a < 0 and b < 0) else 0


def is_signed_permutation(word):
    return sorted(abs(a) for a in word) == list(range(1, len(word) + 1))


def standardize(word):
    """Standard signed permutation of a word over the nonzero integers.

    Signs are kept positionwise; absolute values are replaced by their
    rank under (absolute value, then position), so equal absolute values
    get increasing ranks left to right.
    """
    # sorted is stable, so equal absolute values stay in position order
    order = sorted(range(len(word)), key=lambda i: abs(word[i]))
    out = [0] * len(word)
    for rank, i in enumerate(order, start=1):
        out[i] = rank if word[i] > 0 else -rank
    return tuple(out)


def shift(word, m):
    """Add m to positive letters and -m to negative letters."""
    return tuple(a + m if a > 0 else a - m for a in word)


def quasi_shuffle(u, v, lam, bullet=sign_bullet):
    """Quasi-shuffle product of two words as a LinComb over words."""
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


def shifted_quasi_shuffle(sigma, tau, lam):
    """st(sigma * tau[m]) with m = len(sigma): the product on signed
    permutations, which sigma and tau must be.  With lam = 0 this is the
    shifted shuffle.

    One recursion writes every term standardized.  A merge keeps sigma's
    letter and drops tau's; tau[m] lies above sigma, so st fixes sigma's
    letters and moves each kept letter of tau[m] towards zero by the number
    of dropped letters below it.  The dropped set rides down as a bitmask
    over absolute values; each one met builds, once per call, a table
    indexed by the letter.  A word with no merge is standard and met once.
    """
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


def shifted_shuffle(sigma, tau):
    return shifted_quasi_shuffle(sigma, tau, 0)


def weak_descent_set(pi):
    """{i in [n-1] : pi_i > max(0, pi_{i+1})}, plus n unless pi_n < 0."""
    n = len(pi)
    if n == 0:
        return set()
    out = {i for i in range(1, n) if pi[i - 1] > max(0, pi[i])}
    if pi[-1] > 0:
        out.add(n)
    return out


def signed_permutations(n):
    """All 2^n n! signed permutations of [n], in a fixed order."""
    for base in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            yield tuple(s * b for s, b in zip(signs, base))


def positive_permutations(n):
    return itertools.permutations(range(1, n + 1))


def perm_to_text(word):
    return "id" if not word else ",".join(str(a) for a in word)


def text_to_perm(text):
    """Parse the signed permutation 'a,b,c' of signed decimal letters;
    'id' is the identity."""
    text = text.strip()
    if text == "id" or text == "":
        return ()
    out = []
    for pos, bit in enumerate(text.split(","), start=1):
        try:
            a = int(bit)
        except ValueError:
            raise ValueError(f"bad letter {bit!r} at position {pos} of {text!r}") from None
        if a == 0:
            raise ValueError(f"zero letter at position {pos} of {text!r}")
        out.append(a)
    if not is_signed_permutation(out):
        raise ValueError(f"{text!r} is not a signed permutation")
    return tuple(out)
