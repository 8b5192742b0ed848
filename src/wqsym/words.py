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

Both products read their terms off one table per shape (m, n), the word
lengths: the quasi-shuffles of 0..m-1 with m..m+n-1 grouped by merge set,
in the order the recursion first meets them, each group read by one
``itemgetter``: a few C calls per merge set, not a Python frame per letter.
Tables grow as the Delannoy numbers and cost a few products each to build,
so only m + n <= TABLE_LENGTH, a bound measured to cover the products of
degree-6 antipodes, gets one; a longer pair takes first letters by the
recursion until the rest fits.  ``add_shifted_product``, the one kernel of
the product of signed permutations, relabels merged words, never calling
``standardize``, and adds into a dict its caller owns.
"""
from __future__ import annotations

import functools
import itertools
import operator

from .lincomb import LinComb


def sign_bullet(a, b):
    """Bullet on nonzero integers: a if both negative, else 0."""
    return a if (a < 0 and b < 0) else 0


def is_signed_permutation(word):
    return sorted(map(abs, word)) == list(range(1, len(word) + 1))


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
    return tuple([a + m if a > 0 else a - m for a in word])


TABLE_LENGTH = 6  # the largest m + n with a table, chosen by measurement
_tables = {}  # (m, n, merging) -> the table _interleavings(m, n, merging) builds


def _interleavings(m, n, merging):
    """The table of shape (m, n), of its shuffles alone unless ``merging``,
    kept if m, n >= 1: per merge set (merges, mask, getter, length, r), each
    pair i < j of ``merges`` merging into i and dropping j, ``mask`` their
    bits, ``getter`` reading the words, ``length`` letters each, off u v."""
    if not (m and n):
        return [((), 0, operator.itemgetter(slice(None)), m + n, 0)]
    groups = {}

    def rec(i, j, word, merges):
        if i == m or j == n:
            groups.setdefault(merges, []).extend([*word, *range(i, m), *range(m + j, m + n)])
            return
        rec(i + 1, j, word + (i,), merges)
        rec(i, j + 1, word + (m + j,), merges)
        if merging:
            rec(i + 1, j + 1, word + (i,), merges + ((i, m + j),))

    rec(0, 0, (), ())
    del rec  # rec refers to itself through its cell; free it without the gc
    table = _tables[m, n, merging] = [  # one index alone would get a letter, not a tuple
        (merges, sum(1 << i | 1 << j for i, j in merges), operator.itemgetter(*flat)
         if flat[1:] else operator.itemgetter(slice(1)), m + n - len(merges), len(merges))
        for merges, flat in groups.items()]
    return table


def _walk(u, v, merge):
    """The points (i, j, prefix), in the recursion's order, at which it has
    written ``prefix``, with lam (a.b) as ``merge(a, b)``, and left u[i:] and
    v[j:] that fit a table or have an empty word.  Lazy: holds one path."""
    stack = [(0, 0, ())]
    while stack:
        i, j, prefix = stack.pop()
        if i == len(u) or j == len(v) or len(u) + len(v) - i - j <= TABLE_LENGTH:
            yield i, j, prefix
            continue
        c = merge(u[i], v[j])
        stack += [(i + 1, j + 1, prefix + (c,))] if c else []
        stack += (i, j + 1, prefix + (v[j],)), (i + 1, j, prefix + (u[i],))  # u[i]'s branch on top


def quasi_shuffle(u, v, lam, bullet=sign_bullet):
    """Quasi-shuffle product of two words as a LinComb over words."""
    if not u or not v:
        return LinComb.single(u + v)
    out = {}
    get = out.get
    for i, j, prefix in [(0, 0, ())] if len(u) + len(v) <= TABLE_LENGTH else _walk(
            u, v, lambda a, b: lam and bullet(a, b)):
        whole, r, shape = u[i:] + v[j:], i + j - len(prefix), (len(u) - i, len(v) - j, bool(lam))
        for merges, _, getter, length, k in _tables.get(shape) or _interleavings(*shape):
            src = list(whole) if merges else whole
            for p, q in merges:
                src[p] = bullet(whole[p], whole[q])
                if not src[p]:
                    break
            else:
                c = lam ** (r + k) if r + k else 1
                words = zip(*[iter(getter(src))] * length)
                for w in map(prefix.__add__, words) if prefix else words:
                    out[w] = get(w, 0) + c
    return LinComb.wrap(out)


def shifted_quasi_shuffle(sigma, tau, lam):
    """st(sigma * tau[m]) with m = len(sigma): the product on signed
    permutations, which sigma and tau must be; with lam = 0, the shifted
    shuffle.  Added by ``add_shifted_product`` into a fresh dict."""
    return LinComb.wrap(add_shifted_product({}, sigma, tau, lam))


@functools.lru_cache(maxsize=1024)  # bounded: one table per (length, dropped set)
def _relabel(n, dropped):
    """st of the kept letters of a word of length n, indexed by the letter,
    negative ones from the end: each moved towards zero by the letters of
    the bit set ``dropped`` below it.  No dropped letter is read."""
    kept = [x - (dropped & (2 << x) - 1).bit_count() for x in range(n + 1)]
    return (kept + [-x for x in kept[:0:-1]]).__getitem__


def add_shifted_product(out, sigma, tau, lam, scale=1):
    """Add scale * st(sigma * tau[m]) into the dict ``out``, which may be
    left with zeros, and return it.  A merge keeps sigma's letter and drops
    tau's, and st moves each kept letter of tau[m], all above sigma, towards
    zero by the dropped letters below it, through ``_relabel``.  A word met
    twice has as many merges, its length tells, so the same coefficient: a
    fresh dict gets no zero."""
    get = out.get
    if not sigma or not tau:
        out[sigma + tau] = get(sigma + tau, 0) + scale
        return out
    m = len(sigma)
    v = shift(tau, m)
    n = m + len(v)
    merging = bool(lam) and min(v) < 0  # the sign bullet merges negative letters only
    for i, j, prefix in [(0, 0, ())] if n <= TABLE_LENGTH else _walk(
            sigma, v, lambda a, b: merging and a < 0 and b < 0 and a):
        whole, r, shape = sigma[i:] + v[j:], i + j - len(prefix), (m - i, len(v) - j, merging)
        dropped = r and sum(1 << -b for b in v[:j] if b not in prefix)
        negative = merging and sum([1 << k for k, a in enumerate(whole) if a < 0])
        for merges, mask, getter, length, k in _tables.get(shape) or _interleavings(*shape):
            if mask & negative != mask:
                continue
            d = dropped
            for _, x in merges:
                d |= 1 << -whole[x]
            c, head, src = scale, prefix, whole
            if d:
                relabel = _relabel(n, d)
                c, head = scale * lam ** (r + k), tuple(map(relabel, prefix))
                src = tuple(map(relabel, whole))
            words = zip(*[iter(getter(src))] * length)
            for w in map(head.__add__, words) if head else words:
                out[w] = get(w, 0) + c
    return out


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
    try:
        out = tuple(map(int, text.split(",")))
        if is_signed_permutation(out):
            return out
    except ValueError:
        pass
    for pos, bit in enumerate(text.split(","), start=1):  # name the first bad letter
        try:
            a = int(bit)
        except ValueError:
            raise ValueError(f"bad letter {bit!r} at position {pos} of {text!r}") from None
        if a == 0:
            raise ValueError(f"zero letter at position {pos} of {text!r}")
    raise ValueError(f"{text!r} is not a signed permutation")
