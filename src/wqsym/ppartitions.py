"""Signed labeled posets, signed P-partitions, and generating functions.

A signed labeled poset carries distinct nonzero integer labels with
distinct absolute values.  A signed P-partition is a map f from the
labels to {1..k} that weakly increases along the order and strictly
increases across a relation i < j in the poset whenever the integer label
i exceeds max(0, j); it suffices to impose both conditions on covering
pairs.

The generating function Gamma(P) sums, over all P-partitions, the
monomial with exponent 1 on x_{f(i)} for positive labels i and exponent
epsilon for negative ones.  One odometer over the values, which keeps one
exponent tuple up to date and builds no partition, counts those
monomials two ways:

* ``gamma`` truncates Gamma(P) to k variables, a ``Series`` whose
  exponents add in the monoid {0, e, 1, 2, ...}; the sum over the
  partitions that ``enumerate_ppartitions`` lists is its test oracle;
* ``gamma_m`` gives Gamma(P) exactly, in the monomial basis of RQSym,
  from the packed P-partitions; truncated to k variables it is
  ``gamma``.

The same odometer expands the fundamental functions: by the paper's
theorem Gamma(pi) = F_{wcomp(pi)}, ``expand_f`` is ``gamma`` of a chain.

The verification suite checks the identities of Gamma exactly, in the
monomial basis.  Gamma of a chain reads only the sign of each letter and
which steps are strict, so within one call the suite computes it once
per such shape, and each M product once.
"""
from __future__ import annotations

import functools
import heapq
import itertools
import math
import random
from fractions import Fraction

from .lincomb import LinComb, lc_mul
from .compositions import EPS, ntilde_add, star_product, total_weight, wcomp, wcomp_preimage
from .hopf import f_to_m
from .laws import Law, graded_tuples, run_laws
from .words import (
    perm_to_text,
    shifted_quasi_shuffle,
    signed_permutations,
    standardize,
)


class Poset:
    """Finite poset on signed integer labels, given by covering pairs.

    ``covers`` holds pairs (a, b) meaning a < b is a covering relation.
    Labels must be nonzero with pairwise distinct absolute values; the
    cover graph must be acyclic.  Extra non-covering edges are harmless
    for partitions and extensions, so inputs need not be Hasse-reduced.
    ``order`` is the linear extension that takes the minimal element of
    smallest absolute value first.
    """

    __slots__ = ("labels", "covers", "order", "_above", "_below")

    def __init__(self, labels, covers=()):
        labels = tuple(sorted(labels, key=abs))
        covers = tuple(sorted(covers))
        seen = set()
        for a in labels:
            if a == 0:
                raise ValueError("labels must be nonzero")
            if abs(a) in seen:
                raise ValueError(f"duplicate absolute label {abs(a)}")
            seen.add(abs(a))
        label_set = set(labels)
        for a, b in covers:
            if a not in label_set or b not in label_set:
                raise ValueError(f"cover ({a}, {b}) uses unknown labels")
        self.labels = labels
        self.covers = covers
        above = {a: [] for a in labels}
        below = {a: [] for a in labels}
        for a, b in covers:
            above[a].append(b)
            below[b].append(a)
        self._above = above
        self._below = below
        self._check_acyclic()

    def _check_acyclic(self):
        """Kahn's algorithm: set ``order``, or raise if a cycle leaves some
        labels never minimal."""
        indeg = {a: len(self._below[a]) for a in self.labels}
        ready = [(abs(a), a) for a in self.labels if indeg[a] == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            _, a = heapq.heappop(ready)
            order.append(a)
            for b in self._above[a]:
                indeg[b] -= 1
                if indeg[b] == 0:
                    heapq.heappush(ready, (abs(b), b))
        if len(order) != len(self.labels):
            raise ValueError("cover relation contains a cycle")
        self.order = tuple(order)

    def __len__(self):
        return len(self.labels)

    def standardize(self):
        """The isomorphic poset on standard labels."""
        word = standardize(self.labels)
        relabel = dict(zip(self.labels, word))
        return Poset(word, [(relabel[a], relabel[b]) for a, b in self.covers])

    def linear_extensions(self):
        """All linear extensions of the standardized poset, as signed
        permutations read from smallest to largest.

        A depth-first walk with an explicit stack: each depth tries its
        minimal unplaced elements in order of absolute value.
        """
        st = self.standardize()
        if not st.labels:
            return [()]
        above = st._above
        indeg = {a: len(st._below[a]) for a in st.labels}
        out = []
        order = []
        # per depth: its minimal unplaced elements and the next one to try
        stack = [([a for a in st.labels if not indeg[a]], 0)]
        while stack:
            ready, i = stack[-1]
            if len(order) == len(stack):
                # take back the element this depth placed last
                for b in above[order.pop()]:
                    indeg[b] += 1
            if i == len(ready):
                stack.pop()
                continue
            a = ready[i]
            stack[-1] = (ready, i + 1)
            order.append(a)
            freed = []
            for b in above[a]:
                indeg[b] -= 1
                if not indeg[b]:
                    freed.append(b)
            nxt = sorted(ready[:i] + ready[i + 1:] + freed, key=abs)
            if nxt:
                stack.append((nxt, 0))
            else:
                out.append(tuple(order))
        return out

    def disjoint_union(self, other):
        labels = self.labels + other.labels
        return Poset(labels, self.covers + other.covers)

    def __repr__(self):
        return f"Poset({self.labels}, covers={self.covers})"


def chain_poset(word):
    """The total order a_1 < a_2 < ... < a_n read off a signed word."""
    return Poset(word, [(word[i], word[i + 1]) for i in range(len(word) - 1)])


def _chain_shape(word):
    """What Gamma of ``chain_poset(word)`` depends on: the sign of each
    letter, and which steps a < b are strict, a > max(0, b)."""
    return (tuple(a > 0 for a in word),
            tuple(a > max(0, b) for a, b in zip(word, word[1:])))


def parse_poset(text):
    """Poset file format: one 'a < b' cover per line, lone labels on
    their own line; blank lines and '#' comments ignored."""
    labels = set()
    covers = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "<" in line:
            bits = line.split("<")
            if len(bits) != 2:
                raise ValueError(f"line {lineno}: expected 'a < b'")
            try:
                a, b = int(bits[0]), int(bits[1])
            except ValueError:
                raise ValueError(f"line {lineno}: bad labels in {line!r}") from None
            labels.add(a)
            labels.add(b)
            covers.append((a, b))
        else:
            try:
                labels.add(int(line))
            except ValueError:
                raise ValueError(f"line {lineno}: bad label {line!r}") from None
    return Poset(sorted(labels, key=abs), covers)


def _lower_covers(poset):
    """Per position of ``poset.order``: a (position of a lower cover, 1 if
    strict else 0) pair for each of its lower covers."""
    position = {a: p for p, a in enumerate(poset.order)}
    return [[(position[a], int(a > max(0, el))) for a in poset._below[el]]
            for el in poset.order]


def enumerate_ppartitions(poset, k):
    """All maps labels -> [k] weakly increasing along covers, strict when
    the lower label exceeds max(0, upper label).

    An odometer over ``poset.order``: each position counts up from the
    least value its lower covers allow, and carries into the position
    before it when it passes k.
    """
    if k < 0:
        raise ValueError("need a nonnegative number of values")
    order = poset.order
    n = len(order)
    if not n:
        return [{}]
    lower = _lower_covers(poset)
    values = [0] * n

    def least(p):
        lo = 1
        for q, strict in lower[p]:
            if values[q] + strict > lo:
                lo = values[q] + strict
        return lo

    out = []
    last = n - 1
    p = 0
    values[0] = least(0) - 1
    while p >= 0:
        values[p] += 1
        if values[p] > k:
            p -= 1
        elif p < last:
            p += 1
            values[p] = least(p) - 1
        else:
            # the last position runs through its values in one go
            for value in range(values[p], k + 1):
                values[p] = value
                out.append(dict(zip(order, values)))
            p -= 1
    return out


class Series(LinComb):
    """Polynomial in x_1..x_k with exponents in {0, e, 1, 2, ...}.

    A combination of exponent tuples (length k) with rational
    coefficients; multiplication adds exponents in the monoid, so
    x^e * x^e = x^e and x^e * x^n = x^n.  Series with different k never
    meet in a sum or product, and never compare equal.
    """

    __slots__ = ("k",)

    def __init__(self, k, terms=()):
        self.k = k
        super().__init__(terms)

    @classmethod
    def wrap(cls, k, clean_terms):
        """Adopt a dict that is already free of zero coefficients."""
        obj = object.__new__(cls)
        obj.k = k
        obj.terms = clean_terms
        return obj

    def _like(self, clean_terms, other=None):
        assert other is None or self.k == other.k
        return Series.wrap(self.k, clean_terms)

    @classmethod
    def zero(cls, k):
        return cls.wrap(k, {})

    def __eq__(self, other):
        return isinstance(other, Series) and self.k == other.k and self.terms == other.terms

    def __hash__(self):
        return hash((self.k, frozenset(self.terms.items())))

    def __mul__(self, other):
        """Product of series, or a scalar multiple.

        Exponents add in the monoid, coordinate by coordinate, for every
        pair of terms.
        """
        if not isinstance(other, Series):
            return self.scale(other)
        assert self.k == other.k
        return Series(self.k, ((tuple(map(ntilde_add, e1, e2)), c1 * c2)
                               for e1, c1 in self.terms.items()
                               for e2, c2 in other.terms.items()))

    @classmethod
    def from_json(cls, obj):
        terms = []
        for t in obj["terms"]:
            exps = tuple(EPS if s == "e" else int(s) for s in t["exps"])
            terms.append((exps, Fraction(t["coeff"])))
        return cls(obj["k"], terms)

    def to_text(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.items():
            factors = [
                f"x{i + 1}" if x == 1 else f"x{i + 1}^{x!r}" if x is EPS else f"x{i + 1}^{x}"
                for i, x in enumerate(e)
                if x != 0
            ]
            mono = "*".join(factors) if factors else "1"
            bits.append(f"{c!s}*{mono}")
        return " + ".join(bits)

    def __repr__(self):
        return f"Series(k={self.k}, {self.to_text()})"


def _exponent_counts(poset, k, packed=False):
    """The number of P-partitions of ``poset`` with values in 1..k that
    give each exponent tuple (length k).

    Runs the odometer of ``enumerate_ppartitions`` but builds no
    partition: one exponent list follows the values, each placed position
    adding x_{value}^{1 or e} to it and keeping the exponent it overwrote,
    to put back when it moves.

    ``packed`` keeps only the partitions whose values are exactly 1..l for
    some l, and needs k = |P|.  The walk turns back as soon as the gaps
    below the largest value placed outnumber the positions left to fill
    them, and the last position, which must fill the gap if one is left,
    takes only values that leave none.  So every partition counted is
    packed, and each exponent tuple is nonzero exactly on a prefix.
    """
    if k < 0:
        raise ValueError("need a nonnegative number of values")
    order = poset.order
    n = len(order)
    if not n:
        return {(0,) * k: 1}
    lower = _lower_covers(poset)
    # per position: the exponent its label puts on x_{value}
    pattern = [1 if el > 0 else EPS for el in order]
    values = [0] * n
    # packed: per position, the distinct values placed before it and the
    # largest of them
    used = [0] * n
    peak = [0] * n

    def least(p):
        lo = 1
        for q, strict in lower[p]:
            if values[q] + strict > lo:
                lo = values[q] + strict
        return lo

    out = {}
    exps = [0] * k
    saved = [None] * n  # the exponent a placed position overwrote
    last = n - 1
    p = 0
    while p >= 0:
        if p == last:
            # the last position runs through its values in one go
            exp = pattern[p]
            # packed: only values that leave no gap, so none above the
            # distinct values placed plus one, and the gap if one is left
            run = range(least(p), (used[p] + 1 if packed else k) + 1)
            if packed and peak[p] > used[p]:
                run = [value for value in run if not exps[value - 1]]
            for value in run:
                old = exps[value - 1]
                exps[value - 1] = ntilde_add(old, exp)
                key = tuple(exps)
                out[key] = out.get(key, 0) + 1
                exps[value - 1] = old
            p -= 1
            continue
        old = saved[p]
        if old is None:
            value = least(p)
        else:
            value = values[p]
            exps[value - 1] = old
            value += 1
        if value > k:
            saved[p] = None
            p -= 1
            continue
        values[p] = value
        old = saved[p] = exps[value - 1]
        exps[value - 1] = ntilde_add(old, pattern[p])
        p += 1
        if packed:
            used[p] = used[p - 1] + (not old)
            peak[p] = max(peak[p - 1], value)
            if peak[p] - used[p] > n - p:
                p -= 1
    return out


def gamma(poset, k):
    """Generating function of signed P-partitions, truncated to k
    variables, counted by ``_exponent_counts``."""
    return Series.wrap(k, _exponent_counts(poset, k))


def gamma_m(poset):
    """Gamma(P) in the monomial basis of RQSym, with no truncation.

    Every P-partition is the packed P-partition of its distinct values,
    followed by an increasing map of 1..l into the variables (Stanley's
    compression), so Gamma(P) = sum_alpha c_alpha M_alpha, with c_alpha
    the number of packed P-partitions, with values exactly 1..l(alpha),
    whose exponent tuple is alpha.
    """
    return LinComb.wrap({exps[:len(exps) - exps.count(0)]: c
                         for exps, c in _exponent_counts(poset, len(poset), True).items()})


def expand_m(alpha, k):
    """Monomial weak quasi-symmetric function truncated to k variables:
    sum over strictly increasing variable tuples."""
    ell = len(alpha)
    out = {}
    for vars_ in itertools.combinations(range(k), ell):
        exps = [0] * k
        for v, part in zip(vars_, alpha):
            exps[v] = part
        key = tuple(exps)
        out[key] = out.get(key, 0) + 1
    return Series.wrap(k, out)


def expand_f(alpha, k):
    """Fundamental weak quasi-symmetric function truncated to k
    variables.

    By the paper's P-partition theorem, Gamma(pi) = F_{wcomp(pi)} for
    every signed permutation pi, so F_alpha is Gamma of the chain of any
    preimage of alpha under ``wcomp``.
    """
    return gamma(chain_poset(wcomp_preimage(alpha)), k)


def _binomial(n, r, cap):
    """C(n, r), or cap + 1 if that is larger.  With r at most n - r, the
    partial products C(n - r + i, i) at least double with each i, so an
    absurd count costs about log2(cap) steps, not its own size."""
    r = min(r, n - r)
    if r < 0:
        return 0
    out = 1
    for i in range(1, r + 1):
        out = out * (n - r + i) // i
        if out > cap:
            return cap + 1
    return out


def expansion_size(alpha, k, basis, cap):
    """The work of expanding ``alpha`` in k variables, counted without
    expanding, or cap + 1 if it is more than cap: for ``basis`` "m" the
    C(k, l(alpha)) terms of ``expand_m``, for "f" the P-partitions that
    ``expand_f`` walks, a bound on its terms, since epsilon exponents
    collide.  Those of a chain of n letters with s strict steps are the
    weakly increasing maps into [k - s], each raised by one past every
    strict step: C(k - s + n - 1, n) of them.  The chain of
    ``wcomp_preimage(alpha)`` has the weight of alpha as its n, and a
    strict step after every positive part but a last one, so neither the
    word nor the chain is built."""
    if basis == "m":
        return _binomial(k, len(alpha), cap)
    n = total_weight(alpha)
    strict = sum(p is not EPS for p in alpha[:-1])
    return _binomial(k - strict + n - 1, n, cap)


# ---------------------------------------------------------------------------
# randomized posets and the generating-function verification suite


def random_poset(rng, max_size, absolutes=range(1, 10)):
    """Random signed labeled poset: distinct labels drawn from
    ``absolutes`` with random signs, covers drawn forward along a shuffled
    order."""
    n = rng.randint(0, max_size)
    absolutes = rng.sample(absolutes, n)
    labels = [a if rng.random() < 0.5 else -a for a in absolutes]
    order = labels[:]
    rng.shuffle(order)
    covers = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                covers.append((order[i], order[j]))
    return Poset(labels, covers)


def _assignments_as_set(partitions):
    return {frozenset(f.items()) for f in partitions}


def verify_gamma_identities(max_len=3, k=6, pair_len=4, pair_k=8,
                            random_cases=50, random_k=4, seed=20240601,
                            shard=(0, 1)):
    """The generating-function identities.  The first three are checked
    exactly, in the monomial basis of RQSym through ``gamma_m``, so they
    no longer read ``k`` and ``pair_k``:

    * Gamma(pi) equals the fundamental function of wcomp(pi) for every
      signed permutation of length <= max_len;
    * Gamma is multiplicative for the weight -1 product on pairs of
      combined length <= pair_len, the product of monomial functions
      being ``star_product``;
    * Gamma of a disjoint union factors, on random poset pairs;
    * the partitions of a poset with values in 1..random_k are the union
      of the partitions of its linear extensions, on random posets.

    For this call only, Gamma of a word is memoized by ``_chain_shape``,
    which is all the odometer reads of a chain, and each M product by its keys.
    """
    perms = [list(signed_permutations(n)) for n in range(max(max_len, pair_len) + 1)]

    rng = random.Random(seed)
    union_cases = [(random_poset(rng, 3, range(1, 5)), random_poset(rng, 3, range(5, 9)))
                   for _ in range(random_cases)]
    extension_cases = [(random_poset(rng, 4),) for _ in range(random_cases)]

    shapes = {}  # Gamma of the first chain met with each shape
    product = functools.cache(star_product)

    @functools.cache
    def gamma_word(pi):
        shape = _chain_shape(pi)
        if shape not in shapes:
            shapes[shape] = gamma_m(chain_poset(pi))
        return shapes[shape]

    def extensions(p):
        st = p.standardize()
        union = set()
        for pi in st.linear_extensions():
            union |= _assignments_as_set(enumerate_ppartitions(chain_poset(pi), random_k))
        return _assignments_as_set(enumerate_ppartitions(st, random_k)) == union

    return run_laws([
        Law("Gamma(pi) = F_{wcomp(pi)}", graded_tuples(perms, 1, max_len),
            lambda pi: gamma_word(pi) == f_to_m(wcomp(pi)), perm_to_text),
        Law("Gamma(sigma) Gamma(tau) = Gamma(sigma * tau)", graded_tuples(perms, 2, pair_len),
            lambda s, t: (lc_mul(gamma_word(s), gamma_word(t), product)
                          == shifted_quasi_shuffle(s, t, -1).map_basis(gamma_word)),
            perm_to_text),
        Law("Gamma(P u Q) = Gamma(P) Gamma(Q)", union_cases,
            lambda p, q: gamma_m(p.disjoint_union(q))
            == lc_mul(gamma_m(p), gamma_m(q), product), repr),
        Law("A(P) = union of A(pi) over linear extensions", extension_cases, extensions, repr),
    ], shard)
