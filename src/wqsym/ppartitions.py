"""Signed labeled posets, signed P-partitions, and generating functions.

A signed labeled poset carries distinct nonzero integer labels with
distinct absolute values.  A signed P-partition is a map f from the
labels to {1..k} that weakly increases along the order and strictly
increases across a relation i < j in the poset whenever the integer label
i exceeds max(0, j); it suffices to impose both conditions on covering
pairs.

The generating function Gamma(P) sums, over all P-partitions, the
monomial with exponent 1 on x_{f(i)} for positive labels i and exponent
epsilon for negative ones.  Every P-partition is a packed one, with
values exactly 1..l, followed by an increasing map of 1..l into the
variables (Stanley's compression), so Gamma(P) = sum c_alpha M_alpha.
One odometer counts the packed P-partitions by exponent tuple alpha,
building no partition, and ``gamma_m`` is that sum; ``gamma`` truncates
it to k variables, a ``Series`` whose exponents add in the monoid
{0, e, 1, 2, ...}, by placing each alpha on every l(alpha)-subset of the
variables, as ``expand_m`` places one alpha.  The sum over the
partitions that ``enumerate_ppartitions`` lists is its test oracle.  By
the paper's theorem Gamma(pi) = F_{wcomp(pi)}, ``expand_f`` is ``gamma``
of a chain.

The verification suite checks the identities of Gamma exactly, in the
monomial basis.  Gamma of a chain reads only the sign of each letter and
which steps are strict, so within one call the suite computes it once
per such shape, and each M product once.
"""
from __future__ import annotations

import functools
import heapq
import itertools
import operator
import random
from fractions import Fraction

from .lincomb import LinComb, lc_mul
from .compositions import EPS, ntilde_add, total_weight, wcomp, wcomp_preimage
from .hopf import context_by_name, f_to_m
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
            factors = [f"x{i + 1}" if x == 1 else f"x{i + 1}^{x}" for i, x in enumerate(e) if x]
            mono = "*".join(factors) if factors else "1"
            bits.append(f"{c!s}*{mono}")
        return " + ".join(bits)

    def __repr__(self):
        return f"Series(k={self.k}, {self.to_text()})"


def _exponent_counts(poset, cap):
    """The number c_alpha of packed P-partitions of ``poset`` (values
    exactly 1..l, l <= cap) with exponent tuple alpha, a composition.

    Runs the odometer of ``enumerate_ppartitions`` but builds no
    partition: one exponent list follows the values, each placed position
    adding x_{value}^{1 or e} to it and keeping the exponent it overwrote,
    to put back when it moves.  A position takes no value above the
    distinct values placed plus the positions left, so the gaps, the
    unused values below the largest value placed, never outnumber the
    positions left to fill them; once they match, it takes only a gap."""
    if cap < 0:
        raise ValueError("need a nonnegative number of values")
    order = poset.order
    n = len(order)
    if not n:
        return {(): 1}
    lower = _lower_covers(poset)
    # per position: the exponent its label puts on x_{value}
    pattern = [1 if el > 0 else EPS for el in order]
    values = [0] * n
    out = {}
    exps = [0] * cap
    saved = [None] * n  # the exponent a placed position overwrote
    used = top = 0  # the distinct values placed, and the largest of them
    raised = [0] * n  # the largest value before a position that raised it
    last = n - 1
    p = 0
    while p >= 0:
        old = saved[p]
        if old is None:
            value = 1  # the least value the lower covers allow
            for q, strict in lower[p]:
                if values[q] + strict > value:
                    value = values[q] + strict
            if p == last:
                # the last position runs through its values in one go: the
                # gap if one is left, else any value up to one above the top
                gap = top > used and exps.index(0) + 1
                run = range(max(value, gap), (gap or min(cap, used + 1)) + 1)
                exp = pattern[p]
                for value in run:
                    old = exps[value - 1]
                    exps[value - 1] = ntilde_add(old, exp)
                    key = tuple(exps)
                    out[key] = out.get(key, 0) + 1
                    exps[value - 1] = old
                p -= 1
                continue
        else:
            value = values[p]
            exps[value - 1] = old
            if not old:
                used -= 1
                if value == top:
                    top = raised[p]
            value += 1
        if value > cap or value > used + n - p:
            saved[p] = None
            p -= 1
            continue
        values[p] = value
        old = saved[p] = exps[value - 1]
        exps[value - 1] = ntilde_add(old, pattern[p])
        if not old:
            used += 1
            if value > top:
                raised[p] = top
                top = value
        elif top - used == n - p:
            continue  # a value already used would leave a gap unfilled
        p += 1
    # the nonzero exponents of a packed partition are a prefix
    return {exps[:cap - exps.count(0)]: c for exps, c in out.items()}


# bounded, unlike a module-wide functools.cache: one pair keeps C(k, l) getters
@functools.lru_cache(maxsize=64)
def _placements(k, l):
    """One getter per l-subset of the k variables: applied to (0,) + alpha,
    for alpha of length l, the exponent tuple with alpha's parts on that
    subset; a slice below two variables, where an itemgetter gives no tuple."""
    return tuple(operator.itemgetter(*[places.index(v) + 1 if v in places else 0
                                       for v in range(k)]) if k > 1
                 else operator.itemgetter(slice(l, l + k))
                 for places in itertools.combinations(range(k), l))


def _place(counts, k):
    """sum c_alpha M_alpha in k variables, from a dict alpha -> c_alpha
    with no zero count: each alpha of length l put, its parts in order, on
    every l-subset of the variables.  No part is 0, so the monomial is
    nonzero exactly on the subset and reads alpha there: two distinct
    pairs (alpha, subset) never give the same monomial, and the
    placements are written with no accumulation."""
    out = {}
    for alpha, c in counts.items():
        row = (0,) + alpha
        for get in _placements(k, len(alpha)):
            out[get(row)] = c
    return out


def gamma(poset, k, max_entries=None):
    """Gamma(P) truncated to k variables: the packed counts, with at most
    min(k, |P|) values, placed on the k variables.  With ``max_entries``,
    a ValueError before any placement if the series has more entries, k
    exponents for each (alpha, l(alpha)-subset) that ``_place`` writes."""
    counts = _exponent_counts(poset, min(k, len(poset)))
    if max_entries is not None and k * sum(
            _binomial(k, len(alpha), max_entries) for alpha in counts) > max_entries:
        raise ValueError(f"gamma would write more than {max_entries} entries")
    return Series.wrap(k, _place(counts, k))


def gamma_m(poset):
    """Gamma(P) in the monomial basis of RQSym, with no truncation: c_alpha
    is the number of packed P-partitions with exponent tuple alpha."""
    return LinComb.wrap(_exponent_counts(poset, len(poset)))


def expand_m(alpha, k):
    """Monomial weak quasi-symmetric function truncated to k variables:
    alpha placed on each of the C(k, l(alpha)) l(alpha)-subsets."""
    return Series.wrap(k, _place({alpha: 1}, k))


def expand_f(alpha, k):
    """Fundamental weak quasi-symmetric function truncated to k variables:
    Gamma(pi) = F_{wcomp(pi)} for every signed permutation pi, so F_alpha
    is Gamma of the chain of any preimage of alpha under ``wcomp``."""
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
    C(k, l(alpha)) terms of ``expand_m``, for "f" the P-partitions in k
    values of the chain that ``expand_f`` walks.  Each is one packed
    P-partition placed on one subset of the variables, so they bound
    both the packed ones walked and the terms placed, fewer where
    epsilon exponents collide.  Those of a chain of n letters with s
    strict steps are the weakly increasing maps into [k - s], each
    raised by one past every strict step: C(k - s + n - 1, n) of them.
    The chain of ``wcomp_preimage(alpha)`` has the weight of alpha as its
    n, and a strict step after every positive part but a last one, so
    neither the word nor the chain is built."""
    if basis == "m":
        return _binomial(k, len(alpha), cap)
    n = total_weight(alpha)
    strict = sum(p is not EPS for p in alpha[:-1])
    return _binomial(k - strict + n - 1, n, cap)


def walk_size(poset, k, cap):
    """An upper bound on the packed P-partitions that ``gamma`` walks in k
    variables, counted without walking, or cap + 1 if it is more than cap.
    Each is a P-partition into [l], l = min(k, |P|), so along each chain of
    a cover of P by chains it increases weakly, and strictly at each strict
    step: a chain of c labels with s strict steps takes at most
    C(l - s + c - 1, c) maps, as in ``expansion_size``, and the product
    over the chains bounds the walk.  The cover by single labels gives the
    l^|P| maps into [l], enough for a small poset; past the cap, chains are
    grown along ``poset.order``, each label extending a chain that ends at
    one of its lower covers if there is one."""
    l, n = min(k, len(poset)), len(poset)
    if l < 2 or n <= 64 and l ** n <= cap:
        return l ** n
    ends = {}  # position of the last label of a chain -> (its labels, its strict steps)
    for p, covers in enumerate(_lower_covers(poset)):
        q, strict = next(((q, strict) for q, strict in covers if q in ends), (None, 0))
        c, s = ends.pop(q, (0, 0))
        ends[p] = (c + 1, s + strict)
    out = 1
    for c, s in ends.values():
        out *= _binomial(l - s + c - 1, c, cap)
        if out > cap:
            return cap + 1
    return out


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
      being that of the rqsym-m context;
    * Gamma of a disjoint union factors, on random poset pairs;
    * the partitions of a poset with values in 1..random_k are the union
      of the partitions of its linear extensions, on random posets.

    For this call only, Gamma of a word is memoized by ``_chain_shape``,
    which is all the odometer reads of a chain, and each M product by its context.
    """
    perms = [list(signed_permutations(n)) for n in range(max(max_len, pair_len) + 1)]

    rng = random.Random(seed)
    union_cases = [(random_poset(rng, 3, range(1, 5)), random_poset(rng, 3, range(5, 9)))
                   for _ in range(random_cases)]
    extension_cases = [(random_poset(rng, 4),) for _ in range(random_cases)]

    shapes = {}  # Gamma of the first chain met with each shape
    product = context_by_name("rqsym-m").product

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
