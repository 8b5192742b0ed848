"""The Hopf algebras of signed permutations and of (weak) quasi-symmetric
functions, and ``verify_hopf``, which states the Hopf axioms of any of
them as laws for the runner in ``laws``.

Each of the five algebras in ``ALGEBRAS`` is defined once, as a row of
the table ``_ROWS``, which ``context_by_name``, the only constructor of a
``HopfContext``, builds for the algebra asked for alone.  A row gives the
basis letter, the kind of key (signed permutations, of degree their
length, or regularized compositions, of degree their total weight), the
product, the coproduct, an exhaustive basis enumerator per degree, and
the closed-form antipode if there is one.  The unit is the empty key, and
the counit picks out its coefficient.  Every degree stratum is finite, so
``verify_hopf`` can sweep it.

The coproduct of signed permutations, the standardized deconcatenation, is
``standard_splits``: dropping a letter of absolute value m from a standard
word moves every letter of absolute value above m one step towards zero, so
each leg is read off its longer neighbour, from the key itself, with no sort.

The fundamental product goes through signed permutations, by the paper's
P-partition theorem: Gamma(pi) = F_{wcomp(pi)}, and Gamma takes the
weight -1 shifted quasi-shuffle to the product of generating functions,
so F_alpha F_beta = sum_w c_w F_{wcomp(w)} over the terms c_w w of that
product of any two preimages under ``wcomp`` (Gessel's rule for QSym,
extended to epsilon parts).  The monomial route, F -> M, quasi-shuffle,
M -> F, is kept in the tests as its reference.

Antipodes come in two flavours.  Closed form for the composition side:

    S(M_a) = (-1)^{len(a)} sum_{J |= len(a)} M_{J[a^r]}.

Generic recursion for the permutation side, valid in any connected
cograded bialgebra: S(unit) = unit and, for x of positive degree,
S(x) = - sum c * S(a) * b over the coproduct terms c * (a @ b) of x with
deg(a) < deg(x).  Each level adds every product into one dict through the
row's ``add_product``: on signed permutations the word kernel
``add_shifted_product``, so no product becomes a ``LinComb`` or a memo
entry; on compositions the memoized product, accumulated.  The zeros of a
level are dropped once, when it is done.

For lam != 0, w -> lam^|w| w is a Hopf isomorphism from HSym at weight lam
to HSym at weight 1: merges are the only source of lam, each shortening a
word by one letter, and the coproduct keeps the total length.  So a term of
a product or antipode at lam is the weight-1 term times lam to the power of
the letters lost, and the Hopf axioms at one nonzero weight hold at all.
"""
from __future__ import annotations

import functools
from fractions import Fraction

from .laws import Law, graded_tuples, run_laws
from .laws import report_to_json  # re-exported: hopf.report_to_json is public
from .lincomb import LinComb, accumulate, tensor_bilinear
from .compositions import (
    EPS,
    comp_to_text,
    compositions_of,
    j_apply,
    refinement_terms,
    regularized_compositions,
    reversal,
    star_product,
    text_to_comp,
    total_weight,
    wcomp,
    wcomp_preimage,
)
from .words import (
    add_shifted_product,
    perm_to_text,
    positive_permutations,
    quasi_shuffle,
    shift,
    shifted_quasi_shuffle,
    shifted_shuffle,
    signed_permutations,
    text_to_perm,
)

ALGEBRAS = ("hsym", "ssym", "rqsym-m", "rqsym-f", "qsym")

# the two kinds of basis key: degree, text form, parser of the text form
WORDS = (len, perm_to_text, text_to_perm)
COMPOSITIONS = (total_weight, comp_to_text, text_to_comp)


def deconcatenation(key):
    """Sum of u @ v over the splits key = u v.  Splits at different points
    give different pairs, so every coefficient is 1."""
    return LinComb.wrap({(key[:p], key[p:]): 1 for p in range(len(key) + 1)})


def standard_splits(perm):
    """Sum of st(u) @ st(v) over the splits perm = u v, each leg read off
    its longer neighbour (see the module docstring)."""
    prefixes, suffixes = [perm], [perm]
    for _ in perm:
        pre, suf = prefixes[-1], suffixes[-1]
        m, n = abs(pre[-1]), abs(suf[0])
        prefixes.append(tuple([a - 1 if a > m else a + 1 if a < -m else a for a in pre[:-1]]))
        suffixes.append(tuple([a - 1 if a > n else a + 1 if a < -n else a for a in suf[1:]]))
    return LinComb.wrap(dict.fromkeys(zip(reversed(prefixes), suffixes), 1))


def rqsym_antipode_m(alpha):
    """Closed-form antipode on the monomial basis."""
    ell = len(alpha)
    if ell == 0:
        return LinComb.single(())
    rev = reversal(alpha)
    sign = (-1) ** ell
    return LinComb((j_apply(J, rev), sign) for J in compositions_of(ell))


def f_to_m(alpha):
    """Expansion of a fundamental basis key into monomial keys."""
    return LinComb(refinement_terms(alpha))


def m_to_f(alpha):
    """Inverse basis change, with alternating signs by length difference."""
    ell = len(alpha)
    return LinComb(
        (beta, c if (len(beta) - ell) % 2 == 0 else -c)
        for beta, c in refinement_terms(alpha)
    )


# module-level: every context shares them, and perfbench traces them by name;
# bounded, as they outlive every context (the budget-5 suites need 377 keys)
f_to_m_cached = functools.lru_cache(maxsize=1024)(f_to_m)
m_to_f_cached = functools.lru_cache(maxsize=1024)(m_to_f)


def rqsym_product_f(alpha, beta):
    """Product on fundamental keys, by the P-partition theorem of the
    module docstring: sum c_w F_{wcomp(w)} over the terms c_w w of
    s * t[len(s)] at weight -1, for s and t the ``wcomp_preimage`` of alpha
    and beta.  ``wcomp`` reads only the relative order inside each positive
    block, and merges touch only negative letters, so the raw words need no
    ``standardize``."""
    s, t = wcomp_preimage(alpha), wcomp_preimage(beta)
    raw = quasi_shuffle(s, shift(t, len(s)), -1)
    return LinComb((wcomp(w), c) for w, c in raw.terms.items())


def rqsym_coproduct_f(alpha):
    """Deconcatenation splits plus near-concatenation splits (cutting a
    positive part s into s' + s'').  Every pair arises from one split."""
    near = {(alpha[:p] + (left,), (part - left,) + alpha[p + 1 :]): 1
            for p, part in enumerate(alpha) if part is not EPS
            for left in range(1, part)}
    return LinComb.wrap({**deconcatenation(alpha).terms, **near})


def rqsym_antipode_f(alpha):
    s = f_to_m_cached(alpha).map_basis(rqsym_antipode_m)
    return s.map_basis(m_to_f_cached)


def _memo(fn):
    """``functools.cache(fn)`` by its own call (since 3.5), no ``update_wrapper`` (9x the cache)."""
    return functools._lru_cache_wrapper(fn, None, False, functools._CacheInfo)


class HopfContext:
    """A Hopf algebra presented on a basis, with finite degree strata:
    one row of the table ``_ROWS``.

    The context owns its memos, as attributes read at call time:
    ``product``, ``coproduct`` and ``closed_antipode`` (None without a
    closed form) are ``_memo`` of the row's plain functions, and
    ``_graded`` holds the values of ``graded_antipode``.  No memo holds the
    context, so a dropped context is freed by reference counting, and a
    new one starts cold."""

    unit = ()

    def __init__(self, name, letter, kind, excluded, product, coproduct, basis,
                 antipode, add_product=None):
        self.name = name
        self.letter = letter
        self.degree, self.key_text, self._text_to_key = kind
        self._excluded = excluded
        self.product, self.coproduct = _memo(product), _memo(coproduct)
        self.basis = basis
        self.closed_antipode = _memo(antipode) if antipode else None
        if add_product:
            self.add_product = add_product
        self._graded = {}

    def counit(self, key):
        return 1 if key == () else 0

    def parse_key(self, text):
        """The basis key written ``text``; ValueError naming ``text`` if
        there is none.  Checks the entries, never enumerates a basis."""
        key = self._text_to_key(text)
        if self._excluded and any(p is EPS or p < 0 for p in key):
            raise ValueError(f"{text!r} has {self._excluded}; {self.name} keys have none")
        return key

    def antipode(self, key):
        """The closed-form antipode if the row has one, else the graded one."""
        closed = self.closed_antipode
        return closed(key) if closed else self.graded_antipode(key)

    def add_product(self, out, a, b, scale):
        """Add scale * product(a, b) into ``out``; a row's kernel replaces this."""
        accumulate(out, self.product(a, b).terms.items(), scale)

    def graded_antipode(self, key):
        """The antipode of ``key`` by the generic recursion of the module
        docstring, whether or not a closed form exists, each value stored in
        ``_graded``."""
        found = self._graded.get(key)
        if found is not None:
            return found
        deg, terms = self.degree(key), {}
        for (a, b), c in self.coproduct(key).terms.items() if deg else ():
            if self.degree(a) < deg:
                for ka, ca in self.graded_antipode(a).terms.items():
                    self.add_product(terms, ka, b, -c * ca)
            else:  # connectedness: the only non-reduced term is key @ unit
                assert a == key and b == () and c == 1, (key, a, b, c)
        out = self._graded[key] = LinComb.wrap({k: c for k, c in terms.items() if c}
                                               if deg else {key: 1})
        return out


# name: the table row of a weight lam: basis letter, key kind, entries the
# keys exclude, product, coproduct, basis of a degree, closed-form antipode,
# add_product.  Each row is built when its context is, from the functions
# this module binds at the time.
_ROWS = {
    "hsym": lambda lam: ("P", WORDS, None, lambda a, b: shifted_quasi_shuffle(a, b, lam),
                         standard_splits, lambda n: list(signed_permutations(n)), None,
                         lambda out, a, b, c: add_shifted_product(out, a, b, lam, c)),
    "ssym": lambda lam: ("P", WORDS, "negative letters", shifted_shuffle, standard_splits,
                         lambda n: list(positive_permutations(n)), None,
                         lambda out, a, b, c: add_shifted_product(out, a, b, 0, c)),
    "rqsym-m": lambda lam: ("M", COMPOSITIONS, None, star_product, deconcatenation,
                            regularized_compositions, rqsym_antipode_m),
    "rqsym-f": lambda lam: ("F", COMPOSITIONS, None, rqsym_product_f, rqsym_coproduct_f,
                            regularized_compositions, rqsym_antipode_f),
    "qsym": lambda lam: ("M", COMPOSITIONS, "epsilon parts", star_product, deconcatenation,
                         compositions_of, rqsym_antipode_m),
}


def context_by_name(name, lam=-1):
    """The context of the algebra ``name``, one of ``ALGEBRAS``, from its
    row alone, at the hsym weight ``lam``: an int, else ``Fraction(lam)``, an int if integral."""
    if type(lam) is not int and (lam := Fraction(lam)).denominator == 1:
        lam = lam.numerator
    if name not in _ROWS:
        raise ValueError(f"unknown algebra {name!r}")
    return HopfContext(name, *_ROWS[name](lam))


# ---------------------------------------------------------------------------
# axiom verification


def verify_hopf(ctx, max_degree, shard=(0, 1)):
    """Exhaustively check the Hopf axioms on all basis strata.

    Singles run to degree ``max_degree``; pairs and triples run to summed
    degree ``max_degree + 1``.  Returns one LawReport per axiom.
    """
    strata = {d: ctx.basis(d) for d in range(max_degree + 2)}
    singles = graded_tuples(strata, 1, max_degree)
    pairs = graded_tuples(strata, 2, max_degree + 1)
    triples = graded_tuples(strata, 3, max_degree + 1)
    unit = ctx.unit
    key_text = ctx.key_text
    tensor_text = lambda kk: [key_text(kk[0]), key_text(kk[1])]

    def unit_laws(x):
        xl = LinComb.single(x)
        return ctx.product(unit, x) == xl and ctx.product(x, unit) == xl

    def associativity(x, y, z):
        lhs = ctx.product(x, y).map_basis(lambda k: ctx.product(k, z))
        rhs = ctx.product(y, z).map_basis(lambda k: ctx.product(x, k))
        return lhs, rhs

    def coassociativity(x):
        dx = ctx.coproduct(x).terms.items()
        left = LinComb(((p, q, b), c * c2) for (a, b), c in dx
                       for (p, q), c2 in ctx.coproduct(a).terms.items())
        right = LinComb(((a, p, q), c * c2) for (a, b), c in dx
                        for (p, q), c2 in ctx.coproduct(b).terms.items())
        return left == right

    def counit_laws(x):
        dx = ctx.coproduct(x).terms.items()
        xl = LinComb.single(x)
        return (LinComb((b, c * ctx.counit(a)) for (a, b), c in dx) == xl
                and LinComb((a, c * ctx.counit(b)) for (a, b), c in dx) == xl)

    def counit_multiplicativity(x, y):
        eps = sum(c * ctx.counit(k) for k, c in ctx.product(x, y).terms.items())
        return eps == ctx.counit(x) * ctx.counit(y)

    def coproduct_multiplicativity(x, y):
        lhs = ctx.product(x, y).map_basis(ctx.coproduct)
        return lhs, tensor_bilinear(ctx.coproduct(x), ctx.coproduct(y), ctx.product)

    def cograded(x):
        degx = ctx.degree(x)
        return all(ctx.degree(a) + ctx.degree(b) == degx for a, b in ctx.coproduct(x).terms)

    def antipode_left(x):
        conv = LinComb((k, c * cs * cp) for (a, b), c in ctx.coproduct(x).terms.items()
                       for s, cs in ctx.antipode(a).terms.items()
                       for k, cp in ctx.product(s, b).terms.items())
        return conv, LinComb.single(unit, ctx.counit(x))

    def antipode_right(x):
        conv = LinComb((k, c * cs * cp) for (a, b), c in ctx.coproduct(x).terms.items()
                       for s, cs in ctx.antipode(b).terms.items()
                       for k, cp in ctx.product(a, s).terms.items())
        return conv, LinComb.single(unit, ctx.counit(x))

    return run_laws([
        Law("unit laws", singles, unit_laws, key_text),
        Law("product associativity", triples, associativity, key_text, key_text),
        Law("coassociativity", singles, coassociativity, key_text),
        Law("counit laws", singles, counit_laws, key_text),
        Law("counit multiplicativity", pairs, counit_multiplicativity, key_text),
        Law("coproduct multiplicativity", pairs, coproduct_multiplicativity,
            key_text, tensor_text),
        Law("cograded coproduct", singles, cograded, key_text),
        Law("antipode convolution (left)", singles, antipode_left, key_text, key_text),
        Law("antipode convolution (right)", singles, antipode_right, key_text, key_text),
    ], shard)
