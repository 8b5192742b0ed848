"""Sparse linear combinations over Q with arbitrary basis keys.

Every algebra element in this package is a finite linear combination of
basis keys with nonzero exact rational coefficients.  Basis keys are
tuples: signed words/permutations are tuples of nonzero ints, regularized
compositions are tuples of ints and the ``EPS`` marker, and tensors use
pairs of keys.  Coefficients stay plain ``int`` while they can and become
``fractions.Fraction`` as soon as a non-integer scalar enters; the two mix
freely and compare equal where they should.

No stored coefficient is ever zero, so equality of combinations is plain
equality of the underlying term dicts.  Every sum of terms goes through
one accumulator, ``accumulate``, which adds scaled terms into a dict and
drops a key the moment its coefficient sums to zero.  A bilinear kernel
feeds it one stream of terms, ``LinComb(<generator>)`` or, in ``lc_mul``,
each product's own terms: never a combination built per pair of terms.
One sum bypasses it: the graded antipode on signed permutations
(``HopfContext.graded_antipode``) has the word kernel
``words.add_shifted_product`` add each product into the dict of its level,
and drops that level's zeros once, when it is done.
"""
from __future__ import annotations

from fractions import Fraction


class _Eps(float):
    """The one epsilon: a float of value 0.5 that reads as "e", so keys
    holding it compare as plain tuples, in C, by the order 0 < e < 1.  Two
    float behaviours remain: ``EPS == 0.5``, but no key or exponent holds
    0.5; ``json.dumps(EPS)`` gives ``0.5``, but every writer maps ``EPS``
    to "e".  Arithmetic on it raises ``TypeError``: ``ntilde_add`` adds it."""

    __slots__ = ()

    def __repr__(self):
        return "e"

    def __reduce__(self):
        return "EPS"  # by reference, so identity checks survive worker processes

    def __add__(self, *other):
        raise TypeError("epsilon takes part in no arithmetic")

    __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = __add__
    __truediv__ = __rtruediv__ = __neg__ = __int__ = __add__


# the epsilon part of compositions and exponent tuples, public as
# ``compositions.EPS``; defined in this module, which imports no other of
# the package, as the canonical order below rests on its value
EPS = _Eps(0.5)


def basis_sort_key(key):
    """Canonical total order on basis keys: length first, then entrywise,
    ``EPS`` between 0 and 1.  Tensor keys (tuples of keys) are ordered
    lexicographically by the orders of their legs."""
    if key and type(key[0]) is tuple:
        return tuple(map(basis_sort_key, key))
    return (len(key), *key)


def sorted_keys(keys):
    """The keys, a collection of one kind, in ``basis_sort_key`` order.
    Flat keys by two sorts in C, entrywise then stably by length, as they
    compare as their entries; tensor keys by ``basis_sort_key``."""
    first = next(iter(keys), ())
    if first and type(first[0]) is tuple:
        return sorted(keys, key=basis_sort_key)
    return sorted(sorted(keys), key=len)


def accumulate(acc, terms, scalar=1):
    """Add scalar * c into ``acc`` for every (key, c) of ``terms``, deleting
    a key as soon as its coefficient sums to zero, so that ``acc`` stays
    zero-free; return ``acc``."""
    unit = scalar == 1  # multiplying by 1 is not free once coefficients are Fractions
    for key, coeff in terms:
        c = acc.get(key, 0) + (coeff if unit else scalar * coeff)
        if c:
            acc[key] = c
        elif key in acc:
            del acc[key]
    return acc


class LinComb:
    """A finite map basis key -> nonzero rational, behaving as a vector.

    Instances are treated as immutable: no operation mutates ``terms`` of
    an existing combination, so sharing (e.g. from caches) is safe.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        self.terms = accumulate({}, terms.items() if isinstance(terms, dict) else terms)

    @classmethod
    def wrap(cls, clean_terms):
        """Adopt a dict that is already free of zero coefficients."""
        obj = object.__new__(cls)
        obj.terms = clean_terms
        return obj

    @classmethod
    def zero(cls):
        return cls.wrap({})

    @classmethod
    def single(cls, key, coeff=1):
        return cls.wrap({key: coeff}) if coeff else cls.wrap({})

    def _like(self, clean_terms, other=None):
        """A combination of this one's kind over a zero-free dict.  ``other``
        is the second operand of a sum or difference, for a subclass to
        check that it is of the same kind."""
        return LinComb.wrap(clean_terms)

    def items(self):
        """Terms in the canonical key order."""
        return [(k, self.terms[k]) for k in sorted_keys(self.terms)]

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LinComb):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        return self._like(accumulate(dict(self.terms), other.terms.items()), other)

    def __sub__(self, other):
        return self._like(accumulate(dict(self.terms), other.terms.items(), -1), other)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def scale(self, scalar):
        if not scalar:
            return self._like({})
        return self._like({k: c * scalar for k, c in self.terms.items()})

    __mul__ = scale
    __rmul__ = scale

    def map_basis(self, f):
        """Linear extension of a basis map f: key -> LinComb.

        On a basis element (one key, coefficient 1) this is ``f(key)``
        itself, shared rather than copied, as combinations are immutable;
        so a memoized f keeps one value per key.  The result is then of
        whatever kind f returns: no caller in this package maps into a
        ``Series``."""
        terms = self.terms
        if len(terms) == 1:
            (key, coeff), = terms.items()
            if coeff == 1:
                return f(key)
        out = {}
        for key, coeff in terms.items():
            accumulate(out, f(key).terms.items(), coeff)
        return LinComb.wrap(out)

    def __repr__(self):
        if not self.terms:
            return "LinComb(0)"
        bits = " + ".join(f"{c}*{k}" for k, c in self.items())
        return f"LinComb({bits})"


def lc_mul(a, b, mult):
    """Bilinear extension of a basis product mult: (key, key) -> LinComb;
    a generator costs more here than one ``accumulate`` per pair."""
    out = {}
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            accumulate(out, mult(ka, kb).terms.items(), ca * cb)
    return LinComb.wrap(out)


def tensor(a, b):
    """Outer product of two combinations: keys become pairs."""
    return LinComb.wrap({(ka, kb): ca * cb for ka, ca in a.terms.items()
                         for kb, cb in b.terms.items()})


def tensor_bilinear(a, b, mult):
    """Componentwise product of tensors: (x@y)(u@v) = (xu)@(yv), as one
    stream of terms into the accumulator, with no tensor per pair."""
    return LinComb(((x, y), wx * cy) for (xa, ya), ca in a.terms.items()
                   for (xb, yb), cb in b.terms.items()
                   for c, xs, ys in [(ca * cb, mult(xa, xb).terms, mult(ya, yb).terms)]
                   for x, cx in xs.items() for wx in [c * cx] for y, cy in ys.items())


def tensor_bimap(t, f, g):
    """Apply basis maps to both tensor legs: sum c * f(a) @ g(b), as one
    stream of terms into the accumulator, with no tensor per term."""
    return LinComb(((x, y), wx * cy) for (ka, kb), c in t.terms.items()
                   for xs, ys in [(f(ka).terms, g(kb).terms)]
                   for x, cx in xs.items() for wx in [c * cx] for y, cy in ys.items())


def lincomb_to_json(lc, encode_key):
    """JSON form {"terms": [{"coeff": ..., "key": ...}, ...]}, keys in
    canonical order."""
    return {
        "terms": [
            {"coeff": str(c), "key": encode_key(k)} for k, c in lc.items()
        ]
    }


def lincomb_from_json(obj, decode_key):
    return LinComb(
        (decode_key(t["key"]), Fraction(t["coeff"])) for t in obj["terms"]
    )


def lincomb_to_text(lc, render_key):
    """Human form like '2*F[1,e,1,e] - 1*F[2,e]'."""
    if not lc.terms:
        return "0"
    parts = []
    for k, c in lc.items():
        term = f"{abs(c)!s}*{render_key(k)}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)
