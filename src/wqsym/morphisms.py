"""The four surjections between the algebras and their law verifiers.

    d1:   permutations              -> quasi-symmetric functions (F basis)
    d2:   signed permutations       -> weak quasi-symmetric functions (F)
    phi1: weak quasi-symmetric fns  -> quasi-symmetric functions
    phi2: signed permutations       -> permutations

All four are basis maps extended linearly.  The identities relating them (the
commuting square d1 phi2 = phi1 d2, the homomorphism laws at weight -1,
and the vanishing laws for phi2) are implemented as exhaustive
checks over degree-bounded strata, never assumed.

``_hom_laws`` states the two homomorphism laws of any of the four maps.
Equality on the quasi-symmetric side is always decided in the monomial
basis after converting, which is multiplicity free, so d1 and d2 are
checked against the monomial product and coproduct.

Every memo belongs to one verifier call, so a new call, a shard and a
``--jobs`` worker each start cold.  ``verify_morphism_laws`` memoizes
phi2, phi1 on monomials and the monomial images of d1 and d2, and reads
the product and coproduct of the ssym and rqsym-m contexts and the hsym
product off contexts it builds.  The hsym coproduct is the plain
``standard_splits``: a memo of it would hold the splits of every signed
permutation the suite visits, which doubles the memory of the budget-5
run.  ``verify_annihilation`` memoizes through ``_phi2_by_shape``.

The vanishing laws rest on the shape of phi2: it is zero on every word
that is not neg* pos+ neg?.  Two places read that shape:
``_block_and_trail``, which phi2, phi1_F, the dead starts of
``_phi2_by_shape`` and the laws' cases use, and the phase of the dynamic
program in ``_phi2_of_product``.
"""
from __future__ import annotations

import itertools
from functools import cache

from .laws import Law, graded_tuples, run_laws
from .lincomb import LinComb, lc_mul, tensor_bimap
from .compositions import (
    EPS,
    comp_to_text,
    regularized_compositions,
    wcomp,
    wcomp_preimage,
)
from .hopf import context_by_name, f_to_m_cached, m_to_f_cached, standard_splits
from .words import (
    perm_to_text,
    positive_permutations,
    shift,
    signed_permutations,
    standardize,
)


def d1(pi):
    """F indexed by the descent composition of a permutation: d2, as
    wcomp of a word with no negative letter is its descent composition."""
    if any(a < 0 for a in pi):
        raise ValueError(f"d1 needs an ordinary permutation, got {perm_to_text(pi)}")
    return d2(pi)


def d2(pi):
    """F indexed by the regularized composition of a signed permutation."""
    return LinComb.single(wcomp(pi))


def phi1_m(alpha):
    """On monomials: (-1)^{#eps parts} M with the eps parts dropped when
    the first part is positive; the empty composition maps to 1; zero
    otherwise."""
    if not alpha:
        return LinComb.single(())
    if alpha[0] is EPS:
        return LinComb.zero()
    sign = (-1) ** sum(1 for p in alpha if p is EPS)
    return LinComb.single(tuple(p for p in alpha if p is not EPS), sign)


def _block_and_trail(word):
    """(block, trail) when the positive entries of ``word`` (letters > 0
    of a signed word, the parts other than epsilon of a composition) form
    one block followed by ``trail`` other entries, with ((), len(word))
    when there are none; None when they are not one block."""
    at = [p for p, x in enumerate(word) if x is not EPS and x > 0]
    if not at:
        return (), len(word)
    if at[-1] - at[0] + 1 != len(at):
        return None
    return word[at[0] : at[-1] + 1], len(word) - 1 - at[-1]


def _kept_block(word):
    """The block and the sign (-1)^trail that phi1_F and phi2 keep of a
    nonempty word: one nonempty block of positive entries followed by at
    most one other entry; None when they vanish on it."""
    shape = _block_and_trail(word)
    if shape is None or not shape[0] or shape[1] > 1:
        return None
    return shape[0], (-1) ** shape[1]


def phi1_f(alpha):
    """On fundamentals: (-1)^j F of the positive middle when alpha is
    (e^i, bar, e^j) with j <= 1 and bar nonempty; 1 on the empty
    composition; zero otherwise."""
    if not alpha:
        return LinComb.single(())
    kept = _kept_block(alpha)
    return LinComb.single(*kept) if kept else LinComb.zero()


def phi2(word):
    """Extract the permutation: (-1)^j st of the positive letters when
    they form one block followed by at most one negative letter; 1 on the
    empty word; zero otherwise.

    Accepts any signed word, not just signed permutations; the value only
    depends on the standardization.
    """
    if not word:
        return LinComb.single(())
    kept = _kept_block(word)
    return LinComb.single(standardize(kept[0]), kept[1]) if kept else LinComb.zero()


def _hom_laws(name, f, source, target, pairs, singles, show, text):
    """The two laws of a homomorphism f from the algebra with (product,
    coproduct) ``source`` to the one with ``target``: f(xy) = f(x) f(y) on
    ``pairs`` and (f @ f) Delta = Delta f on ``singles``; a failure lists
    both sides.  ``show`` renders a source key and ``text`` a target key;
    the coproduct sides list pairs of target keys."""
    (mul, delta), (target_mul, target_delta) = source, target
    return [
        Law(f"{name} is multiplicative", pairs,
            lambda x, y: (mul(x, y).map_basis(f), lc_mul(f(x), f(y), target_mul)),
            show, text),
        Law(f"{name} is comultiplicative", singles,
            lambda x: (tensor_bimap(delta(x), f, f), f(x).map_basis(target_delta)),
            show, lambda kk: [text(kk[0]), text(kk[1])]),
    ]


def verify_square(max_len, shard=(0, 1)):
    """d1 phi2 = phi1 d2 on every signed permutation of length <= max_len."""
    perms = [list(signed_permutations(n)) for n in range(max_len + 1)]

    def square(pi):
        return (phi2(pi).map_basis(d1).map_basis(f_to_m_cached),
                phi1_f(wcomp(pi)).map_basis(f_to_m_cached))

    return run_laws([
        Law("commuting square d1.phi2 = phi1.d2", graded_tuples(perms, 1, max_len),
            square, perm_to_text, comp_to_text),
    ], shard)


def verify_morphism_laws(budget=4, shard=(0, 1)):
    """Homomorphism laws for phi2, d2, d1 and phi1 at weight -1.

    Product laws run over pairs with combined degree <= budget + 1;
    coproduct laws run over single elements of degree <= budget + 1.
    Degree is length on the permutation side and total weight on the
    composition side.
    """
    reach = budget + 1
    signed = [list(signed_permutations(n)) for n in range(reach + 1)]
    plain = [list(positive_permutations(n)) for n in range(reach + 1)]
    comps = [regularized_compositions(w) for w in range(reach + 1)]
    signed_pairs = graded_tuples(signed, 2, reach)
    signed_singles = graded_tuples(signed, 1, reach)
    comp_singles = graded_tuples(comps, 1, reach)
    memoized = lambda ctx: (ctx.product, ctx.coproduct)
    # phi2 and d2 multiplicativity share the memoized product of each pair
    hsym = (context_by_name("hsym", -1).product, standard_splits)
    ssym = memoized(context_by_name("ssym"))
    # d1 and d2 land in F; their laws are checked after F -> M, where the
    # product is the defining quasi-shuffle, never ``rqsym_product_f``,
    # which is itself built on d2 being multiplicative
    monomial = memoized(context_by_name("rqsym-m"))
    in_m = lambda f: cache(lambda key: f(key).map_basis(f_to_m_cached))
    phi1 = cache(phi1_m)

    def phi1_bases(a):
        return phi1_f(a), f_to_m_cached(a).map_basis(phi1).map_basis(m_to_f_cached)

    return run_laws([
        *_hom_laws("phi2", cache(phi2), hsym, ssym, signed_pairs,
                   signed_singles, perm_to_text, perm_to_text),
        *_hom_laws("d2", in_m(d2), hsym, monomial, signed_pairs, signed_singles,
                   perm_to_text, comp_to_text),
        *_hom_laws("d1", in_m(d1), ssym, monomial, graded_tuples(plain, 2, reach),
                   graded_tuples(plain, 1, reach), perm_to_text, comp_to_text),
        *_hom_laws("phi1", phi1, monomial, monomial, graded_tuples(comps, 2, reach),
                   comp_singles, comp_to_text, comp_to_text),
        Law("phi1_F matches conjugated phi1_M", comp_singles, phi1_bases,
            comp_to_text, comp_to_text),
    ], shard)


def _phi2_of_product(s, t):
    """phi2 of the weight -1 product s * t, by a dynamic program over the
    lattice paths of the quasi-shuffle of u = s and v = t shifted past s,

        a u * b v = a (u * b v) + b (a u * v) - (a.b) (u * v).

    A state (i, j, phase) has spent u[:i] and v[:j]; ``phase`` is -1 while
    the word holds only negatives, 0 inside its positive block, 1 after
    the one trailing negative.  The phase enforces phi2's shape neg* pos+
    neg?: a phase-1 state has no successors, and a finished word counts
    +1 at phase 0, -1 at phase 1 and nothing at phase -1.  A state's
    value, computed once per call in a local memo, maps each positive
    block the rest can add to its signed coefficient, so every negative
    prefix that reaches (i, j) shares it.  ``standardize`` runs once per
    distinct kept block.
    """
    if not s and not t:
        return LinComb.single(())
    u, v = s, shift(t, len(s))
    m, n = len(u), len(v)
    memo = {}

    def value(i, j, phase):
        key = (i, j, phase)
        if key in memo:
            return memo[key]
        end = i == m and j == n
        out = memo[key] = {(): (-1) ** phase} if end and phase >= 0 else {}
        if end or phase == 1:
            return out
        steps = []
        if i < m:
            steps.append((u[i], i + 1, j, 1))
        if j < n:
            steps.append((v[j], i, j + 1, 1))
            if i < m and u[i] < 0 and v[j] < 0:
                steps.append((u[i], i + 1, j + 1, -1))
        for letter, i2, j2, sign in steps:
            nxt = 0 if letter > 0 else phase + (phase >= 0)
            for block, c in value(i2, j2, nxt).items():
                block = (letter,) + block if letter > 0 else block
                out[block] = out.get(block, 0) + sign * c
        return out

    top = value(0, 0, -1)
    del value  # value refers to itself through its cell; free the memo without the gc
    terms = {}
    for block, c in top.items():
        if c:
            key = standardize(block)
            terms[key] = terms.get(key, 0) + c
    return LinComb.wrap({k: c for k, c in terms.items() if c})


def _sign_shape(word):
    """``word`` with every negative letter made -1.  ``_phi2_of_product``
    reads only the sign and the place of a negative letter, and never
    keeps one in a block, so it takes the same value on the shapes as on
    the factors."""
    return tuple(a if a > 0 else -1 for a in word)


def _phi2_by_shape():
    """phi2 of the weight -1 product s * t, with memos for one verifier
    call: zero on a dead start, else ``_phi2_of_product`` of the sign
    shapes (by pair of shapes).

    A start is dead when no raw word of s * t has phi2's shape.  A raw word
    keeps the letters of each factor in order, and a merge joins a negative
    of s to one of t, so that holds exactly when neither factor has a
    positive letter, or one has a +-+ pattern or two negatives after its
    block; ``_block_and_trail`` of each word (memoized by word) decides it.
    """
    by_shape = cache(_phi2_of_product)
    zero = LinComb.zero()

    @cache
    def start(word):
        # None when word kills every product, else whether it has a positive letter
        shape = _block_and_trail(word)
        return None if shape is None or shape[0] and shape[1] > 1 else bool(shape[0])

    def product(s, t):
        a, b = start(s), start(t)
        if None in (a, b) or (s or t) and not (a or b):
            return zero
        return by_shape(_sign_shape(s), _sign_shape(t))

    return product


def verify_annihilation(max_len=4, shard=(0, 1)):
    """The three vanishing laws for phi2 at weight -1.

    * a positive-negative-positive pattern in either factor kills the
      product;
    * single-block factors with a trailing negative run of length >= 2
      (for all-negative factors: length >= 2) kill the product;
    * multiplying by the one-letter negative permutation kills the
      product on both sides.

    The first law shards its left factors and checks each against every
    right factor.  Every product goes through this call's
    ``_phi2_by_shape``, where each product of the first law and most of the
    second is a dead start.  The case selection rests on
    ``_block_and_trail`` being None exactly on a +-+ pattern.  The pairs of
    the first two laws are generated in C as the runner walks them.
    """
    every = [pi for n in range(max_len + 1) for pi in signed_permutations(n)]

    # single-block factors, with the length of their trailing negative run
    blocky = [(pi, shape[1]) for pi in every if (shape := _block_and_trail(pi))]
    blocks = [pi for pi, _ in blocky]
    trailing = [pi for pi, j in blocky if j >= 2]
    # (s, t) with js >= 2 or jt >= 2, row by row in the order of blocky
    qualifying = itertools.chain.from_iterable(
        zip(itertools.repeat(s), blocks if js >= 2 else trailing) for s, js in blocky)
    product = _phi2_by_shape()
    kills = lambda s, t: not product(s, t)
    kills_both_ways = lambda s, t: kills(s, t) and kills(t, s)
    neg = (-1,)

    return run_laws([
        Law("phi2 kills +-+ patterns",
            [(pi,) for pi in every if _block_and_trail(pi) is None],
            kills_both_ways, perm_to_text,
            expand=lambda unit: zip(itertools.repeat(unit[0]), every)),
        Law("phi2 kills trailing negative runs", qualifying, kills, perm_to_text),
        Law("phi2 kills products with the negative letter", [(pi,) for pi in every],
            lambda s: kills_both_ways(s, neg), perm_to_text),
    ], shard)


def verify_surjectivity(max_len=4, shard=(0, 1)):
    """phi2 hits every permutation (it fixes them) and d2 hits every
    fundamental basis key, via an explicit preimage."""
    plain = [list(positive_permutations(n)) for n in range(max_len + 1)]
    comps = [regularized_compositions(w) for w in range(max_len + 1)]
    return run_laws([
        Law("phi2 hits every permutation", graded_tuples(plain, 1, max_len),
            lambda pi: phi2(pi) == LinComb.single(pi), perm_to_text),
        Law("d2 hits every fundamental key", graded_tuples(comps, 1, max_len),
            lambda alpha: (d2(wcomp_preimage(alpha)), LinComb.single(alpha)),
            comp_to_text, comp_to_text),
    ], shard)
