"""The four surjections between the algebras and their law verifiers.

    d1:   permutations              -> quasi-symmetric functions (F basis)
    d2:   signed permutations       -> weak quasi-symmetric functions (F)
    phi1: weak quasi-symmetric fns  -> quasi-symmetric functions
    phi2: signed permutations       -> permutations

All four are basis maps extended linearly.  The identities relating them (the
commuting square d1 phi2 = phi1 d2, the homomorphism laws at weight -1,
and the vanishing laws for phi2) are implemented as exhaustive
checks over degree-bounded strata, never assumed.

Equality on the quasi-symmetric side is always decided in the monomial
basis after converting, which is multiplicity free.

The vanishing laws rest on the shape of phi2: it is zero on every word
that is not neg* pos+ neg?.  ``_phi2_of_product`` turns that lemma into
pruning of the quasi-shuffle recursion, so phi2 of a weight -1 product
builds only the words that phi2 does not kill.
"""
from __future__ import annotations

from .laws import Law, graded_tuples, run_laws
from .lincomb import LinComb, lc_mul, tensor_bimap
from .compositions import (
    EPS,
    comp_of_descents,
    comp_to_text,
    regularized_compositions,
    wcomp,
    wcomp_preimage,
)
from .hopf import (
    context_by_name,
    deconcatenation,
    f_to_m_cached,
    m_to_f_cached,
    rqsym_coproduct_f,
    star_product,
)
from .words import (
    perm_to_text,
    positive_permutations,
    shift,
    shifted_shuffle,
    signed_permutations,
    standardize,
    weak_descent_set,
)


def d1(pi):
    """F indexed by the descent composition of a permutation."""
    if any(a < 0 for a in pi):
        raise ValueError(f"d1 needs an ordinary permutation, got {perm_to_text(pi)}")
    if not pi:
        return LinComb.single(())
    return LinComb.single(comp_of_descents(weak_descent_set(pi), len(pi)))


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


def _to_monomials(f_combo):
    """F-basis combination to the multiplicity-free monomial basis."""
    return f_combo.map_basis(f_to_m_cached)


def _multiplicative_into_f(f, product):
    """Check that a map f into the F basis sends ``product`` to the
    product of fundamentals, both sides in the monomial basis.  The right
    side multiplies monomials by their defining quasi-shuffle, never
    through ``rqsym_product_f``, which is itself built on d2 being
    multiplicative."""
    def check(s, t):
        return (_to_monomials(product(s, t).map_basis(f)),
                lc_mul(_to_monomials(f(s)), _to_monomials(f(t)), star_product))
    return check


def _comultiplicative_into_f(f):
    """Check that a map f into the F basis intertwines the standardized
    deconcatenation with the F coproduct, compared in the monomial basis."""
    fm = lambda k: _to_monomials(f(k))

    def check(pi):
        lhs = tensor_bimap(deconcatenation(pi, standardize), fm, fm)
        rhs = tensor_bimap(f(pi).map_basis(rqsym_coproduct_f), f_to_m_cached, f_to_m_cached)
        return lhs == rhs
    return check


def verify_square(max_len, shard=(0, 1)):
    """d1 phi2 = phi1 d2 on every signed permutation of length <= max_len."""
    perms = [list(signed_permutations(n)) for n in range(max_len + 1)]

    def square(pi):
        return _to_monomials(phi2(pi).map_basis(d1)), _to_monomials(phi1_f(wcomp(pi)))

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
    # phi2 and d2 multiplicativity share the memoized product of each pair
    weight_minus_one = context_by_name("hsym", -1).product

    def phi2_product(s, t):
        return (weight_minus_one(s, t).map_basis(phi2),
                lc_mul(phi2(s), phi2(t), shifted_shuffle))

    def phi2_coproduct(pi):
        return (tensor_bimap(deconcatenation(pi, standardize), phi2, phi2)
                == phi2(pi).map_basis(lambda k: deconcatenation(k, standardize)))

    def phi1_product(a, b):
        return star_product(a, b).map_basis(phi1_m), lc_mul(phi1_m(a), phi1_m(b), star_product)

    def phi1_coproduct(a):
        return (tensor_bimap(deconcatenation(a), phi1_m, phi1_m)
                == phi1_m(a).map_basis(deconcatenation))

    def phi1_bases(a):
        return phi1_f(a), f_to_m_cached(a).map_basis(phi1_m).map_basis(m_to_f_cached)

    return run_laws([
        Law("phi2 is multiplicative", signed_pairs, phi2_product, perm_to_text, perm_to_text),
        Law("phi2 is comultiplicative", signed_singles, phi2_coproduct, perm_to_text),
        Law("d2 is multiplicative", signed_pairs,
            _multiplicative_into_f(d2, weight_minus_one), perm_to_text, comp_to_text),
        Law("d2 is comultiplicative", signed_singles, _comultiplicative_into_f(d2),
            perm_to_text),
        Law("d1 is multiplicative", graded_tuples(plain, 2, reach),
            _multiplicative_into_f(d1, shifted_shuffle), perm_to_text, comp_to_text),
        Law("d1 is comultiplicative", graded_tuples(plain, 1, reach),
            _comultiplicative_into_f(d1), perm_to_text),
        Law("phi1 is multiplicative", graded_tuples(comps, 2, reach), phi1_product,
            comp_to_text, comp_to_text),
        Law("phi1 is comultiplicative", comp_singles, phi1_coproduct, comp_to_text),
        Law("phi1_F matches conjugated phi1_M", comp_singles, phi1_bases,
            comp_to_text, comp_to_text),
    ], shard)


def _phi2_of_product(s, t):
    """phi2 of the weight -1 product s * t, by a pruned quasi-shuffle
    recursion over s and t shifted past s.

    This is the vanishing lemma: phi2 is zero on every word that is not
    of the shape neg* pos+ neg?, and shape is decided letter by letter.
    The recursion

        a u * b v = a (u * b v) + b (a u * v) - (a.b) (u * v)

    carries ``trail``, the shape state of the word built so far: -1 while
    it holds only negatives, 0 inside the positive block, 1 after the one
    trailing negative.  A branch is dropped as soon as its prefix, with
    the letters still to come, cannot end in that shape.  Each surviving
    word adds (-1)^trail times its coefficient at st(positive block);
    phi2 only depends on standardization, so the termwise st of the
    shifted product is never needed.
    """
    if not s and not t:
        return LinComb.single(())
    u, v = s, shift(t, len(s))
    m, n = len(u), len(v)
    # has_pos_u[i]: u[i:] holds a positive letter, likewise for v
    has_pos_u = [any(a > 0 for a in u[i:]) for i in range(m + 1)]
    has_pos_v = [any(a > 0 for a in v[j:]) for j in range(n + 1)]
    block = []
    out = {}

    def grow(letter, i, j, trail, coeff):
        """Append ``letter`` to a live prefix in state ``trail``, with u[i:]
        and v[j:] still to come, and recurse if the prefix stays live."""
        if letter > 0:
            if trail > 0:
                return
            block.append(letter)
            rec(i, j, 0, coeff)
            block.pop()
        elif trail < 0:
            if has_pos_u[i] or has_pos_v[j]:
                rec(i, j, trail, coeff)
        elif trail < 1:  # at most one negative after the block
            rec(i, j, trail + 1, coeff)

    def rec(i, j, trail, coeff):
        if i == m and j == n:
            key = standardize(tuple(block))
            out[key] = out.get(key, 0) + (-coeff if trail % 2 else coeff)
            return
        if i < m:
            grow(u[i], i + 1, j, trail, coeff)
        if j < n:
            grow(v[j], i, j + 1, trail, coeff)
            if i < m and u[i] < 0 and v[j] < 0:
                grow(u[i], i + 1, j + 1, trail, -coeff)

    rec(0, 0, -1, 1)
    return LinComb.wrap({k: c for k, c in out.items() if c})


def verify_annihilation(max_len=4, shard=(0, 1)):
    """The three vanishing laws for phi2 at weight -1.

    * a positive-negative-positive pattern in either factor kills the
      product;
    * single-block factors with a trailing negative run of length >= 2
      (for all-negative factors: length >= 2) kill the product;
    * multiplying by the one-letter negative permutation kills the
      product on both sides.

    The first law shards its left factors and checks each against every
    right factor.  Every product goes through ``_phi2_of_product``, which
    applies the vanishing lemma while it builds the product: a word whose
    prefix is not of the shape neg* pos+ neg? is never completed, so only
    the words phi2 keeps are built.
    """
    every = [pi for n in range(max_len + 1) for pi in signed_permutations(n)]

    def has_pnp(word):
        seen_pos = seen_pos_neg = False
        for a in word:
            if a > 0:
                if seen_pos_neg:
                    return True
                seen_pos = True
            elif seen_pos:
                seen_pos_neg = True
        return False

    # single-block factors, with the length of their trailing negative run
    blocky = [(pi, shape[1]) for pi in every if (shape := _block_and_trail(pi))]
    qualifying = [
        (s, t)
        for s, js in blocky
        for t, jt in blocky
        if js >= 2 or jt >= 2
    ]
    kills_both_ways = lambda s, t: not _phi2_of_product(s, t) and not _phi2_of_product(t, s)
    neg = (-1,)

    return run_laws([
        Law("phi2 kills +-+ patterns", [(pi,) for pi in every if has_pnp(pi)],
            kills_both_ways, perm_to_text, expand=lambda unit: (unit + (t,) for t in every)),
        Law("phi2 kills trailing negative runs", qualifying,
            lambda s, t: not _phi2_of_product(s, t), perm_to_text),
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
