"""Vector space laws and serialization of sparse linear combinations."""

import copy
import functools
import json
import pickle
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from wqsym import lincomb
from wqsym.lincomb import (
    EPS,
    LinComb,
    accumulate,
    basis_sort_key,
    lincomb_from_json,
    lincomb_to_json,
    lincomb_to_text,
    lc_mul,
    sorted_keys,
    tensor,
    tensor_bilinear,
    tensor_bimap,
)
from wqsym.words import shifted_shuffle

from oracles import (
    basis_sort_key_reference,
    lc_mul_reference,
    tensor_bilinear_reference,
    tensor_bimap_reference,
)


SIGMA = (1, 2)
TAU = (2, 1)
RHO = (1,)


def test_additive_inverse_cancels():
    assert LinComb.single(SIGMA, 1) + LinComb.single(SIGMA, -1) == LinComb.zero()


def test_rational_addition():
    s = LinComb.single(SIGMA, Fraction(1, 2)) + LinComb.single(SIGMA, Fraction(1, 3))
    assert s == LinComb.single(SIGMA, Fraction(5, 6))


def test_disjoint_keys():
    s = LinComb.single(SIGMA, 1) + LinComb.single(TAU, 2)
    assert s.terms == {SIGMA: 1, TAU: 2}


def test_map_basis_zero():
    assert LinComb.zero().map_basis(lambda k: LinComb.single(k, 99)) == LinComb.zero()


def test_map_basis_scalar_carry():
    out = LinComb.single(SIGMA, 2).map_basis(lambda k: LinComb.single(TAU, 1))
    assert out == LinComb.single(TAU, 2)


def test_map_basis_key_merge():
    combo = LinComb.single(SIGMA, 1) + LinComb.single(TAU, 1)
    out = combo.map_basis(lambda k: LinComb.single(RHO, 1))
    assert out == LinComb.single(RHO, 2)


def test_map_basis_matches_the_accumulated_sum():
    """On one key with coefficient 1, map_basis returns f(key) itself; on
    any other combination it accumulates.  Both agree with the plain sum
    on seeded combinations, among them one-term ones with coefficients
    that equal 1 without being the int 1 and ones that do not."""
    rng = random.Random(18)
    keys = [(), (1,), (2, 1), (1, -2), (3, 1, 2), (EPS, 1)]

    @functools.cache
    def f(key):
        # a fixed image per key, zero and cancelling images among them
        r = random.Random(str(key))
        return LinComb((r.choice(keys), r.choice((-2, -1, 1, Fraction(1, 3))))
                       for _ in range(r.randint(0, 3)))

    def plain(lc):
        out = {}
        for key, coeff in lc.terms.items():
            accumulate(out, f(key).terms.items(), coeff)
        return LinComb.wrap(out)

    units = (1, -1, Fraction(1), Fraction(1, 2))
    combos = [LinComb.single(rng.choice(keys), units[i % 4]) for i in range(250)]
    combos += [LinComb((rng.choice(keys), rng.choice(units + (3,)))
                       for _ in range(rng.randint(0, 5))) for _ in range(250)]
    assert sum(len(lc) > 1 for lc in combos) > 100
    for lc in combos:
        got = lc.map_basis(f)
        assert got == plain(lc), lc
        assert all(got.terms.values())
    for key in keys:
        assert LinComb.single(key).map_basis(f) is f(key)
        assert LinComb.single(key, Fraction(1)).map_basis(f) is f(key)
        assert LinComb.single(key, -1).map_basis(f) is not f(key)


def test_bilinear_kernels_match_their_per_pair_references():
    """``lc_mul``, ``tensor_bilinear`` and ``tensor_bimap`` store the same
    terms as their pair-by-pair references on seeded operands: Fraction
    coefficients, terms that cancel across pairs (some results exactly
    zero) and empty operands; no result stores a zero coefficient."""
    rng = random.Random(22)
    coeffs = (1, -1, 2, Fraction(1, 2), Fraction(-2, 3))
    fold = lambda k: tuple(abs(x) for x in k)

    def word():
        return tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rng.randrange(3)))

    def combo(key, size):
        return LinComb((key(), rng.choice(coeffs)) for _ in range(rng.randrange(size)))

    def unfold(key):
        # zero once keys are folded: key minus key with every letter negated
        return LinComb.single(key) - LinComb.single(tuple(-x for x in key))

    # leg products and maps by the folded key, so unfold(k) maps to zero,
    # with Fraction coefficients and a sign that cancels between pairs
    mult = lambda x, y: LinComb({fold(x) + fold(y): Fraction(1, 3),
                                 fold(y) + fold(x): (-1) ** len(x)})
    f = lambda k: LinComb({fold(k): 2, fold(k)[::-1]: Fraction(-1, 2)})
    g = lambda k: LinComb({fold(k) + (1,): Fraction(3, 4), (): -1})
    zero = LinComb.zero()
    kinds = {"zero": 0, "fraction": 0}
    for _ in range(60):
        a, b = combo(word, 5), combo(word, 5)
        null = unfold(word() + (1,))
        ta = combo(lambda: (word(), word()), 5)
        tb = combo(lambda: (word(), word()), 5)
        for x, y in [(a, b), (null, b), (a + null, b), (b, null.scale(Fraction(1, 2)) - a),
                     (zero, b), (a, zero), (zero, zero)]:
            txy = tensor(x, y)
            results = [(lc_mul(x, y, mult), lc_mul_reference(x, y, mult)),
                       (tensor_bilinear(txy, ta, mult), tensor_bilinear_reference(txy, ta, mult)),
                       (tensor_bilinear(tb, txy, mult), tensor_bilinear_reference(tb, txy, mult)),
                       (tensor_bimap(txy, f, g), tensor_bimap_reference(txy, f, g))]
            for got, want in results:
                assert got.terms == want.terms
                assert 0 not in got.terms.values()
                kinds["zero"] += not got.terms
                kinds["fraction"] += any(type(c) is Fraction for c in got.terms.values())
    assert kinds["zero"] > 200 and kinds["fraction"] > 200, kinds


def test_tensor_bilinear_empty():
    anything = LinComb.single(((), ()), 1)
    assert tensor_bilinear(LinComb.zero(), anything, shifted_shuffle) == LinComb.zero()


def test_tensor_bilinear_unit_law():
    iota = LinComb.single(((), ()), 1)
    assert tensor_bilinear(iota, iota, shifted_shuffle) == iota


def test_tensor_bilinear_one_letter():
    # ((1), id) x (id, (1)) under the shifted shuffle: both legs multiply
    # a one letter word by the unit
    a = LinComb.single(((1,), ()), 1)
    b = LinComb.single(((), (1,)), 1)
    assert tensor_bilinear(a, b, shifted_shuffle) == LinComb.single(((1,), (1,)), 1)


keys = st.tuples(st.integers(min_value=-3, max_value=3).filter(bool))
rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
combos = st.dictionaries(keys, rationals, max_size=5).map(LinComb)


@settings(max_examples=80, deadline=None)
@given(combos, combos, combos)
def test_vector_space_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + LinComb.zero() == a
    assert a - a == LinComb.zero()


@settings(max_examples=80, deadline=None)
@given(combos, combos, rationals)
def test_scalar_distributivity(a, b, r):
    assert (a + b).scale(r) == a.scale(r) + b.scale(r)


@settings(max_examples=60, deadline=None)
@given(combos, combos)
def test_map_basis_is_linear(a, b):
    f = lambda k: LinComb.single(k + k, 2) + LinComb.single((), 1)
    assert (a + b).map_basis(f) == a.map_basis(f) + b.map_basis(f)


@settings(max_examples=80, deadline=None)
@given(combos, combos, rationals)
def test_no_stored_zeros(a, b, r):
    for lc in (a + b, a - b, a.scale(r), lc_mul(a, b, lambda x, y: LinComb.single(x + y))):
        assert all(c != 0 for c in lc.terms.values())


def _fold(key):
    return tuple(abs(x) for x in key)


@settings(max_examples=80, deadline=None)
@given(combos, combos)
def test_cancelling_terms_store_no_zero(a, b):
    """null = a - (a with every letter negated) vanishes once keys are
    folded to absolute values, so every map and product through the fold
    cancels exactly; each result must be the plain zero or equal the
    result without null, with no key left at coefficient 0."""
    null = a - LinComb((tuple(-x for x in k), c) for k, c in a.terms.items())
    fold = lambda k: LinComb.single(_fold(k))
    mult = lambda x, y: LinComb.single(_fold(x) + _fold(y))
    pairs = tensor(b, b)
    results = [
        (null.map_basis(fold), LinComb.zero()),
        ((null + b).map_basis(fold), b.map_basis(fold)),
        (lc_mul(null, b, mult), LinComb.zero()),
        (lc_mul(null + b, b, mult), lc_mul(b, b, mult)),
        (tensor_bilinear(tensor(null, b), pairs, mult), LinComb.zero()),
        (tensor_bilinear(tensor(b, null + b), pairs, mult),
         tensor_bilinear(tensor(b, b), pairs, mult)),
    ]
    for got, want in results:
        assert got == want
        assert all(c != 0 for c in got.terms.values())


def test_items_in_canonical_order():
    lc = LinComb({(2, 1): 1, (1,): 1, (1, 2): 1, (): 1})
    assert [k for k, _ in lc.items()] == [(), (1,), (1, 2), (2, 1)]
    assert basis_sort_key((-1, 2)) < basis_sort_key((1, 2))


def _seeded_keys(rng, entry, count):
    """``count`` distinct flat keys of length 0 to 5, the empty one among them."""
    keys = {()}
    while len(keys) < count:
        keys.add(tuple(entry(rng) for _ in range(rng.randrange(6))))
    return list(keys)


def test_sort_key_matches_its_definition():
    """The C-level ranks of ``basis_sort_key`` sort seeded keys of every
    kind exactly as the plain ``elem_key`` definition does: signed words,
    compositions and exponent tuples with epsilon entries, tensor pairs
    and triples, empty keys included."""
    rng = random.Random(14)
    words = _seeded_keys(rng, lambda r: r.choice([-1, 1]) * r.randint(1, 6), 1500)
    comps = _seeded_keys(rng, lambda r: r.choice([EPS, EPS, 1, 2, 3]), 1000)
    exps = _seeded_keys(rng, lambda r: r.choice([0, 0, EPS, 1, 2, 10]), 1000)
    legs = words[:60] + comps[:60]
    pairs = list({(rng.choice(legs), rng.choice(legs)) for _ in range(3000)} | {((), ())})
    triples = list({tuple(rng.choice(comps[:40]) for _ in range(3)) for _ in range(1500)})
    for keys in (words, comps, exps, pairs, triples):
        rng.shuffle(keys)
        assert sorted(keys, key=basis_sort_key) == sorted(keys, key=basis_sort_key_reference)
    assert sum(map(len, (words, comps, exps, pairs, triples))) > 5000


def test_sorted_keys_match_the_definition_and_sort_int_keys_in_c(monkeypatch):
    """``sorted_keys`` orders seeded keys of every kind as the plain
    definition does: signed words of mixed lengths with the empty key,
    compositions with and without epsilon, exponent tuples and tensor pairs.
    Flat keys, epsilon entries included, never reach ``basis_sort_key``:
    both of their sorts run in C."""
    rng = random.Random(19)
    words = _seeded_keys(rng, lambda r: r.choice([-1, 1]) * r.randint(1, 6), 1500)
    plain = _seeded_keys(rng, lambda r: r.randint(1, 4), 800)
    comps = _seeded_keys(rng, lambda r: r.choice([EPS, 1, 2, 3]), 800)
    exps = _seeded_keys(rng, lambda r: r.choice([0, 0, 1, 2, 10]), 800)
    eps_exps = _seeded_keys(rng, lambda r: r.choice([0, EPS, 1, 2, 10]), 800)
    legs = words[:60] + comps[:60]
    pairs = list({(rng.choice(legs), rng.choice(legs)) for _ in range(3000)} | {((), ())})
    calls = []
    ranked = lincomb.basis_sort_key
    monkeypatch.setattr(lincomb, "basis_sort_key", lambda key: calls.append(key) or ranked(key))
    for keys, in_c in ((words, True), (plain, True), (exps, True), ([()], True), ([], True),
                       (comps, True), (eps_exps, True), (pairs, False)):
        rng.shuffle(keys)
        calls.clear()
        assert sorted_keys(keys) == sorted(keys, key=basis_sort_key_reference)
        assert sorted_keys(dict.fromkeys(keys)) == sorted(keys, key=basis_sort_key_reference)
        assert sorted_keys(dict.fromkeys(keys).keys()) == sorted(keys, key=basis_sort_key_reference)
        assert (not calls) == in_c
    assert len({len(k) for k in words}) == 6 and () in words


def test_eps_ranks_between_0_and_1_and_equals_no_int():
    """``EPS`` is a float of value 0.5: it sorts strictly between 0 and 1
    and equals no int; ``EPS == 0.5`` is one of the two float behaviours
    its docstring states, the other being ``json.dumps``."""
    assert 0 < EPS < 1 and not EPS < 0 and not 1 < EPS
    assert all(EPS != n for n in range(-3, 4))
    assert sorted([1, EPS, 0, 2]) == [0, EPS, 1, 2]
    assert (2, EPS) < (2, 1) and (0, 9) < (EPS,)
    assert EPS == 0.5 and json.dumps(EPS) == "0.5"


def test_eps_reads_as_e():
    assert str(EPS) == repr(EPS) == format(EPS) == f"{EPS}" == "%s" % EPS == "e"
    assert "%r" % (EPS,) == "e"
    assert str((1, EPS)) == "(1, e)"


def test_eps_takes_part_in_no_arithmetic():
    """Every arithmetic form raises ``TypeError``, in either order and
    against ints, Fractions and floats: epsilon is added by
    ``ntilde_add`` alone."""
    forms = [lambda x: EPS + x, lambda x: x + EPS, lambda x: EPS - x, lambda x: x - EPS,
             lambda x: EPS * x, lambda x: x * EPS, lambda x: EPS / x, lambda x: x / EPS]
    for form in forms:
        for other in (0, 1, 2, Fraction(1, 2), 0.5, EPS):
            try:
                form(other)
            except TypeError:
                continue
            raise AssertionError(f"arithmetic on EPS with {other!r} did not raise")
    for form in (lambda: -EPS, lambda: int(EPS), lambda: sum((1, EPS))):
        try:
            form()
        except TypeError:
            continue
        raise AssertionError("arithmetic on EPS did not raise")


def test_eps_pickles_and_copies_to_itself():
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(EPS, protocol)) is EPS
        key, = pickle.loads(pickle.dumps([(EPS, 1, EPS)], protocol))
        assert key[0] is EPS and key[2] is EPS
    assert copy.copy(EPS) is EPS and copy.deepcopy((1, EPS))[1] is EPS


def test_tensor_outer_product():
    t = tensor(LinComb.single((1,), 2), LinComb.single((2,), 3))
    assert t == LinComb.single(((1,), (2,)), 6)


def test_json_round_trip():
    lc = LinComb({(1, -2): Fraction(5, 6), (2, -1): -2})
    enc = lambda k: ",".join(map(str, k))
    dec = lambda s: tuple(int(x) for x in s.split(","))
    blob = lincomb_to_json(lc, enc)
    assert blob["terms"][0]["coeff"] in ("5/6", "-2")
    assert lincomb_from_json(blob, dec) == lc


def test_unit_coefficient_serializes_plainly():
    for c, text in ((Fraction(2, 2), "1"), (Fraction(-3, 3), "-1"), (Fraction(5, 6), "5/6")):
        [term] = lincomb_to_json(LinComb.single((1,), c), str)["terms"]
        assert term["coeff"] == text


def test_text_rendering():
    lc = LinComb({(1, 2): 2, (2, 1): -1})
    text = lincomb_to_text(lc, lambda k: f"P[{','.join(map(str, k))}]")
    assert text == "2*P[1,2] - 1*P[2,1]"
    assert lincomb_to_text(LinComb.zero(), str) == "0"
