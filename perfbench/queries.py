"""The `queries` workload: a seeded stream of single `wqsym` CLI commands,
and the independent oracles that check their printed output.

Three rules set the shape of the stream; nothing else in it is chosen:

* Mix: every command kind the benchmark covers (KINDS) gets the same
  number of commands.  No record says how often users send each kind, so
  none is weighted above another.
* Sizes: the i-th command of a kind takes the (i mod n)-th of the n sizes
  in the kind's range, so every size is equally common.  Only the
  arguments of a given size are drawn from the seed, and two seeds give
  streams of the same shape and nearly the same cost.  Gamma commands
  have no size range: their posets are drawn at random, within a cap on
  their cost.
* Tail: the commands at the largest size of every kind, and all Gamma
  commands, are drawn from a fixed seed (TAIL_SEED) instead of the run's.

The main ranges: products of combined length 5 to 9 (rqsym-f: total
weight 4 to 10), antipodes of degree 4 to 6, `expand` with 4 to 8
variables, and Gamma of posets of 3 to 6 labels with 4 to 8 variables.
"""
from __future__ import annotations

import itertools
import json
import os
import random
from fractions import Fraction

from wqsym import hopf, ppartitions
from wqsym.compositions import text_to_comp, wcomp
from wqsym.lincomb import LinComb, lincomb_from_json
from wqsym.words import text_to_perm

KINDS = (
    "product-hsym",
    "product-ssym",
    "product-rqsym-m",
    "product-qsym",
    "product-rqsym-f",
    "antipode",
    "coproduct",
    "convert",
    "map",
    "expand",
    "gamma",
)
# Commands per kind: 11 x 100 = 1,100 commands, so that 11 latencies lie
# beyond the 99th percentile.
PER_KIND = 100
SMOKE_PER_KIND = 2

ALGEBRAS = ("hsym", "ssym", "rqsym-m", "qsym", "rqsym-f")
LAMBDAS = ("-1", "0", "1", "2/3")
# The cost of a Gamma command follows the number of P-partitions of its
# poset.  Posets with more than GAMMA_MAX are redrawn: at 800 a command
# takes about 100 ms, as long as the heaviest product (rqsym-f, weight 10).
GAMMA_MAX = 800
# The tail commands are drawn from this seed, the same for every run seed;
# the run seed only places them in the stream.  They make up the top 1% of
# latencies, and their cost varies with the arguments far more than with
# the size (an hsym antipode of degree 6 takes 20 to 110 ms), so a tail
# drawn per run seed moved the 99th percentile by 23% (interquartile range
# over ten seeds).
TAIL_SEED = 20191227


def _cycle(i, lo, hi):
    """The i-th size of the range lo..hi, cycling."""
    return lo + i % (hi - lo + 1)


def _size(i, lo, hi, rngs):
    """The i-th size of the range lo..hi, and the generator its arguments
    are drawn from: rngs is (run's, tail's), and the tail's draws the
    largest size."""
    size = _cycle(i, lo, hi)
    return size, rngs[size == hi]


class Query:
    """One CLI command: its argv, its kind, and what its oracle needs."""

    __slots__ = ("kind", "argv", "data")

    def __init__(self, kind, argv, data=None):
        self.kind = kind
        self.argv = argv
        self.data = data


# ---------------------------------------------------------------------------
# input generation (no library calls: the program sees only the inputs)


def _perm(rng, n, signed=True):
    letters = rng.sample(range(1, n + 1), n)
    if signed:
        letters = [a if rng.random() < 0.5 else -a for a in letters]
    return letters


def _perm_text(letters):
    return ",".join(str(a) for a in letters)


def _comp(rng, weight, eps=True):
    """Random (regularized when eps) composition of a total weight >= 1,
    epsilon parts counting 1."""
    parts = []
    left = weight
    while left:
        part = rng.randint(1, min(left, 3))
        parts.append("e" if part == 1 and eps and rng.random() < 0.4 else str(part))
        left -= part
    return parts


def _key(rng, algebra, size):
    """A random basis key of the algebra: a permutation of size letters
    (signed in hsym), or a composition of weight size."""
    if algebra in ("hsym", "ssym"):
        return _perm_text(_perm(rng, size, algebra == "hsym"))
    return ",".join(_comp(rng, size, algebra != "qsym"))


def _product(rngs, algebra, i):
    total, rng = _size(i, 4, 10, rngs) if algebra == "rqsym-f" else _size(i, 5, 9, rngs)
    m = rng.randint(1, total - 1)
    n = total - m
    if algebra in ("hsym", "ssym"):
        signed = algebra == "hsym"
        a, b = _perm(rng, m, signed), _perm(rng, n, signed)
        lam = LAMBDAS[i % len(LAMBDAS)] if signed else "-1"
        argv = ["product", "--algebra", algebra, "--lambda", lam,
                _perm_text(a), _perm_text(b)]
        return Query("product-" + algebra, argv, (lam, tuple(a), tuple(b)))
    argv = ["product", "--algebra", algebra, _key(rng, algebra, m), _key(rng, algebra, n)]
    return Query("product-" + algebra, argv)


def _antipode(rngs, i):
    algebra = ALGEBRAS[i % len(ALGEBRAS)]
    lam = LAMBDAS[i % len(LAMBDAS)] if algebra == "hsym" else "-1"
    degree, rng = _size(i, 4, 6, rngs)
    key = _key(rng, algebra, degree)
    argv = ["antipode", "--algebra", algebra, "--lambda", lam, key]
    return Query("antipode", argv, (algebra, lam, key))


def _coproduct(rngs, i):
    algebra = ALGEBRAS[i % len(ALGEBRAS)]
    degree, rng = _size(i, 3, 7, rngs)
    key = _key(rng, algebra, degree)
    return Query("coproduct", ["coproduct", "--algebra", algebra, key])


def _convert(rngs, i):
    frm, to = ("f", "m") if i % 2 == 0 else ("m", "f")
    weight, rng = _size(i, 3, 7, rngs)
    key = _key(rng, "rqsym-f", weight)
    return Query("convert", ["convert", "--from", frm, "--to", to, key], (frm, key))


def _map(rngs, i):
    which = ("d1", "d2", "phi2", "phi1M", "phi1F")[i % 5]
    size, rng = _size(i, 3, 8, rngs)
    if which in ("d1", "d2", "phi2"):
        key = _perm_text(_perm(rng, size, which != "d1"))
    else:
        key = _key(rng, "rqsym-f", size)
    return Query("map", ["map", "--which", which, key])


def _expand(rngs, i):
    basis = "mf"[i % 2]
    k, rng = _size(i, 4, 8, rngs)
    key = _key(rng, "rqsym-f", _cycle(i, 2, 5))
    return Query("expand", ["expand", "--basis", basis, "--vars", str(k), key])


def count_ppartitions(labels, covers, k, cap):
    """Number of P-partitions of the poset with values in [k], counted up
    to cap + 1.  Written from the definition, independently of wqsym."""
    below = {a: [b for b, c in covers if c == a] for a in labels}
    order = []
    placed = set()
    while len(order) < len(labels):
        for a in labels:
            if a not in placed and all(b in placed for b in below[a]):
                order.append(a)
                placed.add(a)
    assign = {}
    count = 0

    def rec(pos):
        nonlocal count
        if count > cap:
            return
        if pos == len(order):
            count += 1
            return
        el = order[pos]
        lo = 1
        for b in below[el]:
            lo = max(lo, assign[b] + (1 if b > max(0, el) else 0))
        for value in range(lo, k + 1):
            assign[el] = value
            rec(pos + 1)

    rec(0)
    return count


def _poset(rng):
    """A random signed poset of 3 to 6 labels and a number of variables
    from 4 to 8: its labels, its covers and k.

    The negative labels form a chain.  Two incomparable negative labels
    may share a value in either order, so only then is every P-partition
    in exactly one linear extension, which the gamma oracle needs."""
    n = rng.randint(3, 6)
    k = rng.randint(4, 8)
    labels = [a if rng.random() < 0.5 else -a for a in rng.sample(range(1, 10), n)]
    order = labels[:]
    rng.shuffle(order)
    negatives = [a for a in order if a < 0]
    forced = set(zip(negatives, negatives[1:]))
    covers = [
        (order[p], order[q])
        for p in range(n)
        for q in range(p + 1, n)
        if (order[p], order[q]) in forced or rng.random() < 0.5
    ]
    return labels, covers, k


def _gamma(rng, i, workdir):
    """A Gamma command on a random poset, redrawn while it has more than
    GAMMA_MAX P-partitions."""
    while True:
        labels, covers, k = _poset(rng)
        if count_ppartitions(labels, covers, k, GAMMA_MAX) <= GAMMA_MAX:
            break
    lines = [f"{a} < {b}" for a, b in covers]
    lines += [str(a) for a in labels if not any(a in c for c in covers)]
    path = os.path.join(workdir, f"poset{i:04d}.txt")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return Query("gamma", ["gamma", "--poset", path, "--vars", str(k)],
                 (tuple(labels), tuple(covers), k))


def _draw(rngs, kind, i, workdir):
    if kind.startswith("product-"):
        return _product(rngs, kind[len("product-"):], i)
    if kind == "gamma":
        return _gamma(rngs[1], i, workdir)
    make = {"antipode": _antipode, "coproduct": _coproduct, "convert": _convert,
            "map": _map, "expand": _expand}[kind]
    return make(rngs, i)


def make_stream(rng, workdir, per_kind=PER_KIND):
    """The command stream for one seed: per_kind commands of every kind, in
    a seeded order.  Writes the poset files of the gamma commands into
    workdir."""
    rngs = (rng, random.Random(TAIL_SEED))
    stream = [_draw(rngs, kind, i, workdir) for kind in KINDS for i in range(per_kind)]
    rng.shuffle(stream)
    return stream


# ---------------------------------------------------------------------------
# oracles


def _standardize(word):
    order = sorted(range(len(word)), key=lambda i: (abs(word[i]), i))
    out = [0] * len(word)
    for rank, i in enumerate(order, start=1):
        out[i] = rank if word[i] > 0 else -rank
    return tuple(out)


def stuffle_product(sigma, tau, lam):
    """st(sigma * tau[m]) from the stuffle formula: a sum of lam^r over
    order-preserving pairs of injections covering m + n - r positions
    with r collisions; a collision of two negative letters keeps the left
    one, any other collision is zero."""
    m, n = len(sigma), len(tau)
    v = tuple(a + m if a > 0 else a - m for a in tau)
    out = {}
    for r in range(min(m, n) + 1):
        weight = lam ** r
        if not weight:
            continue
        length = m + n - r
        for collide in itertools.combinations(range(length), r):
            rest = [p for p in range(length) if p not in collide]
            for uonly in itertools.combinations(rest, m - r):
                word = []
                i = j = 0
                for p in range(length):
                    if p in collide:
                        if sigma[i] > 0 or v[j] > 0:
                            break
                        word.append(sigma[i])
                        i += 1
                        j += 1
                    elif p in uonly:
                        word.append(sigma[i])
                        i += 1
                    else:
                        word.append(v[j])
                        j += 1
                else:
                    key = _standardize(word)
                    out[key] = out.get(key, 0) + weight
    return {k: c for k, c in out.items() if c}


def _check_product(q, obj):
    lam, a, b = q.data
    got = lincomb_from_json(obj, text_to_perm).terms
    return got == stuffle_product(a, b, Fraction(lam))


def _check_antipode(q, obj):
    """Sum of c * S(a) * b over the coproduct terms c (a @ b) of x must be
    counit(x) times the unit, with S(x) taken from the printed output."""
    algebra, lam, text = q.data
    ctx = hopf.context_by_name(algebra, Fraction(lam))
    decode = text_to_perm if algebra in ("hsym", "ssym") else text_to_comp
    x = decode(text)
    printed = lincomb_from_json(obj, decode)
    out = LinComb.zero()
    for (a, b), c in ctx.coproduct(x).terms.items():
        sa = printed if a == x else ctx.antipode(a)
        for ka, ca in sa.terms.items():
            out = out + ctx.product(ka, b).scale(c * ca)
    return out == LinComb.single(ctx.unit, ctx.counit(x))


def _check_convert(q, obj):
    """Mapping the printed combination back must give the input key."""
    frm, text = q.data
    alpha = text_to_comp(text)
    printed = lincomb_from_json(obj, text_to_comp)
    back = printed.map_basis(hopf.m_to_f if frm == "f" else hopf.f_to_m)
    return back == LinComb.single(alpha)


def _check_gamma(q, obj):
    """Gamma(P) = sum of F_{wcomp(pi)} over the linear extensions pi of P,
    which holds when the negative labels of P form a chain."""
    labels, covers, k = q.data
    poset = ppartitions.Poset(labels, covers)
    want = ppartitions.Series.zero(k)
    for pi in poset.linear_extensions():
        want = want + ppartitions.expand_f(wcomp(pi), k)
    return ppartitions.Series.from_json(obj) == want


ORACLES = {
    "product-hsym": _check_product,
    "antipode": _check_antipode,
    "convert": _check_convert,
    "gamma": _check_gamma,
}


def check(q, rc, text):
    """True when the command exited 0, printed JSON, and its category's
    oracle, if it has one, accepts the output."""
    if rc != 0:
        return False
    try:
        obj = json.loads(text)
    except ValueError:
        return False
    oracle = ORACLES.get(q.kind)
    return oracle is None or oracle(q, obj)
