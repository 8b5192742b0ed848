"""Weak and regularized compositions over the monoid N + {e}.

The monoid adjoins to the nonnegative integers an element epsilon with

    0 + e = e + 0 = e + e = e,    n + e = e + n = n  (n >= 1),

ordered by 0 < e < 1, the order of ``EPS``, a float of value 0.5, in
plain tuple comparisons.  A regularized composition is a tuple of
positive integers and ``EPS``s, the regularization of the weak
composition that reads every ``EPS`` as 0; () is the empty composition.

Every regularized composition has a unique finest block form

    (e^{i_1}, s_1, e^{i_2}, s_2, ..., e^{i_k}, s_k, e^{i_{k+1}})

with single positive parts s_q; ``eps_runs`` returns the run lengths and
the positive parts, and the basis-change enumeration below works through
it.  The statistics, descent set and refinement order that the tests
check these against live in the tests' oracles.

``wcomp`` reads a signed permutation in one scan, and
``words.weak_descent_set`` is the reference it is checked against.
"""
from __future__ import annotations

from math import comb

from .lincomb import EPS
from .words import quasi_shuffle


def ntilde_add(a, b):
    """Monoid addition on {0, e, 1, 2, ...}."""
    if a is EPS:
        return b if (b is not EPS and b != 0) else EPS
    if b is EPS:
        return a if a != 0 else EPS
    return a + b


def regularize(weak):
    """The bijection from weak compositions: zero parts become e."""
    out = []
    for part in weak:
        if part < 0:
            raise ValueError(f"negative part {part} in weak composition")
        out.append(EPS if part == 0 else part)
    return tuple(out)


def eps_runs(alpha):
    """Finest block form: (run lengths i_1..i_{k+1}, positive parts s_1..s_k)."""
    runs = [0]
    parts = []
    for part in alpha:
        if part is EPS:
            runs[-1] += 1
        else:
            parts.append(part)
            runs.append(0)
    return runs, parts


def total_weight(alpha):
    return sum(1 if p is EPS else p for p in alpha)


def compositions_of(n):
    """All 2^(n-1) compositions of n >= 0 (the empty one for n = 0)."""
    if n == 0:
        return [()]
    out = []
    for first in range(1, n + 1):
        for rest in compositions_of(n - first):
            out.append((first,) + rest)
    return out


def refinement_terms(alpha):
    """All (beta, c) with beta a refinement of alpha and c the
    basis-change coefficient.

    Each epsilon run of length i contributes a kept length j <= i with
    weight C(i, j), except the trailing run which keeps 1 <= j <= i with
    weight C(i-1, j-1) (both zero allowed when i = 0, with coefficient
    1); each positive part contributes a composition of itself.
    """
    runs, parts = eps_runs(alpha)
    last = runs.pop()
    # one block of choices per run and the part after it, then the last run
    blocks = [[((EPS,) * j + gamma, comb(i, j)) for j in range(i + 1) for gamma in gammas]
              for i, gammas in zip(runs, map(compositions_of, parts))]
    blocks.append([((EPS,) * j, comb(last - 1, j - 1)) for j in range(1, last + 1)] or [((), 1)])
    out = [((), 1)]
    for block in blocks:
        out = [(beta + b, c * cb) for beta, c in out for b, cb in block]
    return out


def reversal(alpha):
    return tuple(reversed(alpha))


def j_apply(J, alpha):
    """Group the parts of alpha by the composition J of len(alpha) and add
    each group in the monoid."""
    if any(p is EPS or p < 1 for p in J) or sum(J) != len(alpha):
        raise ValueError(f"{J} is not a composition of {len(alpha)}")
    out = []
    pos = 0
    for size in J:
        acc = alpha[pos]
        for p in alpha[pos + 1 : pos + size]:
            acc = ntilde_add(acc, p)
        out.append(acc)
        pos += size
    return tuple(out)


def star_product(alpha, beta):
    """Quasi-shuffle of regularized compositions:

        a * b = (a_1, a' * b) + (b_1, a * b') + (a_1 + b_1, a' * b')

    with monoid addition in the merge term and the empty composition as
    unit."""
    return quasi_shuffle(alpha, beta, 1, ntilde_add)


def wcomp(pi):
    """Regularized composition of a signed permutation, in one scan: an e
    per negative letter, and a positive letter a closes the current part
    when a > max(0, b), with b the next letter or 0 past the end, so the
    parts end at ``weak_descent_set(pi)``.

    Any signed word whose positive letters are distinct gives the value
    of its standardization."""
    out = []
    run = 0
    for a, b in zip(pi, (*pi[1:], 0)):
        if a < 0:
            out.append(EPS)
        else:
            run += 1
            if a > b:  # a > 0, so this is a > max(0, b)
                out.append(run)
                run = 0
    return tuple(out)


def wcomp_preimage(alpha):
    """A signed permutation pi with wcomp(pi) = alpha, in one pass.

    Each entry takes the largest absolute values still unused: an epsilon
    becomes one negative letter, a positive part s an increasing run of s
    letters.  Every run lies below all the letters before it, so inside a
    positive block the descents fall exactly at the ends of the parts.
    """
    out = []
    top = total_weight(alpha)
    for part in alpha:
        if part is EPS:
            out.append(-top)
            top -= 1
        else:
            out.extend(range(top - part + 1, top + 1))
            top -= part
    return tuple(out)


def regularized_compositions(w):
    """All regularized compositions of total weight w (e counts 1)."""
    if w == 0:
        return [()]
    out = []
    for first in range(1, w + 1):
        heads = (1, EPS) if first == 1 else (first,)
        for head in heads:
            for rest in regularized_compositions(w - first):
                out.append((head,) + rest)
    return out


def comp_to_text(alpha):
    if not alpha:
        return "empty"
    return ",".join(map(str, alpha))  # str(EPS) is "e"


def text_to_comp(text):
    """Parse '1,e,2' with 'e' for epsilon; 'empty' is the empty
    composition."""
    text = text.strip()
    if text == "empty" or text == "":
        return ()
    out = []
    for pos, bit in enumerate(text.split(","), start=1):
        bit = bit.strip()
        if bit == "e":
            out.append(EPS)
            continue
        try:
            p = int(bit)
        except ValueError:
            raise ValueError(f"bad part {bit!r} at position {pos} of {text!r}") from None
        if p < 1:
            raise ValueError(f"nonpositive part {p} at position {pos} of {text!r}")
        out.append(p)
    return tuple(out)
