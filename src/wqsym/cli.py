"""Command line surface.

Subcommands: product, coproduct, antipode, convert, map, gamma, expand,
verify.  Signed permutations are written as comma separated signed
integers ('id' for the empty one), regularized compositions use 'e' for
epsilon ('empty' for the empty one), and rationals as 'p/q'.  Output is
JSON by default, '--format text' for a human rendering.  Each command is
declared once, in ``COMMANDS``, with its work bound and that bound's
limit, which ``main`` applies before the command's handler runs.
``build_parser`` builds argparse from the table, and a plain line (see
``_read_plain``) is read in one pass over it, with no parser built.
argparse reads any other line and writes every help and error: the
command's parser for a known command, the top-level parser otherwise.
The morphisms, the P-partitions and ``json`` are imported by the commands
that run them, so that a command loads only the modules it runs.

Exit codes: 0 on success, 1 when a verification suite reports failures,
2 on malformed input, on a request past its command's work bound, or when
the output cannot be written.
"""
from __future__ import annotations

import argparse
import functools
import importlib
import itertools
import os
import re
import sys
from fractions import Fraction
from math import comb, factorial, log10, prod

from .compositions import EPS, eps_runs, text_to_comp, total_weight
from .words import text_to_perm
from .laws import merge_reports, report_to_json
from .lincomb import lincomb_to_text, sorted_keys
from . import hopf


class CLIError(Exception):
    pass


def _module(name):
    """``wqsym.<name>``, imported by the first command that runs it; read
    from ``sys.modules`` first, which costs a sixth of ``import_module``."""
    return sys.modules.get(f"wqsym.{name}") or importlib.import_module(f"wqsym.{name}")


# one term of a listing as json.dumps(indent=2) writes it, by the kind of
# key: a basis key, a pair of basis keys, or a nonempty exponent tuple; "%s"
# writes a coefficient by str, as lincomb_to_json does
_KEY = '    {\n      "coeff": "%s",\n      "key": "%s"\n    }'
_PAIR = '    {\n      "coeff": "%s",\n      "key": [\n        "%s",\n        "%s"\n      ]\n    }'
_EXPS = '    {\n      "coeff": "%s",\n      "exps": [\n        "%s"\n      ]\n    }'


def _listing(lc, key_text=None, tensor=False):
    """The text of ``json.dumps(listing, indent=2)``, written straight from
    the terms: ``listing`` is ``lincomb_to_json(lc, encode)``, with
    ``encode`` the key's ``key_text``, or the list of its legs' texts when
    ``tensor`` is set; with no ``key_text``, ``lc`` is a ``Series`` in
    k >= 1 variables, as ``--vars`` requires, and ``listing`` the form that
    ``Series.from_json`` reads: ``k`` and each term's ``coeff`` and ``exps``.

    ``indent`` switches ``json.dumps`` to its pure-Python encoder, which
    costs more than most of the results it prints.  Coefficients, key
    texts and exponents are written with digits, '-', '/', ',', 'e', 'id'
    and 'empty' only, which JSON quotes as they are."""
    terms = lc.terms
    head = '{\n  "k": %d,\n' % lc.k if key_text is None else "{\n"
    if tensor:
        body = [_PAIR % (terms[kk], key_text(kk[0]), key_text(kk[1]))
                for kk in sorted_keys(terms)]
    else:
        # key_text of a nonempty key is "%s,%s,...", and str(EPS) is "e"
        sep, form = ('",\n        "', _EXPS) if key_text is None else (",", _KEY)
        body = []
        for n, keys in itertools.groupby(sorted_keys(terms), len):
            keys = list(keys)
            texts = map(sep.join(("%s",) * n).__mod__, keys) if n else map(key_text, keys)
            body += map(form.__mod__, zip(map(terms.__getitem__, keys), texts))
    if not body:
        return head + '  "terms": []\n}'
    return head + '  "terms": [\n' + ",\n".join(body) + "\n  ]\n}"


def _emit(lc, ctx, fmt, tensor=False):
    """Print a combination of basis keys of ``ctx``, of pairs of them when
    ``tensor`` is set, or with no ``ctx`` a series."""
    if fmt == "json":
        print(_listing(lc, ctx and ctx.key_text, tensor))
    elif ctx is None:
        print(lc.to_text())
    else:
        one = lambda k: f"{ctx.letter}[{ctx.key_text(k)}]"
        print(lincomb_to_text(lc, (lambda kk: "(x)".join(map(one, kk))) if tensor else one))


def _at_least(value, low, flag):
    if value < low:
        raise CLIError(f"{flag} must be at least {low}, got {value}")
    return value


def _parse_lambda(text):
    """``Fraction(text)``, read once.  A decimal exponent above 4300 in
    absolute value, the most digits ``int`` reads, is refused unread, as
    ``Fraction`` would take seconds to build a power of 10 that long."""
    if "_" not in text:  # int reads as Fraction does but "_", which Fraction refuses before 3.11
        try:
            return int(text)
        except ValueError:
            pass
    try:
        if (exp := re.search(r"[eE][-+]?([\d_]+)\s*\Z", text)) and int(exp[1]) > 4300:
            raise ValueError(text)
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise CLIError(f"bad rational {text!r}") from None


# The limits of the bounds in ``COMMANDS``: one per command, as the cost of
# an entry written differs by command, each set by a request at its cut.
# product and antipode: hsym -1,...,-9 times itself walks 1,462,563 words of
# at most 18 letters in 4.4 s and 77 MB, and -1,...,-10 is refused
OPERATION_MAX_ENTRIES = 10**8
# coproduct: rqsym-f of the part 99,999 takes 0.54 s and 74 MB, of 10^5 is refused
COPRODUCT_MAX_ENTRIES = 2 * 10**5
# convert: F -> M of the part 18 takes 0.80 s and 97 MB, of 19 is refused
CONVERT_MAX_ENTRIES = 3 * 10**6
# expand, and gamma once it has walked, its count then exact
EXPAND_MAX_TERMS = 10**5
# the packed P-partitions gamma walks: 3^12 = 531,441 for an antichain of 12
# labels in 3 variables take 0.56 s
GAMMA_MAX_WALK = 10**6


@functools.lru_cache(maxsize=256)  # few shapes of request recur; each bound costs microseconds
def _output_size(algebra, merging, *sizes):
    """An upper bound on the entries of the product of two keys of the
    algebra, or of the antipode of one, from their ``sizes`` alone: terms
    times the summed size, the parts of a monomial key (rqsym-m and qsym),
    else the degree, as each term has at most that many letters or parts.
    A product of keys of sizes m <= n has at most the C(m + n, m) >= 2^m
    shuffles of two words of those lengths, and with ``merging`` at most
    their D(m, n) = sum_r C(m, r) C(n, r) 2^r quasi-shuffles; an F key of
    weight w has a preimage under ``wcomp`` of w letters.  A closed-form
    antipode of an M key of d parts has at most 2^(d - 1) terms of at most
    d parts (see ``hopf``).  A graded antipode keeps to the keys of
    at most its key's degree d, d alone without ``merging``: 2^j j! signed
    permutations of each length j, j! in ssym.  In degree d there are at
    least 2^(d - 1) of them, so a size above 64 gives 2^64."""
    if min(sizes) > 64:
        return 1 << 64
    if len(sizes) == 2:
        m, n = sorted(sizes)
        return (m + n) * (sum([comb(m, r) * comb(n, r) << r for r in range(m + 1)])
                          if merging else comb(m + n, m))
    d, = sizes
    if algebra not in ("hsym", "ssym"):
        return d * (1 << d >> 1 or 1)
    return d * sum([factorial(j) << (j if algebra == "hsym" else 0)
                    for j in range(0 if merging else d, d + 1)])


def _operation_size(args, limit):
    """product and antipode: ``_output_size``, for an rqsym-f antipode its
    terms, the product of max(i, 1) over the key's runs of i epsilons, times
    the weight.  coproduct: its size + 1 terms, len + 1 deconcatenations and
    in rqsym-f weight - len near splits, of at most len + 1 letters or parts
    each.  An hsym term that loses r letters to merges, at most min(m, n) in
    a product and d - 1 in an antipode, has the coefficient w^r at a weight
    w = p/q; past 4300 digits, the most ``str`` writes, it is refused."""
    lam = _parse_lambda(args.lam)
    ctx = hopf.context_by_name(args.algebra, lam)
    keys = [ctx.parse_key(text) for text in args.elements]
    args.work = getattr(ctx, args.command), keys, ctx
    size = len if args.algebra in ("rqsym-m", "qsym") else ctx.degree
    if args.command == "coproduct":
        return (size(keys[0]) + 1) * (len(keys[0]) + 1)
    sizes = [*map(size, keys)]
    if args.algebra == "hsym" and lam:
        lost = min(sizes) if args.command == "product" else sizes[0] - 1
        if lost * log10(max(abs(lam.numerator), lam.denominator)) >= 4300:
            raise CLIError(f"{args.command} would write a coefficient of more than 4300 digits")
    elif args.algebra == "rqsym-f" and args.command == "antipode":
        return prod(max(i, 1) for i in eps_runs(keys[0])[0]) * sizes[0]
    merging = bool(lam) if args.algebra == "hsym" else args.algebra != "ssym"
    return _output_size(args.algebra, merging, *sizes)


def _convert_size(args, limit):
    """convert: the refinements that ``refinement_terms`` lists, the product
    of its block sizes, (i + 1) 2^(s - 1) for a run of i epsilons and the
    part s after it and max(i, 1) for the last run, held just past the limit
    once it passes it, times the weight, the most parts of a refinement."""
    if {args.frm, args.to} != {"f", "m"}:
        raise CLIError("convert needs --from f --to m or --from m --to f")
    # rqsym-f and rqsym-m read the same composition keys, so the target's
    # context parses the input too
    ctx = hopf.context_by_name(f"rqsym-{args.to}")
    key = ctx.parse_key(args.elements[0])
    args.work = hopf.f_to_m_cached if args.frm == "f" else hopf.m_to_f_cached, [key], ctx
    runs, parts = eps_runs(key)
    terms = max(runs.pop(), 1) << min(sum(parts) - len(parts), limit.bit_length())
    for i in runs:
        terms = min(terms * (i + 1), limit + 1)
    return terms * total_weight(key)


def _walk_size(args, limit):
    """gamma: ``ppartitions.walk_size`` of the poset in k variables."""
    ppartitions = _module("ppartitions")
    try:
        with open(args.poset) as fh:
            poset = ppartitions.parse_poset(fh.read())
    except OSError as exc:
        raise CLIError(f"cannot read poset file: {exc}") from None
    k = _at_least(args.vars, 1, "--vars")
    args.work = ppartitions.gamma, (poset, k, EXPAND_MAX_TERMS), None
    return ppartitions.walk_size(poset, k, limit)


def _expand_size(args, limit):
    """expand: k exponents, and for F the letters of the chain, per term or
    P-partition that ``ppartitions.expansion_size`` counts, no word built."""
    alpha, k = text_to_comp(args.elements[0]), _at_least(args.vars, 1, "--vars")
    ppartitions = _module("ppartitions")
    args.work = getattr(ppartitions, f"expand_{args.basis}"), (alpha, k), None
    width = k + (total_weight(alpha) if args.basis == "f" else 0)
    return width if width > limit else width * ppartitions.expansion_size(
        alpha, k, args.basis, limit // width)


def cmd_work(args):
    """Print the work that the command's bound read, (fn, operands, ctx)."""
    fn, operands, ctx = args.work
    _emit(fn(*operands), ctx, args.format, tensor=args.command == "coproduct")
    return 0


# map: (reader of the input key, which every input algebra takes whole, the
# function in morphisms, looked up when the command runs, output algebra)
MAPS = {
    "d1": (text_to_perm, "d1", "rqsym-f"),
    "d2": (text_to_perm, "d2", "rqsym-f"),
    "phi1M": (text_to_comp, "phi1_m", "qsym"),
    "phi1F": (text_to_comp, "phi1_f", "rqsym-f"),
    "phi2": (text_to_perm, "phi2", "ssym"),
}


def cmd_map(args):
    read, fn, target = MAPS[args.which]
    key = read(args.elements[0])
    _emit(getattr(_module("morphisms"), fn)(key), hopf.context_by_name(target), args.format)
    return 0


def _verify_algebra(name, lam, max_degree, shard=(0, 1)):
    """verify_hopf on the algebra called ``name``.  A context holds
    lambdas, which cannot be sent to a worker, so each worker builds it."""
    return hopf.verify_hopf(hopf.context_by_name(name, lam), max_degree, shard)


def _run_sharded(verifier, params, jobs):
    """Run ``verifier(*params, shard=...)`` on ``jobs`` worker processes,
    at most one per CPU, and merge the shard reports, which gives the
    report of a single run whatever the split; a single worker runs in
    this process.

    The verifier is sent to the workers by import path, so it must be a
    module-level function."""
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs == 1:
        return verifier(*params)
    import concurrent.futures
    import multiprocessing

    context = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
        futures = [pool.submit(verifier, *params, shard=(i, jobs)) for i in range(jobs)]
        return merge_reports([f.result() for f in futures])


# suite: its runs, each (law name prefix, verifier, its arguments before the
# shard), from the degree and, for hopf alone, the weight and the algebras;
# ``cmd_verify`` refuses an algebra on any other suite, and a weight but -1 unless hsym runs
SUITES = {
    "hopf": lambda d, lam, algebras: [(f"{a}: ", _verify_algebra, (a, lam, d)) for a in algebras],
    "morphisms": lambda d, *_: [("", _module("morphisms").verify_morphism_laws, (d,)),
                                ("", _module("morphisms").verify_annihilation, (d,))],
    "square": lambda d, *_: [("", _module("morphisms").verify_square, (d,))],
    "surjectivity": lambda d, *_: [("", _module("morphisms").verify_surjectivity, (d,))],
    "gamma": lambda d, *_: [("", _module("ppartitions").verify_gamma_identities,
                             (d, 2 * d, d + 1, 2 * (d + 1)))],
}


def cmd_verify(args):
    degree = _at_least(args.max_degree, 0, "--max-degree")
    jobs = _at_least(args.jobs, 1, "--jobs")
    meta = {"suite": args.suite, "max_degree": degree}
    lam = None if args.lam is None else _parse_lambda(args.lam)
    if args.suite == "hopf":
        if lam is None:
            raise CLIError("verify --suite hopf needs an explicit --lambda")
        if args.algebra not in (None, "hsym") and lam != -1:
            raise CLIError(f"{args.algebra} reads no weight: --lambda must be -1, not {args.lam}")
        meta["lambda"] = str(lam)
    elif args.algebra:
        raise CLIError(f"--algebra is read by --suite hopf only, not {args.suite}")
    elif lam not in (None, -1):
        raise CLIError(f"--suite {args.suite} runs at weight -1 only, not --lambda {args.lam}")
    algebras = [args.algebra] if args.algebra else ["hsym", "ssym", "rqsym-m"]
    laws = []
    for prefix, verifier, params in SUITES[args.suite](degree, lam, algebras):
        for law in _run_sharded(verifier, params, jobs):
            law.law = prefix + law.law
            laws.append(law)

    report = report_to_json(laws, **meta)
    failed = report["summary"]["failed"]
    total = report["summary"]["total"]
    if args.format == "text":
        for check in report["checks"]:
            print(f"{check['status']:4s}  {check['law']}  ({check['checked']} checks)")
        print(f"summary: {failed} mismatches / {total} checks")
    else:
        import json

        print(json.dumps(report, indent=2))
    return 0 if failed == 0 else 1


# each command's options, keyed by flag in help order: the keywords of their
# add_argument.  Each takes one value, stored under its "dest", else under its
# flag without "--", "-" read as "_"; a default is stored as given, not typed
_FORMAT = {"--format": dict(choices=("json", "text"), default="json")}
_OPERATION = {"--algebra": dict(required=True, choices=hopf.ALGEBRAS),
              "--lambda": dict(dest="lam", default="-1",
                               help="quasi-shuffle weight for hsym (default -1)"),
              **_FORMAT}

# name: (help, options, number of elements, handler, bound).  A bound is
# (estimate, limit, refusal): estimate(args, limit) reads the request, with
# the checks on its operands, into ``args.work`` for ``cmd_work``, and
# counts that work without doing it, or returns any number above the limit
# once the count passes it; ``main`` refuses a count past the limit with
# exit 2 and "error: <name> would <refusal % limit>".  map writes at most
# its input, and verify runs the budget asked for
_WRITE = "write more than %d entries"
COMMANDS = {
    "product": ("multiply two basis elements", _OPERATION, 2, cmd_work,
                (_operation_size, OPERATION_MAX_ENTRIES, _WRITE)),
    "coproduct": ("coproduct of a basis element", _OPERATION, 1, cmd_work,
                  (_operation_size, COPRODUCT_MAX_ENTRIES, _WRITE)),
    "antipode": ("antipode of a basis element", _OPERATION, 1, cmd_work,
                 (_operation_size, OPERATION_MAX_ENTRIES, _WRITE)),
    "convert": ("change basis between F and M",
                {"--from": dict(dest="frm", required=True, choices=("f", "m")),
                 "--to": dict(required=True, choices=("f", "m")), **_FORMAT},
                1, cmd_work, (_convert_size, CONVERT_MAX_ENTRIES, _WRITE)),
    "map": ("apply one of the four surjections",
            {"--which": dict(required=True, choices=tuple(MAPS)), **_FORMAT}, 1, cmd_map, None),
    "gamma": ("generating function of a poset file",
              {"--poset": dict(required=True), "--vars": dict(type=int, required=True),
               **_FORMAT}, 0, cmd_work,
              (_walk_size, GAMMA_MAX_WALK, "walk more than %d packed P-partitions")),
    "expand": ("truncated expansion of a basis element",
               {"--basis": dict(required=True, choices=("m", "f")),
                "--vars": dict(type=int, required=True), **_FORMAT}, 1, cmd_work,
               (_expand_size, EXPAND_MAX_TERMS, _WRITE)),
    "verify": ("run a verification suite",
               {"--suite": dict(required=True, choices=tuple(SUITES)),
                "--max-degree": dict(type=int, default=4),
                "--lambda": dict(dest="lam"),
                "--jobs": dict(type=int, default=1),
                "--algebra": dict(choices=hopf.ALGEBRAS,
                                  help="one algebra (default: hsym, ssym and rqsym-m)"),
                **_FORMAT}, 0, cmd_verify, None),
}

# a string of this form is a value, not an option, so that signed
# permutations like "-3,1,2,-4" pass as positionals
_NEGATIVE = re.compile(r"^-\d[\d,\-/]*$")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE


@functools.cache  # built on the first call that needs argparse, then shared
def build_parser():
    parser = _Parser(
        prog="wqsym",
        description="Hopf algebras of signed permutations and weak "
        "quasi-symmetric functions",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    parser.commands = sub.choices  # name -> subcommand parser, filled below
    for name, (help_text, options, n_elements, *_) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in options.items():
            p.add_argument(flag, **keywords)
        if n_elements:
            p.add_argument("elements", nargs=n_elements)
    return parser


def _read_plain(name, argv):
    """The namespace argparse gives for ``argv``, the arguments after the
    command ``name``, when the line is plain: every option an exact flag of
    ``COMMANDS[name]`` followed by its one value, the elements one
    contiguous run of exactly their number, every value accepted by its
    option's ``type`` and ``choices``, every required option present.  None
    for any other line, which argparse then reads."""
    _, options, n_elements, *_ = COMMANDS[name]
    seen = {}  # flag, or "elements" for the run of elements, -> its value
    i, n = 0, len(argv)
    while i < n:
        flag = argv[i]
        if flag in options:  # the option's one value follows
            start, i = i + 1, i + 2
        else:  # the run of elements starts here
            flag, start, i = "elements", i, i + n_elements
        if start == i or i > n or flag in seen:
            return None  # a string where no element may stand, a short line or a repeat
        texts = argv[start:i]
        for text in texts:
            if text[:1] == "-" and not _NEGATIVE.match(text):
                return None  # an option string, "-h", "--" or a missing value
        if flag == "elements":
            seen[flag] = texts
            continue
        keywords, value = options[flag], texts[0]
        if "type" in keywords:
            try:
                value = keywords["type"](value)
            except ValueError:
                return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        seen[flag] = value
    args = argparse.Namespace(command=name)
    if n_elements:
        if "elements" not in seen:
            return None
        args.elements = seen["elements"]
    for flag, keywords in options.items():
        if flag not in seen and keywords.get("required"):
            return None
        setattr(args, keywords.get("dest") or flag[2:].replace("-", "_"),
                seen.get(flag, keywords.get("default")))
    return args


def parse_argv(argv):
    """``build_parser().parse_args(argv)``, a plain line read by
    ``_read_plain``, any other by argparse, as the module docstring says."""
    if not argv or argv[0] not in COMMANDS:  # help, an unknown command or none
        return build_parser().parse_args(argv)
    args = _read_plain(argv[0], argv[1:])
    if args is not None:
        return args
    parser = build_parser()
    args, extra = parser.commands[argv[0]].parse_known_args(
        argv[1:], argparse.Namespace(command=argv[0]))
    if extra:
        parser.error("unrecognized arguments: " + " ".join(extra))
    return args


def main(argv=None):
    args = parse_argv(sys.argv[1:] if argv is None else list(argv))
    try:
        *_, handler, bound = COMMANDS[args.command]
        if bound:
            estimate, limit, refusal = bound
            if estimate(args, limit) > limit:
                raise CLIError(f"{args.command} would {refusal % limit}")
        code = handler(args)
        sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
        return code
    except (CLIError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader of stdout has gone; send what is still buffered to
        # devnull, so that the flush at interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
