"""Command line surface.

Subcommands: product, coproduct, antipode, convert, map, gamma, expand,
verify.  Signed permutations are written as comma separated signed
integers ('id' for the empty one), regularized compositions use 'e' for
epsilon ('empty' for the empty one), and rationals as 'p/q'.  Output is
JSON by default, '--format text' for a human rendering.  A plain command
line (exact option strings, one value each, the elements in one run) is
read in one pass over a table of its command parser's own declarations;
any other line, and every help or error, goes to argparse, the command's
parser for a known command and the top-level parser otherwise.

Exit codes: 0 on success, 1 when a verification suite reports failures,
2 on malformed input or when the output cannot be written.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction

from .compositions import text_to_comp, total_weight
from .laws import merge_reports, report_to_json
from .lincomb import lincomb_to_text, sorted_keys
from . import hopf, morphisms, ppartitions


class CLIError(Exception):
    pass


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
        # key_text of a nonempty key joins the texts of its entries by ","
        texts = {x: str(x) for x in set().union(*terms)}  # str(EPS) is "e"
        sep, form = ('",\n        "', _EXPS) if key_text is None else (",", _KEY)
        body = [form % (terms[k], sep.join(map(texts.get, k)) if k else key_text(k))
                for k in sorted_keys(terms)]
    if not body:
        return head + '  "terms": []\n}'
    return head + '  "terms": [\n' + ",\n".join(body) + "\n  ]\n}"


def _emit(lc, ctx, fmt, tensor=False):
    """Print a combination of basis keys of ``ctx``, or of pairs of them
    when ``tensor`` is set."""
    if fmt == "text":
        one = lambda k: f"{ctx.letter}[{ctx.key_text(k)}]"
        encode = (lambda kk: "(x)".join(map(one, kk))) if tensor else one
        print(lincomb_to_text(lc, encode))
    else:
        print(_listing(lc, ctx.key_text, tensor))


def _emit_series(series, fmt):
    print(series.to_text() if fmt == "text" else _listing(series))


def _at_least(value, low, flag):
    if value < low:
        raise CLIError(f"{flag} must be at least {low}, got {value}")
    return value


def _parse_lambda(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise CLIError(f"bad rational {text!r}") from None


def cmd_operation(args):
    """product, coproduct or antipode of basis keys, by the command's name."""
    ctx = hopf.context_by_name(args.algebra, _parse_lambda(args.lam))
    keys = [ctx.parse_key(text) for text in args.elements]
    _emit(getattr(ctx, args.command)(*keys), ctx, args.format,
          tensor=args.command == "coproduct")
    return 0


def cmd_convert(args):
    if {args.frm, args.to} != {"f", "m"}:
        raise CLIError("convert needs --from f --to m or --from m --to f")
    # rqsym-f and rqsym-m read the same composition keys, so the target's
    # context parses the input too
    ctx = hopf.context_by_name(f"rqsym-{args.to}")
    key = ctx.parse_key(args.elements[0])
    lc = hopf.f_to_m_cached(key) if args.frm == "f" else hopf.m_to_f_cached(key)
    _emit(lc, ctx, args.format)
    return 0


# map: (algebra of the input, the function in morphisms, algebra of the
# output); the function is looked up when the command runs
MAPS = {
    "d1": ("hsym", "d1", "rqsym-f"),
    "d2": ("hsym", "d2", "rqsym-f"),
    "phi1M": ("rqsym-m", "phi1_m", "qsym"),
    "phi1F": ("rqsym-f", "phi1_f", "rqsym-f"),
    "phi2": ("hsym", "phi2", "ssym"),
}


def cmd_map(args):
    source, fn, target = MAPS[args.which]
    key = hopf.context_by_name(source).parse_key(args.elements[0])
    _emit(getattr(morphisms, fn)(key), hopf.context_by_name(target), args.format)
    return 0


def cmd_gamma(args):
    try:
        with open(args.poset) as fh:
            poset = ppartitions.parse_poset(fh.read())
    except OSError as exc:
        raise CLIError(f"cannot read poset file: {exc}") from None
    _emit_series(ppartitions.gamma(poset, _at_least(args.vars, 1, "--vars")), args.format)
    return 0


# the most entries ``expand`` writes: k exponents per term, and for F also
# the letters of the chain, built once and placed once per packed
# P-partition walked; the chain's P-partitions bound both counts.  A larger
# request exits 2 before any work, decided from alpha and k alone, since
# its time and memory grow with the count
EXPAND_MAX_TERMS = 10**5


def cmd_expand(args):
    alpha = text_to_comp(args.elements[0])
    k = _at_least(args.vars, 1, "--vars")
    width = k + (total_weight(alpha) if args.basis == "f" else 0)
    if (width > EXPAND_MAX_TERMS or width * ppartitions.expansion_size(
            alpha, k, args.basis, EXPAND_MAX_TERMS // width) > EXPAND_MAX_TERMS):
        raise CLIError(f"expand would write more than {EXPAND_MAX_TERMS} entries")
    fn = ppartitions.expand_m if args.basis == "m" else ppartitions.expand_f
    _emit_series(fn(alpha, k), args.format)
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


def cmd_verify(args):
    degree = _at_least(args.max_degree, 0, "--max-degree")
    jobs = _at_least(args.jobs, 1, "--jobs")
    meta = {"suite": args.suite, "max_degree": degree}
    # (law name prefix, verifier, its arguments before the shard)
    if args.suite == "hopf":
        if args.lam is None:
            raise CLIError("verify --suite hopf needs an explicit --lambda")
        lam = _parse_lambda(args.lam)
        meta["lambda"] = str(lam)
        algebras = [args.algebra] if args.algebra else ["hsym", "ssym", "rqsym-m"]
        runs = [(f"{name}: ", _verify_algebra, (name, lam, degree)) for name in algebras]
    elif args.suite == "square":
        runs = [("", morphisms.verify_square, (degree,))]
    elif args.suite == "morphisms":
        runs = [("", morphisms.verify_morphism_laws, (degree,)),
                ("", morphisms.verify_annihilation, (degree,))]
    elif args.suite == "surjectivity":
        runs = [("", morphisms.verify_surjectivity, (degree,))]
    else:
        runs = [("", ppartitions.verify_gamma_identities,
                 (degree, 2 * degree, degree + 1, 2 * (degree + 1)))]

    laws = []
    for prefix, verifier, params in runs:
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
        print(json.dumps(report, indent=2))
    return 0 if failed == 0 else 1


class _Parser(argparse.ArgumentParser):
    # let signed permutations like "-3,1,2,-4" pass as positionals
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d[\d,\-/]*$")


@functools.cache  # built on the first call, then shared by every call of main
def build_parser():
    parser = _Parser(
        prog="wqsym",
        description="Hopf algebras of signed permutations and weak "
        "quasi-symmetric functions",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    parser.commands = sub.choices  # name -> subcommand parser, filled below

    def common(p, nargs_elements=0):
        p.add_argument("--format", choices=("json", "text"), default="json")
        if nargs_elements:
            p.add_argument("elements", nargs=nargs_elements)

    for name, n_elements, help_text in (
        ("product", 2, "multiply two basis elements"),
        ("coproduct", 1, "coproduct of a basis element"),
        ("antipode", 1, "antipode of a basis element"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--algebra", required=True, choices=hopf.ALGEBRAS)
        p.add_argument("--lambda", dest="lam", default="-1",
                       help="quasi-shuffle weight for hsym (default -1)")
        common(p, n_elements)
        p.set_defaults(fn=cmd_operation)

    p = sub.add_parser("convert", help="change basis between F and M")
    p.add_argument("--from", dest="frm", required=True, choices=("f", "m"))
    p.add_argument("--to", dest="to", required=True, choices=("f", "m"))
    common(p, 1)
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("map", help="apply one of the four surjections")
    p.add_argument("--which", required=True,
                   choices=tuple(MAPS))
    common(p, 1)
    p.set_defaults(fn=cmd_map)

    p = sub.add_parser("gamma", help="generating function of a poset file")
    p.add_argument("--poset", required=True)
    p.add_argument("--vars", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_gamma)

    p = sub.add_parser("expand", help="truncated expansion of a basis element")
    p.add_argument("--basis", required=True, choices=("m", "f"))
    p.add_argument("--vars", type=int, required=True)
    common(p, 1)
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True,
                   choices=("hopf", "morphisms", "square", "surjectivity", "gamma"))
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--algebra", default=None, choices=hopf.ALGEBRAS,
                   help="one algebra (default: hsym, ssym and rqsym-m)")
    common(p)
    p.set_defaults(fn=cmd_verify)

    return parser


@functools.cache  # built on the first plain line of each command
def _plain_table(command):
    """What ``_read_plain`` needs of a command parser, read off its own
    argparse declarations: each exact option string's store action, the
    positional action with an integral ``nargs``, the required actions,
    the namespace of defaults (``_actions``, then ``_defaults``), and the
    matcher that makes a leading "-" a negative number.  None when the
    parser declares anything else, so that argparse reads every line."""
    if (command.prefix_chars != "-" or command.fromfile_prefix_chars is not None
            or command._mutually_exclusive_groups or command._has_negative_number_optionals):
        return None
    options, elements, base = {}, None, {}
    for action in command._actions:
        if isinstance(action, argparse._HelpAction):
            continue  # "-h" is no option of the table, so help goes to argparse
        if type(action) is not argparse._StoreAction or action.default is argparse.SUPPRESS:
            return None
        if action.option_strings and action.nargs is None:
            options.update(dict.fromkeys(action.option_strings, action))
        elif not action.option_strings and type(action.nargs) is int and elements is None:
            elements = action
        else:
            return None
        # an unseen string default is converted by the action's type
        default = action.default
        if isinstance(default, str):
            default = command._registry_get("type", action.type, action.type)(default)
        base.setdefault(action.dest, default)
    for dest, value in command._defaults.items():
        base.setdefault(dest, value)
    required = [a for a in command._actions if a.required]
    return options, elements, required, base, command._negative_number_matcher.match


def _read_plain(command, name, argv):
    """The namespace ``command``'s argparse parse gives for ``argv``, the
    arguments after the command ``name``, when the line is plain: every
    option an exact option string followed by its one value, the elements
    one contiguous run of exactly ``nargs``, every value accepted by its
    action's ``type`` and ``choices``, every required action present.
    None for any other line, which argparse then reads."""
    table = _plain_table(command)
    if table is None:
        return None
    options, elements, required, base, negative = table
    seen = {}
    i, n = 0, len(argv)
    while i < n:
        action = options.get(argv[i])
        if action is None:
            action, start = elements, i  # the run of elements starts here
        else:
            start = i + 1  # the option's one value
        if action is None or action in seen:
            return None  # a string where no element may stand, or a repeat
        i = start + (action.nargs or 1)
        if i > n:
            return None
        convert = command._registry_get("type", action.type, action.type)
        values = []
        for text in argv[start:i]:
            if text[:1] == "-" and not negative(text):
                return None  # an option string, "-h", "--" or a missing value
            try:
                value = convert(text)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
            values.append(value)
        seen[action] = values[0] if action.nargs is None else values
    if any(action not in seen for action in required):
        return None
    args = argparse.Namespace(command=name)
    namespace = vars(args)
    namespace.update(base)
    namespace.update((action.dest, value) for action, value in seen.items())
    return args


def parse_argv(argv):
    """``build_parser().parse_args(argv)``.  A plain line of a known
    command is read by ``_read_plain``, in one pass over its parser's
    declarations; any other line by argparse: the command's parser alone
    when the first element names a command, the top-level parser for help,
    an unknown command or none.  argparse writes every help and error."""
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:  # help, an unknown command or no command at all
        return parser.parse_args(argv)
    args = _read_plain(command, argv[0], argv[1:])
    if args is not None:
        return args
    args, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extra:
        parser.error("unrecognized arguments: " + " ".join(extra))
    return args


def main(argv=None):
    args = parse_argv(sys.argv[1:] if argv is None else list(argv))
    try:
        code = args.fn(args)
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
