"""Command-line surface.

One computation per invocation; results go to stdout as text (ideal or
matrix file formats) or JSON with --format json.  Examples:

    algstat compute-lc hw.ideal
    algstat ml-degree --ideal hw.ideal --seed 7
    algstat toric-ideal --matrix curve.mat
    algstat toric-polytope --ideal 'ring p_0..p_3;p_0*p_2-p_1^2;p_1*p_3-p_2^2;p_0*p_3-p_1*p_2' --inline
    algstat loglinear-matrix --model chain.json
    algstat scroll --blocks 2,2,3
    algstat groebner --ideal cubic.ideal --order lex
    algstat drv mean --arity 3 --pmf 1/2,3/10,1/5

Exit codes: 0 success, 1 bad input (parse errors, missing files, bad
flags), 2 computational guardrail tripped (e.g. the standard-monomial
cap).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .errors import GuardrailError, InputError
from .exactmath import IntMatrix, format_int_matrix, parse_int_matrix
from .groebner import Ideal, format_ideal, parse_ideal_text
from .likelihood import LikelihoodIdeal, compute_lc, ml_degree
from .models import DiscreteRandomVariable, ModelGraph, parse_model_json
from .ring import GREVLEX, LEX, PolyRing, map_to_ring, print_polynomial
from .toric import make_loglinear_matrix, rational_normal_scroll, toric_ideal, toric_model, toric_polytope

__all__ = ["run", "main", "load_model", "emit_json"]


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path!r}: {exc.strerror or exc}") from None


def _parse_source(text: str, kind: str):
    if kind == "ideal":
        return parse_ideal_text(text)
    if kind == "matrix":
        return parse_int_matrix(text)
    return parse_model_json(text)


def load_model(path: str):
    """Load an input file, dispatching on its extension.

    ``.ideal`` gives an Ideal, ``.mat`` an IntMatrix, ``.json`` a
    ModelGraph or a (variables, generators) pair.
    """
    for suffix, kind in ((".ideal", "ideal"), (".mat", "matrix"), (".json", "model")):
        if path.endswith(suffix):
            return _parse_source(_read_file(path), kind)
    raise InputError(
        f"cannot tell what {path!r} holds; expected a .ideal, .mat, or .json file"
    )


def _gather_input(args, slots):
    """Resolve the one input source among the positional and the flags."""
    found = []
    if getattr(args, "source", None) is not None:
        found.append(("auto", args.source))
    for slot in slots:
        value = getattr(args, slot, None)
        if value is not None:
            found.append((slot, value))
    if len(found) != 1:
        names = ", ".join(f"--{s}" for s in slots)
        raise InputError(f"provide exactly one input source (a file, or one of {names})")
    kind, value = found[0]
    if kind == "auto":
        if args.inline:
            raise InputError("--inline needs an explicit input flag, not a file")
        return load_model(value)
    text = value.replace(";", "\n") + "\n" if args.inline else _read_file(value)
    return _parse_source(text, kind)


def _as_model_input(parsed):
    """Coerce a (variables, generators) pair to its design matrix."""
    if isinstance(parsed, tuple):
        variables, generators = parsed
        return make_loglinear_matrix(generators, variables)
    return parsed


def emit_json(result, key: str | None = None) -> str:
    """Render a result as a JSON line.

    Ideals become {"ring": {...}, "generators": [...]} with canonical
    polynomial strings; integer matrices become string entries (exact
    at any size); scalars and lists are wrapped under ``key``.
    """
    if isinstance(result, LikelihoodIdeal):
        result = result.ideal()
    if isinstance(result, Ideal):
        payload = {
            "ring": {
                "variables": list(result.ring.variables),
                "order": result.ring.order.name,
            },
            "generators": [print_polynomial(g) for g in result.generators],
        }
    elif isinstance(result, IntMatrix):
        payload = {
            "matrix": [
                [str(result[i, j]) for j in range(result.ncols)]
                for i in range(result.nrows)
            ]
        }
    elif isinstance(result, Fraction):
        payload = {key: str(result)}
    elif isinstance(result, (int, list)):
        payload = {key: result}
    else:
        raise TypeError(f"cannot emit {type(result).__name__} as JSON")
    return json.dumps(payload) + "\n"


def _format_result(result, fmt: str, key: str | None = None) -> str:
    if fmt == "json":
        return emit_json(result, key)
    if isinstance(result, LikelihoodIdeal):
        result = result.ideal()
    if isinstance(result, Ideal):
        return format_ideal(result)
    if isinstance(result, IntMatrix):
        return format_int_matrix(result)
    if isinstance(result, list):
        return " ".join(str(v) for v in result) + "\n"
    return f"{result}\n"


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = map(int, text.split(":"))
    except ValueError:
        raise InputError(f"range must look like LO:HI with integer bounds, got {text!r}") from None
    return lo, hi


def _parse_blocks(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise InputError(f"blocks must be comma-separated integers, got {text!r}") from None


# ---------------------------------------------------------------------------
# subcommands


def _cmd_compute_lc(args) -> str:
    parsed = _as_model_input(_gather_input(args, ("ideal", "matrix", "model")))
    lc = compute_lc(parsed, saturate_singular=args.saturate_singular)
    return _format_result(lc, args.format)


def _cmd_ml_degree(args) -> str:
    parsed = _as_model_input(_gather_input(args, ("ideal", "matrix", "model")))
    value = ml_degree(parsed, trials=args.trials, seed=args.seed, u_range=_parse_range(args.range))
    return _format_result(value, args.format, "ml_degree")


def _cmd_toric_ideal(args) -> str:
    parsed = _as_model_input(_gather_input(args, ("matrix", "model")))
    if isinstance(parsed, Ideal):
        raise InputError("toric-ideal wants a matrix or model input, not an ideal")
    return _format_result(toric_ideal(parsed), args.format)


def _cmd_toric_polytope(args) -> str:
    parsed = _gather_input(args, ("ideal",))
    if not isinstance(parsed, Ideal):
        raise InputError("toric-polytope wants an ideal input")
    return _format_result(toric_polytope(parsed), args.format)


def _cmd_loglinear_matrix(args) -> str:
    parsed = _gather_input(args, ("model",))
    if not isinstance(parsed, (ModelGraph, tuple)):
        raise InputError("loglinear-matrix wants a model JSON input")
    # a log-linear matrix has the ones vector in its row span, so
    # toric_model keeps it as it is
    return _format_result(toric_model(_as_model_input(parsed)).matrix, args.format)


def _cmd_scroll(args) -> str:
    return _format_result(rational_normal_scroll(_parse_blocks(args.blocks)), args.format)


def _cmd_groebner(args) -> str:
    parsed = _gather_input(args, ("ideal",))
    if not isinstance(parsed, Ideal):
        raise InputError("groebner wants an ideal input")
    if args.order is not None:
        order = LEX if args.order == "lex" else GREVLEX
        ring = PolyRing(parsed.ring.variables, order)
        parsed = Ideal(ring, [map_to_ring(g, ring) for g in parsed.generators])
    gb = parsed.groebner()
    return _format_result(Ideal(parsed.ring, list(gb.basis)), args.format)


def _cmd_drv(args) -> str:
    pmf = args.pmf.split(",") if args.pmf is not None else None
    variable = DiscreteRandomVariable(args.arity, pmf)
    if args.action == "states":
        return _format_result(variable.states(), args.format, "states")
    if args.action == "mean":
        return _format_result(variable.mean(), args.format, "mean")
    if args.n is None:
        raise InputError("drv sample needs --n")
    return _format_result(variable.sample(args.n, args.seed), args.format, "sample")


_COMMANDS = {
    "compute-lc": _cmd_compute_lc,
    "ml-degree": _cmd_ml_degree,
    "toric-ideal": _cmd_toric_ideal,
    "toric-polytope": _cmd_toric_polytope,
    "loglinear-matrix": _cmd_loglinear_matrix,
    "scroll": _cmd_scroll,
    "groebner": _cmd_groebner,
    "drv": _cmd_drv,
}


class _UsageError(Exception):
    pass


class _CliParser(argparse.ArgumentParser):
    """argparse reserves exit code 2; here that belongs to guardrails."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _add_common(parser, slots, positional=True):
    if positional:
        parser.add_argument(
            "source",
            nargs="?",
            metavar="FILE",
            help="input file; the kind is inferred from its extension",
        )
    for slot in slots:
        parser.add_argument(f"--{slot}", metavar="SRC", help=f"read the {slot} from SRC")
    if slots:
        parser.add_argument(
            "--inline",
            action="store_true",
            help="treat SRC as literal content; ';' separates lines",
        )
    parser.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(
        prog="algstat",
        description="likelihood correspondences of discrete statistical models",
    )
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    p = sub.add_parser("compute-lc", help="likelihood correspondence ideal of a model")
    _add_common(p, ("ideal", "matrix", "model"))
    p.add_argument(
        "--saturate-singular",
        action="store_true",
        help="also saturate the model ideal at its Jacobian's codimension-sized "
        "minors, dropping its components inside that locus (ideal input only)",
    )

    p = sub.add_parser("ml-degree", help="maximum-likelihood degree of a model")
    _add_common(p, ("ideal", "matrix", "model"))
    p.add_argument(
        "--trials",
        type=int,
        default=3,
        help="most random data vectors to count over; the vote stops as soon as "
        "its most common count is decided (default 3)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--range", default="1:1000", metavar="LO:HI")

    p = sub.add_parser("toric-ideal", help="vanishing ideal of a monomial parametrization")
    _add_common(p, ("matrix", "model"))

    p = sub.add_parser("toric-polytope", help="lattice of exponent differences of a binomial ideal")
    _add_common(p, ("ideal",))

    p = sub.add_parser("loglinear-matrix", help="design matrix of a log-linear model")
    _add_common(p, ("model",))

    p = sub.add_parser("scroll", help="rational normal scroll matrix")
    p.add_argument("--blocks", required=True, metavar="A,B,...")
    _add_common(p, (), positional=False)

    p = sub.add_parser("groebner", help="reduced Groebner basis of an ideal")
    _add_common(p, ("ideal",))
    p.add_argument("--order", choices=("lex", "grevlex"))

    p = sub.add_parser("drv", help="discrete random variable utilities")
    p.add_argument("action", choices=("states", "mean", "sample"))
    p.add_argument("--arity", type=int, required=True)
    p.add_argument("--pmf", metavar="P1,P2,...", help="probabilities (default uniform)")
    p.add_argument("--n", type=int, help="sample size")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p, (), positional=False)

    return parser


# One parser serves every run in a process.  parse_args keeps no state
# between calls, and usage, help and errors go to the sys.stdout or
# sys.stderr current at the call.
_parser = functools.cache(build_parser)


def run(argv) -> int:
    """Parse argv, run the one computation, print, return the exit code."""
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return exc.code if isinstance(exc.code, int) else 0
    try:
        text = _COMMANDS[args.command](args)
    except GuardrailError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
