"""Check the benchmark's reference correspondences with sympy, an independent engine.

    python3 perfbench/crosscheck_sympy.py [--timeout 60] [KEY ...]

For each key of ``references.json["lc"]`` (all of them by default) it
computes the likelihood correspondence with sympy alone and compares
its reduced grevlex basis with algstat's, whose digest must be the
reference.  sympy starts from the definitions, not from algstat:

* a toric model's ideal is the kernel of its monomial map, by
  eliminating the torus parameters;
* its correspondence is that ideal plus the 2x2 minors of A*[p u],
  saturated at sum(p) and each p_i ("full") or at sum(p) ("hyperplane");
* the scaled conic uses the augmented-Jacobian formulation of
  Hosten-Khetan-Sturmfels: the ideal plus the 3x3 minors of the rows
  u, p and p_i*df/dp_i, saturated at sum(p) and each p_i.  With
  ``/singular`` it also saturates at each 1x1 Jacobian minor; the key is
  confirmed only when each of those saturations leaves the ideal as it is.

Each saturation is one elimination of t from I + (t*f - 1) in a product
order.  Every key runs in a child process with a time limit and prints
one line: confirmed, differs or timeout.
"""

from __future__ import annotations

import argparse
import itertools
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def _sympy_basis(gens, variables):
    from sympy import groebner

    return {g.monic().as_expr() for g in groebner(gens, *variables, order="grevlex").polys}


def _saturate(gens, f, variables):
    from sympy import Symbol, groebner
    from sympy.polys.orderings import ProductOrder, grevlex, lex

    t = Symbol("t_sat")
    order = ProductOrder((lex, lambda m: m[:1]), (grevlex, lambda m: m[1:]))
    basis = groebner(list(gens) + [t * f - 1], t, *variables, order=order)
    return [g for g in basis.exprs if t not in g.free_symbols]


def _toric_ideal(a, p):
    from sympy import Mul, groebner, symbols
    from sympy.polys.orderings import ProductOrder, grevlex

    s = symbols(f"s_0:{a.nrows}")
    param = [p[j] - Mul(*(s[i] ** a[i, j] for i in range(a.nrows))) for j in range(a.ncols)]
    k = len(s)
    order = ProductOrder((grevlex, lambda m: m[:k]), (grevlex, lambda m: m[k:]))
    basis = groebner(param, *s, *p, order=order)
    return [g for g in basis.exprs if not set(s) & g.free_symbols]


def _minors(rows, k):
    from sympy import Matrix

    m = Matrix(rows)
    out = []
    for r in itertools.combinations(range(m.rows), k):
        for c in itertools.combinations(range(m.cols), k):
            d = m.extract(list(r), list(c)).det().expand()
            if d != 0:
                out.append(d)
    return out


def _model(key):
    """The model behind a reference key: ("toric", IntMatrix) or ("ideal", Ideal)."""
    import algstat
    import workloads

    name = key.split("/")[0]
    if name in workloads.CORPUS:
        return "toric", workloads.matrix(workloads.CORPUS[name])
    if name == "scroll-2-2-3":
        return "toric", algstat.rational_normal_scroll(workloads.SCROLL)
    if name in workloads.INDEPENDENCE:
        graph = workloads._independence_graph(workloads.INDEPENDENCE[name])
        return "toric", algstat.toric_model(graph).matrix
    return "ideal", algstat.parse_ideal_text(workloads.SCALED_CONIC)


def check_one(key) -> str:
    import algstat
    import workloads
    from sympy import Poly, Symbol, diff, sympify

    expected = workloads.load_references()["lc"][key]
    kind, model = _model(key)
    if kind == "toric":
        lc = algstat.compute_lc_toric(model, key.split("/")[1])
    else:
        lc = algstat.compute_lc_general(model, key.endswith("/singular"))
    if workloads.lc_digest(lc) != expected["sha256"]:
        return "algstat output does not match the reference"

    names = lc.ring.variables
    sym = {n: Symbol(n) for n in names}
    n1 = len(names) // 2
    p = [sym[n] for n in names[:n1]]
    u = [sym[n] for n in names[n1:]]
    if kind == "toric":
        a = model
        gens = _toric_ideal(a, p)
        ap = [sum(a[i, j] * p[j] for j in range(a.ncols)) for i in range(a.nrows)]
        au = [sum(a[i, j] * u[j] for j in range(a.ncols)) for i in range(a.nrows)]
        gens += _minors([[x, y] for x, y in zip(ap, au)], 2)
        factors = [sum(p)] + (p if key.endswith("/full") else [])
    else:
        f = [sympify(algstat.print_polynomial(g).replace("^", "**"), locals=sym)
             for g in model.generators]
        rows = [u, p] + [[pi * diff(fj, pi) for pi in p] for fj in f]
        gens = f + _minors(rows, len(f) + 2)
        factors = [sum(p)] + p
    for factor in factors:
        gens = _saturate(gens, factor, p + u)
    basis = _sympy_basis(gens, p + u)
    if key.endswith("/singular"):
        for g in f:
            for pi in p:
                minor = diff(g, pi)
                if minor != 0 and _sympy_basis(_saturate(gens, minor, p + u), p + u) != basis:
                    return "not attempted: a Jacobian saturation changes the ideal"
    ours = {Poly(sympify(algstat.print_polynomial(g).replace("^", "**"), locals=sym), *p, *u)
            .monic().as_expr() for g in lc.generators}
    return "confirmed" if ours == basis else "differs"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("keys", nargs="*")
    parser.add_argument("--timeout", type=float, default=60)
    parser.add_argument("--one", help=argparse.SUPPRESS)
    args = parser.parse_args()
    run.import_algstat()
    if args.one:
        print(check_one(args.one))
        return 0
    import workloads

    keys = args.keys or list(workloads.load_references()["lc"])
    for key in keys:
        cmd = [sys.executable, str(HERE / "crosscheck_sympy.py"), "--one", key]
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=args.timeout)
            verdict = done.stdout.strip() or done.stderr.strip().splitlines()[-1]
        except subprocess.TimeoutExpired:
            verdict = f"timeout after {args.timeout:g} s"
        print(f"{key}: {verdict}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
