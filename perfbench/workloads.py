"""The benchmark's workloads: inputs, jobs and the check of every job's output.

A workload is a list of jobs.  Each job has three parts: ``prepare``
builds fresh input objects (untimed, so no cached Groebner basis is
reused between passes), ``run`` makes the one library or CLI call that
is timed, and ``check`` compares the result with ``references.json``
(untimed).  The workload seed fixes the job order, the generator order
of every ideal input (see ``_orders``) and the ``--seed`` of every
``ml-degree`` job; expected outputs do not depend on it.

Jobs look library functions up on the ``algstat`` package when they
run, not when they are built, so that the traced run's wrappers see
every call.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from pathlib import Path

import algstat

REFERENCES = Path(__file__).resolve().parent / "references.json"

# The acceptance-corpus matrices, rows separated by ';' as on the CLI.
CORPUS = {
    "segre-line": "1 1;0 1",
    "plane": "1 0 0;0 1 0;0 0 1",
    "conic": "1 1 1;0 1 2",
    "twisted-cubic": "1 1 1 1;0 1 2 3",
    "independence-2x2": "1 1 0 0;0 0 1 1;1 0 1 0;0 1 0 1",
    "binary-3-chain": (
        "1 1 0 0 0 0 0 0;0 0 1 1 0 0 0 0;0 0 0 0 1 1 0 0;0 0 0 0 0 0 1 1;"
        "1 0 0 0 1 0 0 0;0 1 0 0 0 1 0 0;0 0 1 0 0 0 1 0;0 0 0 1 0 0 0 1"
    ),
}
SCROLL = (2, 2, 3)
INDEPENDENCE = {"independence-2x3": (2, 3), "independence-3x3": (3, 3)}
SCALED_CONIC = "ring p_0..p_2\n4*p_0*p_2 - p_1^2\n"
SATURATIONS = ("full", "hyperplane")

# The Lagrange path on the twisted cubic takes about a minute, more than a
# whole measured run may last, so it has a workload of its own that is
# run by hand (see README.md) and is not listed in BENCHMARK.json.
LAGRANGE_SLOW = ("twisted-cubic",)

WORKLOADS = ("toric-lc", "lagrange-lc", "ml-degree", "lagrange-twisted-cubic")


class Job:
    __slots__ = ("name", "prepare", "run", "check", "counters")

    def __init__(self, name, prepare, run, check, counters=None):
        self.name = name
        self.prepare = prepare
        self.run = run
        self.check = check
        self.counters = counters


def matrix(text: str) -> algstat.IntMatrix:
    return algstat.parse_int_matrix(text.replace(";", "\n"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def lc_digest(lc) -> str:
    """Digest of the canonical text of a likelihood correspondence."""
    return digest(algstat.format_ideal(lc.ideal()))


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def _independence_graph(arities) -> algstat.ModelGraph:
    names = ("a", "b")
    return algstat.ModelGraph(
        [algstat.DiscreteRandomVariable(k, name=n) for n, k in zip(names, arities)]
    )


def _check_lc(expected: dict, mode: str):
    def check(lc):
        if lc.mode != mode:
            return f"mode {lc.mode!r}, expected {mode!r}"
        got = lc_digest(lc)
        if len(lc) != expected["gens"] or got != expected["sha256"]:
            return f"{len(lc)} generators with digest {got[:12]}, expected {expected['gens']}"
        return None

    return check


def _orders(name: str, gens, rng: random.Random) -> list[tuple[str, list]]:
    """Job names and generator orders for one ideal input: a seeded permutation and its reverse.

    The Lagrange construction pairs the j-th generator with the j-th
    multiplier, so its cost, though not its output, depends on the
    order: on the binary 3-chain the two orders differ by about a
    quarter in time and 8 MB in peak RSS.  Running both orders in every
    pass keeps that difference out of the spread between seeds.
    """
    gens = list(gens)
    rng.shuffle(gens)
    return [(name, gens), (f"{name}/reversed", gens[::-1])] if len(gens) > 1 else [(name, gens)]


def _corpus_toric_ideals(refs: dict) -> dict:
    """Toric ideals of the corpus, checked against their reference digests."""
    out = {}
    for name, rows in CORPUS.items():
        ideal = algstat.toric_ideal(matrix(rows))
        want = refs["toric_ideal"][name]
        if digest(algstat.format_ideal(ideal)) != want["sha256"]:
            raise RuntimeError(f"input generation: toric ideal of {name} does not match its reference")
        out[name] = ideal
    return out


def _toric_jobs(refs):
    models = {name: matrix(rows) for name, rows in CORPUS.items()}
    models["scroll-2-2-3"] = algstat.rational_normal_scroll(SCROLL)
    for name, arities in INDEPENDENCE.items():
        models[name] = _independence_graph(arities)
    jobs = []
    for name, model in models.items():
        for sat in SATURATIONS:
            jobs.append(Job(
                f"{name}/{sat}",
                lambda model=model: model,
                lambda model, sat=sat: algstat.compute_lc_toric(model, sat),
                _check_lc(refs["lc"][f"{name}/{sat}"], "toric"),
            ))
    return jobs


def _lagrange_jobs(refs, rng, names):
    ideals = _corpus_toric_ideals(refs)
    jobs = []
    for name in names:
        ring = ideals[name].ring
        for tag, gens in _orders(name, ideals[name].generators, rng):
            # both construction paths must give the same bytes
            jobs.append(Job(
                tag,
                lambda ring=ring, gens=gens: algstat.Ideal(ring, gens),
                lambda ideal: algstat.compute_lc_general(ideal),
                _check_lc(refs["lc"][f"{name}/full"], "lagrange"),
            ))
    return jobs


def _scaled_conic_jobs(refs):
    conic = algstat.parse_ideal_text(SCALED_CONIC)
    jobs = []
    for singular in (False, True):
        tag = "scaled-conic/singular" if singular else "scaled-conic"
        jobs.append(Job(
            tag,
            lambda: algstat.Ideal(conic.ring, conic.generators),
            lambda ideal, singular=singular: algstat.compute_lc_general(ideal, singular),
            _check_lc(refs["lc"][tag], "lagrange"),
        ))
    return jobs


def _run_cli(argv):
    """Run the CLI in process with stdout captured."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = algstat.run(argv)
    return code, buf.getvalue()


def _check_cli(expected: int):
    def check(result):
        code, out = result
        if code != 0 or out != f"{expected}\n":
            return f"exit {code}, printed {out.strip()!r}, expected {expected}"
        return None

    return check


def _ml_degree_jobs(refs, rng):
    ideals = _corpus_toric_ideals(refs)
    inputs = [(name, ["--matrix", rows]) for name, rows in CORPUS.items()]
    scroll = algstat.format_int_matrix(algstat.rational_normal_scroll(SCROLL))
    inputs.append(("scroll-2-2-3", ["--matrix", ";".join(scroll.splitlines())]))
    chain = algstat.format_ideal(ideals["binary-3-chain"])
    for name, text in (("scaled-conic-ideal", SCALED_CONIC), ("binary-3-chain-ideal", chain)):
        lines = text.splitlines()
        head = [line for line in lines if line.startswith(("ring", "order"))]
        for tag, body in _orders(name, lines[len(head):], rng):
            inputs.append((tag, ["--ideal", ";".join(head + body)]))
    jobs = []
    for tag, source in inputs:
        name = tag.removesuffix("/reversed")
        argv = ["ml-degree", *source, "--inline", "--seed", str(rng.randrange(2**31))]
        jobs.append(Job(
            tag,
            lambda argv=argv: argv,
            _run_cli,
            _check_cli(refs["ml_degree"][name]["value"]),
            lambda result: {"cli.stdout_bytes": len(result[1].encode())},
        ))
    return jobs


def build(workload: str, seed: int) -> list[Job]:
    """The jobs of one workload, in the order the seed gives them."""
    refs = load_references()
    rng = random.Random(seed)
    if workload == "toric-lc":
        jobs = _toric_jobs(refs)
    elif workload == "lagrange-lc":
        names = [n for n in CORPUS if n not in LAGRANGE_SLOW]
        jobs = _lagrange_jobs(refs, rng, names) + _scaled_conic_jobs(refs)
    elif workload == "ml-degree":
        jobs = _ml_degree_jobs(refs, rng)
    elif workload == "lagrange-twisted-cubic":
        jobs = _lagrange_jobs(refs, rng, LAGRANGE_SLOW)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng.shuffle(jobs)
    return jobs
