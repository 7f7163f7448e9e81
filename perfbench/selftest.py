"""Self-test of the benchmark's tracing and seeding.

    python3 perfbench/selftest.py

It checks that

* the tracer replaces every binding of every wrapped function in every
  algstat module, and the wrapped method on its class, and that
  uninstalling puts every original back;
* on the conic's toric correspondence the spans nest as
  saturate_by_product -> saturate -> eliminate -> buchberger;
* over a traced pass of every workload the span tree is sound, every job
  enters the library through a wrapped function, and the self times add
  up to the traced pass;
* two workload seeds give different job orders and ``ml-degree`` seeds,
  but the same checked outputs.

It takes about a minute, and exits 0 when every check holds.
"""

from __future__ import annotations

import sys
import time

import run

run.import_algstat()

import algstat  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

LISTED_WORKLOADS = ("toric-lc", "lagrange-lc", "ml-degree")


def bindings():
    """Every name bound in an algstat module, and the methods of Polynomial."""
    out = {(m.__name__, k): v for m in spans.algstat_modules() for k, v in vars(m).items()}
    out.update({("Polynomial", k): v for k, v in vars(algstat.Polynomial).items()})
    return out


def check_patching():
    before = bindings()
    originals = {}
    for name, modname, attr, _ in spans.TARGETS:
        owner = sys.modules[modname]
        if "." in attr:
            cls, meth = attr.split(".")
            originals[name] = vars(getattr(owner, cls))[meth]
        else:
            originals[name] = getattr(owner, attr)
    tracer = spans.Tracer()
    with tracer.installed():
        during = bindings()
        for name, original in originals.items():
            left = [key for key, v in during.items() if v is original]
            assert not left, f"{name} still bound unwrapped at {left}"
            wrapped = [key for key, v in during.items()
                       if getattr(v, "__wrapped__", None) is original]
            assert wrapped, f"{name} is not wrapped anywhere"
        sat = [key for key, v in during.items()
               if getattr(v, "__wrapped__", None) is originals["groebner.saturate"]]
        assert {m for m, _ in sat} >= {"algstat", "algstat.groebner", "algstat.likelihood"}, sat
    after = bindings()
    assert after.keys() == before.keys(), "uninstall changed the set of names"
    changed = [key for key in before if after[key] is not before[key]]
    assert not changed, f"uninstall left {changed} patched"


def check_nesting():
    tracer = spans.Tracer()
    conic = workloads.matrix(workloads.CORPUS["conic"])
    with tracer.installed(), tracer.job("conic"):
        algstat.compute_lc_toric(conic, "full")
    names = [s[3] for s in tracer.spans]
    want = ["groebner.buchberger", "groebner.eliminate", "groebner.saturate",
            "groebner.saturate_by_product", "likelihood.compute_lc_toric"]
    for rec in tracer.spans:
        chain, sid = [], rec[0]
        while sid is not None and len(chain) < len(want):
            chain.append(names[sid])
            sid = tracer.spans[sid][1]
        if chain == want:
            return
    raise AssertionError("no buchberger span nests under eliminate, saturate, saturate_by_product")


def checked_outputs(workload, seed, tracer=None):
    """Run one pass; return the jobs' checked outputs and the pass time."""
    outputs = {}
    total = 0.0
    for job in workloads.build(workload, seed):
        args = job.prepare()
        t0 = time.perf_counter()
        if tracer is None:
            result = job.run(args)
        else:
            with tracer.job(job.name):
                result = job.run(args)
        total += time.perf_counter() - t0
        error = job.check(result)
        assert error is None, f"{workload}: {job.name}: {error}"
        outputs[job.name] = result[1] if isinstance(result, tuple) else workloads.lc_digest(result)
    return outputs, total


def check_workload(workload):
    tracer = spans.Tracer()
    with tracer.installed():
        traced, traced_s = checked_outputs(workload, 1, tracer)
    faults = tracer.check()
    assert not faults, faults
    self_s = sum(tracer.self_ns()) / 1e9
    assert abs(self_s - traced_s) <= 0.01 * traced_s + 0.001, (self_s, traced_s)

    one = workloads.build(workload, 1)
    two = workloads.build(workload, 2)
    assert [j.name for j in one] != [j.name for j in two], "seed does not change the job order"
    if workload == "ml-degree":
        argv_one = {j.name: j.prepare() for j in one}
        argv_two = {j.name: j.prepare() for j in two}
        assert all(argv_one[k] != argv_two[k] for k in argv_one), "seed does not set --seed"
    plain, _ = checked_outputs(workload, 2)
    assert plain == traced, "two seeds gave different checked outputs"
    print(f"selftest: {workload}: {len(traced)} jobs agree across seeds 1 and 2; "
          f"self times {self_s:.3f} s of a {traced_s:.3f} s traced pass")


def main() -> int:
    check_patching()
    print("selftest: every binding is wrapped, and restored after uninstall")
    check_nesting()
    print("selftest: saturate_by_product -> saturate -> eliminate -> buchberger")
    for workload in LISTED_WORKLOADS:
        check_workload(workload)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
