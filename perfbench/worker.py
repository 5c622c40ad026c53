"""One benchmark pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload lift-q2 --seed 1 --workdir DIR
        [--setup-only] [--trace] [--pass-id N] [--spans FILE]

The pass first times set-up (importing cdckit and building the field
contexts the workload uses), then runs the workload's stages, checks every
output against pinned values, and prints one JSON object as its last line:
stage times, derived metrics, check results, peak RSS and, when traced, the
per-layer metrics.  Stage times and the metrics made from them are scaled
to the reference host speed (hostspeed.py); ``raw_stages`` and ``probes``
keep the times as measured.  run.py starts it; it is not a command of its
own.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
import traceback

from tracing import Recorder, Tracer, install, summarize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

# Field contexts each workload builds first: GF(q) orders and (q, m)
# extension fields, as the workload's own calls first ask for them.
FIELDS = {
    "lift-q2": ((2,), ((2, 4),)),
    "lift-q4": ((4,), ((4, 3),)),
    "assembly": ((2,), ((2, 2), (2, 4), (2, 5), (2, 3))),
    "tables": ((2, 3), ()),
}

# Pinned outputs, frozen from the seed code.  File hashes are of the bytes
# write_cdc produces; they must repeat bit for bit on every run.
LIFT = {
    "lift-q2": dict(q=2, m=4, n=4, delta=2, shape=(8, 4, 4),
                    sha256="6c89c25f6b6b59ebbcb7e3c076b79d96"
                           "28d762cc9228262b56f535cf3d09d360"),
    "lift-q4": dict(q=4, m=3, n=3, delta=2, shape=(6, 3, 4),
                    sha256="239b3ed930a813b486f78401bd8fef9a"
                           "437758757cb667dc26392e61a7b2691a"),
}
LIFT_SIZE = 4096
DRAWS = 10_000
ASSEMBLY_SIZE = 4690
ASSEMBLY_SHA = ("a6c3fdd0b5a32bc798f507eade37a62f"
                "3f13dba38f9124bc14ffcaacdd480209")
MULTILEVEL = "11100000,00011100,10000011"
MULTILEVEL_SIZE = 1033
MULTILEVEL_SHA = ("a722822844a0a99f4a7892c65e5ba363"
                  "fe5d9dbe36a80d316c78d2dba7f940e3")
REGISTRY_ROWS = 65
CONSISTENT_ROWS = 53
CENSUS_Q = (2, 3, 4, 5, 7, 8, 9)
CENSUS_MAX = 8
OPTIMA = {(2, 4, 2, 4): 5, (3, 4, 2, 4): 10}


def pairs(M):
    return M * (M - 1) // 2


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Checks:
    def __init__(self):
        self.results = []

    def expect(self, name, got, want):
        self.results.append((name, got == want, repr(got), repr(want)))


def setup(workload, rec):
    """Import cdckit and build the workload's first field contexts."""
    qs, exts = FIELDS[workload]
    with rec.stage("setup"):
        import cdckit  # noqa: F401  (the import is what is timed)
        from cdckit import gf
        for q in qs:
            rec.call("gf.field_new", gf.field_new, q)
        for q, m in exts:
            rec.call("gf.ext_new", gf.ext_new, q, m)


def check_report(ck, label, rep, distance, covered):
    ck.expect(f"{label}.passed", rep.passed, True)
    ck.expect(f"{label}.min_distance", rep.min_distance_found, distance)
    ck.expect(f"{label}.pairs_checked", rep.pairs_checked, covered)


def run_lift(workload, rec, ck, seed, workdir):
    from cdckit import cli, rankmetric, verify
    p = LIFT[workload]
    path = os.path.join(workdir, f"{workload}.cdc")
    with rec.stage("build"):
        code = rankmetric.lift(rankmetric.gabidulin(p["q"], p["m"], p["n"],
                                                    p["delta"]))
    ck.expect("build.size", code.size, LIFT_SIZE)
    ck.expect("build.n_k_d", (code.n, code.k, code.d), p["shape"])
    with rec.stage("io"):
        cli.write_cdc(code, path)
        back = cli.read_cdc(path)
    ck.expect("io.sha256", sha256(path), p["sha256"])
    ck.expect("io.round_trip", set(back.members) == set(code.members), True)
    with rec.stage("check"):
        rep = verify.check_cdc(back, max_pairs=pairs(LIFT_SIZE))
    check_report(ck, "check", rep, 4, pairs(LIFT_SIZE))
    sample_seed = random.Random(seed).randrange(2 ** 31)
    with rec.stage("sample"):
        rep = verify.check_cdc(back, mode="sampled", seed=sample_seed,
                               pairs=DRAWS)
    check_report(ck, "sample", rep, 4, DRAWS)
    s = rec.stages
    return {"build_s": s["build"], "io_s": s["io"],
            "codewords_per_s": LIFT_SIZE / s["build"],
            "pairs_per_s": pairs(LIFT_SIZE) / s["check"],
            "draws_per_s": DRAWS / s["sample"]}


def run_assembly(rec, ck, seed, workdir):
    from cdckit import cdc, cli, ferrers, theorems, verify
    from cdckit.linalg import MatGF, Subspace
    q = 2
    fwv = cdc.IdVec.from_string("1100")
    ivv = cdc.IdVec.from_string("0011", kind="inverse")
    path = os.path.join(workdir, "assembly.cdc")
    ml_path = os.path.join(workdir, "multilevel.cdc")
    with rec.stage("build"):
        fw = cdc.CwcSet(vectors=(fwv,), min_hd=4)
        iv = cdc.CwcSet(vectors=(ivv,), min_hd=4)
        A = cdc.build_coset_cdc_lists(fw, 2, 1, q, build=True)
        B = cdc.build_coset_cdc_lists(fw, 2, 1, q, build=True)
        Ahat = cdc.build_coset_cdc_lists(iv, 2, 1, q, r=0, build=True)
        Bhat = cdc.build_coset_cdc_lists(iv, 2, 1, q, build=True)
        count = theorems.thm32_count(q, 4, 4, 4, 4, A, B, Ahat, Bhat,
                                     r_hat=0, u1_vectors=(fwv,),
                                     uhat2_vectors=(ivv,))
        U1 = cdc.Cdc(q=q, n=4, k=4, d=4,
                     members=(Subspace.from_matrix(MatGF.identity(q, 4)),))
        code = theorems.thm32_build(U1, U1, A, B, Ahat, Bhat, r_hat=0)
    ck.expect("build.size", code.size, ASSEMBLY_SIZE)
    ck.expect("build.count_equals_build", count, code.size)
    with rec.stage("io"):
        cli.write_cdc(code, path)
        back = cli.read_cdc(path)
    ck.expect("io.sha256", sha256(path), ASSEMBLY_SHA)
    ck.expect("io.round_trip", set(back.members) == set(code.members), True)
    with rec.stage("check"):
        rep = verify.check_cdc(back, max_pairs=pairs(ASSEMBLY_SIZE))
    check_report(ck, "check", rep, 4, pairs(ASSEMBLY_SIZE))
    out = io.StringIO()
    with rec.stage("cli"), contextlib.redirect_stdout(out):
        rc_build = cli.main(["build", "--multilevel", MULTILEVEL, "-q", "2",
                             "--delta", "2", "--out", ml_path])
        rc_check = cli.main(["check", "--in", ml_path])
    lines = out.getvalue().splitlines()
    ck.expect("cli.build_exit", rc_build, 0)
    ck.expect("cli.build_line", lines[0].split(" to ")[0],
              f"wrote {MULTILEVEL_SIZE} codewords")
    ck.expect("cli.sha256", sha256(ml_path), MULTILEVEL_SHA)
    ck.expect("cli.check_exit", rc_check, 0)
    ck.expect("cli.check_line", lines[1],
              f"PASS (8,{MULTILEVEL_SIZE},4,3)_2-CDC mode=exhaustive "
              f"min_distance=4 declared=4 pairs={pairs(MULTILEVEL_SIZE)} "
              f"violations=0")
    with rec.stage("audit"):
        codes = [ferrers.optimal_fdrmc(cdc.ferrers_of(cdc.IdVec.from_string(
                     s)).diagram, 2, q) for s in MULTILEVEL.split(",")]
        for v in (fwv, ivv):
            pair = ferrers.nested_pair(cdc.ferrers_of(v).diagram, 2, 1, q)
            codes += [pair.c1, pair.c2]
        reports = [verify.audit_fdrmc(c) for c in codes]
    for i, (c, rep) in enumerate(zip(codes, reports)):
        ck.expect(f"audit.{i}.passed", rep.passed, True)
        ck.expect(f"audit.{i}.dim_meets_bound", c.dim, rep.details["bound"])
    s = rec.stages
    return {"build_s": s["build"], "io_s": s["io"],
            "codewords_per_s": ASSEMBLY_SIZE / s["build"],
            "pairs_per_s": pairs(ASSEMBLY_SIZE) / s["check"]}


def run_tables(rec, ck, seed, workdir):
    from cdckit import rankmetric, theorems, verify
    from cdckit.linalg import gaussian_binomial
    rng = random.Random(seed)
    with rec.stage("io"):
        registry = theorems.load_registry()
    rows, order = registry
    order = list(order)
    rng.shuffle(order)
    ck.expect("rows.count", len(order), REGISTRY_ROWS)
    with rec.stage("rows"):
        bounds = [theorems.table11_bound(*key, registry=registry)
                  for key in order]
        report = theorems.consistency_report(registry)
    valid = sum(1 for key, res in zip(order, bounds)
                if res.value == rows[key][0] and res.value > rows[key][1])
    ck.expect("rows.valid", valid, REGISTRY_ROWS)
    ck.expect("rows.consistent", sum(1 for r in report if r["match"]),
              CONSISTENT_ROWS)
    grid = [(q, m, n) for q in CENSUS_Q for m in range(1, CENSUS_MAX + 1)
            for n in range(1, CENSUS_MAX + 1)]
    rng.shuffle(grid)
    with rec.stage("census"):
        totals = [(q, m, n, delta,
                   sum(rankmetric.rank_distribution(q, m, n, delta, r)
                       for r in range(min(m, n) + 1)))
                  for q, m, n in grid for delta in range(1, min(m, n) + 1)]
    bad = [t for t in totals
           if t[4] != t[0] ** (max(t[1], t[2]) * (min(t[1], t[2]) - t[3] + 1))]
    ck.expect("census.identities_failing", bad, [])
    queries = list(OPTIMA)
    rng.shuffle(queries)
    with rec.stage("check"):
        found = {key: verify.brute_force_optimum(*key) for key in queries}
    ck.expect("check.optima", found, OPTIMA)
    covered = sum(pairs(gaussian_binomial(n, k, q)) for q, n, k, _ in OPTIMA)
    s = rec.stages
    return {"build_s": s["rows"] + s["census"], "io_s": s["io"],
            "rows_per_s": REGISTRY_ROWS / s["rows"],
            "pairs_per_s": covered / s["check"]}


def run_pass(workload, rec, ck, seed, workdir):
    if workload in LIFT:
        return run_lift(workload, rec, ck, seed, workdir)
    if workload == "assembly":
        return run_assembly(rec, ck, seed, workdir)
    return run_tables(rec, ck, seed, workdir)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(FIELDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--pass-id", type=int, default=0)
    ap.add_argument("--spans", default=None,
                    help="write this traced pass's spans to FILE (jsonl)")
    args = ap.parse_args()
    rec = Tracer() if args.trace else Recorder()
    ck = Checks()
    setup(args.workload, rec)
    out = {"setup_s": rec.stages["setup"], "setup_raw_s": rec.raw["setup"]}
    if not args.setup_only:
        import cdckit
        out["cdckit"] = cdckit.__version__
        if args.trace:
            install(rec)
        try:
            metrics = run_pass(args.workload, rec, ck, args.seed,
                               args.workdir)
        except Exception:  # a raising library call is a failed output
            traceback.print_exc()
            ck.expect("pass.completed", False, True)
            metrics = {}
        else:
            metrics["wall_s"] = sum(v for k, v in rec.stages.items()
                                    if k != "setup")
        out["metrics"] = metrics
        out["stages"] = rec.stages
        out["raw_stages"] = rec.raw
        if args.trace:
            out["layers"], out["tables"] = summarize(rec.spans, rec.counts)
            if args.spans:
                with open(args.spans, "w") as fh:
                    for sid, (name, parent, t0, t1) in enumerate(rec.spans):
                        fh.write(json.dumps({"pass": args.pass_id,
                                             "id": sid, "parent": parent,
                                             "name": name, "start": t0,
                                             "end": t1}) + "\n")
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    out["probes"] = rec.probes
    out["checks"] = ck.results
    print(json.dumps(out))


if __name__ == "__main__":
    main()
