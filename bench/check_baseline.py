#!/usr/bin/env python3
"""Compare bench JSON output with the counters of bench/baseline.json.

    python3 bench/check_baseline.py --dslash bench_dslash.json --cg bench_cg.json

--dslash takes `bench_dslash --benchmark_format=json` output, --cg takes
`bench_cg --json` output.  Every compared field is
a deterministic simulated-instruction count (or an iteration count, or a
pass/fail gate), so it must equal the baseline exactly:

  bench_dslash  every counter of every baselined entry (insns/site,
                fcmla/site, perm/site, insns/apply); a baselined entry
                missing from the run is a failure.
  bench_cg      lattice, solver parameters, full_cg iterations, the
                schur_half_vs_padded instruction and iteration fields, and
                the boolean gates.

Not compared: wall_clock (machine-dependent), and floating-point results
such as true_residual and solution_delta (bench_cg gates those itself).
Exit code 0 iff nothing differs.
"""

import argparse
import json
import os
import sys

BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "baseline.json")

CG_SCHUR_FIELDS = ("padded_insns_per_iter", "half_insns_per_iter", "ratio",
                   "padded_iterations", "half_iterations")


def check_dslash(baseline, run):
    errors = []
    measured = {b["name"]: b for b in run["benchmarks"]}
    for entry in baseline["bench_dslash"]:
        name = entry["name"]
        if name not in measured:
            errors.append(f"bench_dslash {name}: missing from the run")
            continue
        for key, want in entry.items():
            got = measured[name].get(key)
            if key != "name" and got != want:
                errors.append(f"bench_dslash {name} {key}: {got} != baseline {want}")
    return errors


def check_cg(baseline, run):
    want_cg = baseline["bench_cg"]
    errors = []

    def expect(what, got, want):
        if got != want:
            errors.append(f"bench_cg {what}: {got} != baseline {want}")

    expect("lattice", run.get("lattice"), baseline["lattice"])
    for key in ("full_cg_params", "schur_params"):
        expect(key, run.get(key), want_cg[key])

    full = {(e["vl"], e["backend"]): e for e in run.get("full_cg", [])}
    for e in want_cg["full_cg"]:
        got = full.get((e["vl"], e["backend"]), {})
        expect(f"full_cg vl={e['vl']} {e['backend']} iterations", got.get("iterations"),
               e["iterations"])

    schur = {e["vl"]: e for e in run.get("schur_half_vs_padded", [])}
    for e in want_cg["schur_half_vs_padded"]:
        got = schur.get(e["vl"], {})
        for key in CG_SCHUR_FIELDS:
            expect(f"schur_half_vs_padded vl={e['vl']} {key}", got.get(key), e[key])

    for key, want in want_cg.items():
        if isinstance(want, bool):
            expect(key, run.get(key), want)
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dslash", required=True, help="bench_dslash --benchmark_format=json output")
    ap.add_argument("--cg", required=True, help="bench_cg --json output")
    args = ap.parse_args()

    with open(BASELINE) as f:
        baseline = json.load(f)
    with open(args.dslash) as f:
        errors = check_dslash(baseline, json.load(f))
    with open(args.cg) as f:
        errors += check_cg(baseline, json.load(f))
    for e in errors:
        print(f"FAIL {e}")
    print(f"check_baseline: {len(errors)} mismatch(es) against {BASELINE}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
