"""Fast self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and asserts
that the emitted metric names equal those in ``BENCHMARK.json`` and that
every check passes.  Then it hands each correctness check a deliberately
wrong reference value and asserts that this check, and only this one,
rejects the run.
"""

import json
import shutil
import sys

import run

SEED = 7
SECONDS = 0.01
TINY = {
    "tagged-grazing": {
        "paths": 6, "horizon": 0.02, "probe_particles": 40,
        "probe_picard_horizon": 0.002,
    },
    "picard-fixed-point": {
        "realizations": 6, "horizon": 0.2, "probe_particles": 40,
    },
    "mckean-vlasov": {
        "particles": 130, "particle_horizon": 0.1, "particle_dt": 0.05,
        "paths": 1, "horizon": 0.02, "probe_picard_horizon": 0.005,
        "warm_particles": 8,
    },
}
# Wrong reference values, as functions of the right ones.
WRONG = {
    "tagged-grazing": {
        "jumps": lambda ref: 10.0 * ref + 10.0,
        "z2": lambda ref: 10.0 * ref,
        "residual": lambda ref: ref + 1e3,
        "log_offset": lambda ref: ref + 1,
    },
    "picard-fixed-point": {
        "cap_offset": lambda ref: ref - 10**6,
        "jumps": lambda ref: 10.0 * ref + 10.0,
        "z2": lambda ref: 10.0 * ref,
    },
    "mckean-vlasov": {
        "momentum": lambda ref: ref + 1e-3,
        "energy": lambda ref: ref + 1e-3,
        "snapshot": lambda ref: ref + 1e-9,
        "moment": lambda ref: ref + 1e-6,
        "bound_scale": lambda ref: ref * 1e-6,
        "log_offset": lambda ref: ref + 1,
    },
}


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {
        kind: {m["name"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")
    }
    workloads = {w["name"] for w in spec["workloads"]}
    assert workloads == set(TINY), f"workloads {workloads} != {set(TINY)}"
    out_root = run.HERE / "out" / "selftest"
    try:
        for name in TINY:
            for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
                doc, workload = run.run_one(
                    name, SEED, SECONDS, trace, size=TINY[name], out_root=out_root
                )
                got = set(doc["metrics"])
                assert got == names[kind], f"{name} {kind}: {got ^ names[kind]}"
                assert doc["correct"] and doc["failed"] == 0, f"{name}: {doc}"
                assert doc["attempted"] >= 1
            refs = workload.references()
            assert set(refs) == set(WRONG[name]), f"{name}: untested references"
            for key, wrong in WRONG[name].items():
                bad = dict(refs, **{key: wrong(refs[key])})
                failing = {k for k, c in workload.checks(bad) if not c.ok}
                assert failing == {key}, f"{name}: wrong {key} failed {failing}"
            print(f"ok {name}: metric names match, {len(refs)} checks reject "
                  "a wrong reference")
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
