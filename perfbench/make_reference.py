"""Regenerate perfbench/reference.json, the stored loss histories.

For each workload, full and smoke size, and each of the INPUT_SETS
input sets, this runs set-up and one untraced trial and stores the
training losses followed by the held-out loss. Run it from the root
of a checkout:

    python3 perfbench/make_reference.py

Regenerate only when a change is meant to alter the losses, and say so
where the change is described.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    run.import_package()
    from tracer import NullTracer
    from workloads import INPUT_SETS, REFERENCE_PATH, SMOKE, WORKLOADS, \
        run_trial, setup

    work = run.ROOT / ".perfbench_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    reference = {"full": {}, "smoke": {}}
    try:
        for mode, table in (("smoke", SMOKE), ("full", WORKLOADS)):
            for name, w in table.items():
                entries = reference[mode][name] = {}
                for seed in range(INPUT_SETS):
                    base = work / f"{mode}-{name}-{seed}"
                    prep = setup(w, seed, str(base / "setup"))
                    trial = run_trial(w, prep, seed, str(base / "trial"),
                                      NullTracer())
                    entries[str(seed)] = trial.losses + [trial.heldout_loss]
                    shutil.rmtree(base)
                    print(mode, name, seed, entries[str(seed)][-1],
                          flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as f:
        json.dump(reference, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
