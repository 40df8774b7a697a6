"""Record the reference outputs that run.py checks units against at the default seed.

Run from the root of a checkout:

    python3 bench/record_expected.py

It runs the first units of every workload at the default seed and full size
and writes their checked fields to ``bench/expected.json``. Rerun it only for
a change that is meant to alter reported results, and say which fields moved.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

# Units recorded per workload: more than a 30-second run reaches on this box.
UNITS = {"nn20k-covariates": 8, "nn20k-mtaprob": 30, "exp-s3-n500": 80}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import units

    out = {"seed": run.DEFAULT_SEED, "units": {}}
    for name, count in UNITS.items():
        workdir = run.WORK / f"record-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            workload = units.Workload(name, run.DEFAULT_SEED, workdir)
            error = workload.prepare()
            if error:
                raise SystemExit(f"{name}: {error}")
            summaries = []
            for i in range(count):
                code, stdout = workload.call(i)
                error = workload.check(i, code, stdout)
                if error:
                    raise SystemExit(f"{name} unit {i}: {error}")
                summaries.append(workload.summary(i))
            out["units"][name] = summaries
            print(f"{name}: {count} units recorded")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    run.EXPECTED.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
