"""Run every workload, print all end-to-end metrics, and record a trajectory point.

    python3 perfbench/record.py --label NAME [--seed N] [--seconds S]

For each workload this runs ``run.py`` twice, each in its own process so
that peak RSS is per workload: once untraced for the end-to-end metrics and
once traced for the per-layer ones.  It prints one line per workload and
end-to-end metric (median, quartiles, unit) plus the failure rate, and
writes everything, with the environment, to
``perfbench/results/BENCH_<label>.json``.  Exits 1 if any run was not
correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from run import END_TO_END, ROOT, WORK
from workloads import WORKLOADS

RESULTS = Path(__file__).resolve().with_name("results")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        report_path = Path(tmp) / "report.json"
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
             "--report", str(report_path)],
            cwd=ROOT, capture_output=True, text=True, timeout=200,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"{workload} (trace {trace}) exited {proc.returncode}")
        return json.loads(report_path.read_text(encoding="utf-8"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args()

    point = {"label": args.label, "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    correct = True
    rows = []
    for name in WORKLOADS:
        untraced = run_once(name, args.seed, args.seconds, 0)
        traced = run_once(name, args.seed, args.seconds, 1)
        correct &= untraced["correct"] and traced["correct"]
        attempted = untraced["attempted"] + traced["attempted"]
        failed = untraced["failed"] + traced["failed"]
        point["workloads"][name] = {
            "env": untraced["env"],
            "item": untraced["item"],
            "items_per_invocation": untraced["items_per_invocation"],
            "end_to_end": untraced["end_to_end"],
            "fail_rate": failed / attempted,
            "attempted": attempted,
            "per_layer": traced["per_layer"],
            "self_split": traced["self_split"],
            "problems": untraced["problems"] + traced["problems"],
        }
        for metric, unit in END_TO_END.items():
            q = untraced["end_to_end"][metric]
            rows.append(f"{name:<22} {metric:<12} {q['median']:>12.6g} {unit:<8} "
                        f"q1 {q['q1']:.6g}  q3 {q['q3']:.6g}  n={q['n']}")
        rows.append(f"{name:<22} {'fail_rate':<12} {failed / attempted:>12.6g} {'fraction':<8} "
                    f"{failed} of {attempted} invocations")

    print("\n".join(rows))
    try:
        WORK.rmdir()
    except OSError:
        pass  # another run is still using it
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(point, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
