"""Benchmark gwshot end to end through its command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--report PATH]

Runs the workload's gwshot command in a fresh interpreter again and again,
with the same inputs (made from --seed) each time, for about S seconds;
every invocation's outputs are checked and must be byte-identical.  One
interpreter that only sets up (import and parse) warms the file cache
first; when invocations are too long for the run to hold several, a few
more such interpreters make set-up time a median of at least five samples.
The last line of standard output is one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, medians over the
invocations.  With --trace 1 two of every three invocations run with spans
around gwshot's public functions (see spans.py) and the metrics are the
per-layer ones; the untraced third gives the tracing overhead.  A summary
with quartiles and the environment goes to standard error, and --report
writes it as JSON.

Must be run from a checkout that holds ``src/gwshot``; it writes only
under ``.perfbench_work/`` there and removes what it wrote.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, OutputError, Workload

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().with_name("child.py")
WORK = ROOT / ".perfbench_work"

# A run must end within 180 s; no invocation starts that could end after this.
RUN_LIMIT_S = 165.0
MIN_REPEATS = {False: 2, True: 3}  # untraced: two, to compare outputs; traced: U, T, T
SETUP_SAMPLES = 5  # set-up times an untraced run collects at least

END_TO_END = {"wall_s": "s", "setup_s": "s", "items_per_s": "items/s", "peak_rss_mb": "MB"}

# gwi.run_coupled milliseconds per replicate at n=800 in ROADMAP.md's baseline
# (33 ms for the cohort matrix plus 6 ms for the fold).
ROADMAP_RUN_COUPLED_MS = {"simulate-critical": 39.0}


@dataclass
class Invocation:
    mode: str  # "setup", "run" or "trace", as in child.py
    wall_s: float
    setup_s: float | None = None
    main_s: float | None = None
    layers: dict | None = None
    versions: dict | None = None
    digest: str | None = None
    error: str | None = None


def _digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode())
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def invoke(w: Workload, seed: int, work: Path, mode: str, timeout: float) -> Invocation:
    """One gwshot invocation; its outputs are checked and then removed."""
    config_path = work / "config.json"
    out_dir = work / "out"
    out_dir.mkdir()
    result_path = work / "child.json"
    cmd = [
        sys.executable, str(CHILD), str(result_path), str(SRC), mode,
        "--", *w.argv(config_path, seed, out_dir / "run"),
    ]
    env = dict(os.environ, TMPDIR=str(work))
    stdout, stderr = work / "stdout.txt", work / "stderr.txt"
    try:
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            spawn = time.monotonic()
            try:
                proc = subprocess.run(cmd, stdout=out, stderr=err, cwd=work, env=env, timeout=timeout)
            except subprocess.TimeoutExpired:
                return Invocation(mode, time.monotonic() - spawn, error=f"timed out after {timeout:.0f} s")
            wall = time.monotonic() - spawn
        inv = Invocation(mode, wall)
        errors = stderr.read_text(encoding="utf-8", errors="replace")
        if proc.returncode != 0 or "Traceback" in errors:
            inv.error = f"exit {proc.returncode}: {errors.strip()[-400:]}"
            return inv
        result = json.loads(result_path.read_text(encoding="utf-8"))
        inv.setup_s = result["setup_end"] - spawn
        if mode == "setup":
            return inv
        inv.main_s = result["main_s"]
        inv.layers = result["layers"]
        inv.versions = result["versions"]
        try:
            w.check(w, out_dir / "run")
        except (OutputError, ValueError, KeyError) as exc:
            inv.error = f"output check failed: {exc}"
            return inv
        inv.digest = _digest(sorted(out_dir.iterdir()))
        return inv
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        for path in (result_path, stdout, stderr):
            path.unlink(missing_ok=True)


def import_times() -> dict[str, float]:
    """Cumulative import seconds of gwshot.cli and of the scipy modules under it."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import gwshot.cli"
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code],
        capture_output=True, text=True, timeout=60, check=True,
    )
    # Lines are in post-order: "import time: self | cumulative | <indent>name".
    stack: list[tuple[int, float]] = []  # (depth, scipy seconds in that subtree)
    gwshot_s = 0.0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the column header
        depth = (len(name) - len(name.lstrip())) // 2
        name, cum_s = name.strip(), int(cumulative) / 1e6
        below = 0.0
        while stack and stack[-1][0] > depth:
            below += stack.pop()[1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        stack.append((depth, cum_s if is_scipy else below))
        if name == "gwshot.cli":
            gwshot_s = cum_s
    return {"scipy_s": sum(s for _, s in stack), "gwshot_s": gwshot_s}


def _quartiles(values: list[float]) -> dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(w: Workload, runs: list[Invocation], setups: list[Invocation]) -> dict[str, dict]:
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {
        "wall_s": _quartiles([r.wall_s for r in runs]),
        "setup_s": _quartiles([r.setup_s for r in setups + runs]),
        "items_per_s": _quartiles([w.items / r.main_s for r in runs]),
        "peak_rss_mb": _quartiles([peak_mb]),
    }


# Per-layer metrics: name -> (unit, layer, field).  Counts come from the
# work counters in spans.py and must repeat exactly for a fixed seed.
PER_LAYER = {
    "immigration.calls": ("count", "immigration", "calls"),
    "immigration.busy_s": ("s", "immigration", "busy_s"),
    "offspring.calls": ("count", "offspring", "calls"),
    "offspring.cohort_steps": ("count", "offspring", "work"),
    "offspring.busy_s": ("s", "offspring", "busy_s"),
    "gwi.run_coupled.calls": ("count", "gwi.run_coupled", "calls"),
    "gwi.run_coupled.busy_s": ("s", "gwi.run_coupled", "busy_s"),
    "gwi.run_coupled.self_s": ("s", "gwi.run_coupled", "self_s"),
    "gwi.run_coupled.p50_ms": ("ms", "gwi.run_coupled", "p50_ms"),
    "gwi.run_coupled.p95_ms": ("ms", "gwi.run_coupled", "p95_ms"),
    "gwi.normalized_observable.busy_s": ("s", "gwi.normalized_observable", "busy_s"),
    "limit.sample_shot_noise_marginal.busy_s": ("s", "limit.sample_shot_noise_marginal", "busy_s"),
    "limit.sample_shot_noise_marginal.samples": ("count", "limit.sample_shot_noise_marginal", "work"),
    "limit.sample_atoms.busy_s": ("s", "limit.sample_atoms", "busy_s"),
    "limit.sample_atoms.atoms": ("count", "limit.sample_atoms", "work"),
    "limit.shot_noise_path.busy_s": ("s", "limit.shot_noise_path", "busy_s"),
    "limit.shot_noise_path.breakpoints": ("count", "limit.shot_noise_path", "work"),
    "stats.ks_distance.busy_s": ("s", "stats.ks_distance", "busy_s"),
    "stats.ks_distance.points": ("count", "stats.ks_distance", "work"),
    "checks.run_check.self_s": ("s", "checks.run_check", "self_s"),
    "cli.write.busy_s": ("s", "cli.write", "busy_s"),
    "cli.write.bytes": ("bytes", "cli.write", "work"),
    "cli.self_s": ("s", "cli.main", "self_s"),
    "cli.main_s": ("s", "cli.main", "busy_s"),
}
DERIVED_UNITS = {
    "offspring.us_per_call": "us",
    "setup.import.scipy_s": "s",
    "setup.import.gwshot_s": "s",
    "trace.overhead_s": "s",
}
PER_LAYER_UNITS = {name: unit for name, (unit, _, _) in PER_LAYER.items()} | DERIVED_UNITS


def per_layer(traced: list[Invocation], untraced: list[Invocation], imports: dict) -> tuple[dict, dict, list[str]]:
    """Per-layer medians over the traced invocations, the self-time split of
    the median traced invocation, and any inconsistencies.

    Within each traced invocation the layers' self times must add up to
    the time of cli.main, since every span lies inside it.
    """
    problems = []
    values: dict[str, float] = {}
    for name, (unit, layer, field) in PER_LAYER.items():
        samples = [r.layers[layer][field] for r in traced]
        if unit not in ("count", "bytes"):
            values[name] = statistics.median(samples)
            continue
        if len(set(samples)) > 1:
            problems.append(f"{name} differs between runs of one seed: {samples}")
        values[name] = samples[0]
    for r in traced:
        self_sum = sum(layer["self_s"] for layer in r.layers.values())
        if abs(self_sum - r.layers["cli.main"]["busy_s"]) > 1e-6:
            problems.append(f"layer self times sum to {self_sum}, cli.main took {r.layers['cli.main']['busy_s']}")
    calls = values["offspring.calls"]
    values["offspring.us_per_call"] = values["offspring.busy_s"] / calls * 1e6 if calls else 0.0
    values["setup.import.scipy_s"] = imports["scipy_s"]
    values["setup.import.gwshot_s"] = imports["gwshot_s"]
    values["trace.overhead_s"] = (
        statistics.median(r.main_s for r in traced) - statistics.median(r.main_s for r in untraced)
    )
    middle = sorted(traced, key=lambda r: r.layers["cli.main"]["busy_s"])[(len(traced) - 1) // 2]
    split = {
        "cli.main_s": middle.layers["cli.main"]["busy_s"],
        "self_s": {layer: stats["self_s"] for layer, stats in middle.layers.items()},
    }
    return values, split, problems


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    """Read-only facts about the machine and the code; versions come from a child."""
    return {
        "commit": _commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "load_1min": os.getloadavg()[0],
        "seed": seed,
    }


def measure(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    env = environment(seed)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        (work / "config.json").write_text(json.dumps(w.config), encoding="utf-8")
        setups = [invoke(w, seed, work, "setup", timeout=30)]
        runs: list[Invocation] = []
        while True:
            elapsed = time.monotonic() - start
            longest = max((r.wall_s for r in runs), default=0.0)
            # Once the minimum is met, start an invocation only if it should
            # end within half an invocation of --seconds, so that a run lasts
            # about --seconds; never start one that could end past the limit.
            typical = statistics.median(r.wall_s for r in runs) if runs else 0.0
            if len(runs) >= MIN_REPEATS[trace] and elapsed + typical / 2 > seconds:
                break
            if runs and elapsed + longest > RUN_LIMIT_S:
                break
            mode = "trace" if trace and len(runs) % 3 else "run"
            runs.append(invoke(w, seed, work, mode, timeout=RUN_LIMIT_S - elapsed))
            if len(runs) == 1 and not trace:
                # Every invocation also gives a set-up time; top up with
                # set-up-only interpreters only what the run will lack.
                expected = 1 + int((seconds - (time.monotonic() - start)) / runs[0].wall_s)
                missing = SETUP_SAMPLES - len(setups) - expected
                setups += [invoke(w, seed, work, "setup", timeout=30) for _ in range(missing)]
        imports = import_times() if trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it

    ok = [r for r in runs if r.error is None]
    problems = [f"{r.mode} invocation {i}: {r.error}" for i, r in enumerate(setups + runs) if r.error]
    if len({r.digest for r in ok}) > 1:
        problems.append("outputs differ between invocations with the same seed")
    untraced = [r for r in ok if r.mode == "run"]
    traced = [r for r in ok if r.mode == "trace"]
    report = {
        "workload": w.name,
        "item": w.item,
        "items_per_invocation": w.items,
        "seconds": seconds,
        "trace": trace,
        "attempted": len(setups) + len(runs),
        "failed": sum(r.error is not None for r in setups + runs),
        "env": env | (ok[0].versions if ok else {}),
        "end_to_end": end_to_end(w, untraced, [r for r in setups if r.error is None]) if untraced else None,
        "per_layer": None,
        "self_split": None,
    }
    report["fail_rate"] = report["failed"] / report["attempted"]
    if trace and traced and untraced:
        report["per_layer"], report["self_split"], layer_problems = per_layer(traced, untraced, imports)
        problems += layer_problems
    report["problems"] = problems
    report["correct"] = not problems and bool(untraced) and (bool(traced) or not trace)
    return report


def _summary(report: dict) -> str:
    lines = [f"workload {report['workload']}: {report['attempted']} invocations, "
             f"{report['failed']} failed (fail_rate {report['fail_rate']:.3f})",
             "env " + json.dumps(report["env"], sort_keys=True)]
    for name, q in (report["end_to_end"] or {}).items():
        lines.append(f"  {name:<14} median {q['median']:.6g} {END_TO_END[name]}  "
                     f"q1 {q['q1']:.6g}  q3 {q['q3']:.6g}  (n={q['n']})")
    layers = report["per_layer"]
    if layers:
        for name, value in layers.items():
            lines.append(f"  {name:<42} {value:.6g} {PER_LAYER_UNITS[name]}")
        split = report["self_split"]["self_s"]
        lines.append("  self time by layer in the median traced invocation: " + ", ".join(
            f"{name} {value:.4g} s" for name, value in split.items() if value))
        lines.append(f"  sum {sum(split.values()):.6g} s; cli.main took {report['self_split']['cli.main_s']:.6g} s")
        reference = ROADMAP_RUN_COUPLED_MS.get(report["workload"])
        if reference is not None and layers["gwi.run_coupled.calls"]:
            mean_ms = layers["gwi.run_coupled.busy_s"] / layers["gwi.run_coupled.calls"] * 1e3
            lines.append(f"  gwi.run_coupled per replicate: median {layers['gwi.run_coupled.p50_ms']:.1f} ms, "
                         f"mean {mean_ms:.1f} ms (ROADMAP.md baseline at n=800: ~{reference:.0f} ms)")
    lines += [f"  problem: {p}" for p in report["problems"]]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", type=Path, help="also write the full report here as JSON")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that subprocess.run kills the running
    # invocation and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "gwshot" / "cli.py").is_file():
        print(f"error: {SRC / 'gwshot'} not found; run from a gwshot checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    report = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(_summary(report), file=sys.stderr)
    if args.report:
        args.report.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if report["end_to_end"] is None:
        print("error: no invocation succeeded", file=sys.stderr)
        return 1
    if args.trace:
        layers = report["per_layer"] or {}
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": report["end_to_end"][name]["median"], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
