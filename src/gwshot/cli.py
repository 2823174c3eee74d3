"""Headless command-line front end.

Three subcommands: `simulate` runs replicated prelimit experiments and
writes normalized-path CSV plus a metadata sidecar, `limit-sample` draws
limit shot-noise paths, `verify` executes a registered statistical check
and writes its report.  Outputs are byte-stable for a fixed seed: CSV is
UTF-8 with LF endings and shortest-roundtrip floats, JSON is pretty-printed
with sorted keys.

Exit codes: 0 success, 2 usage/config error, 3 I/O error, 4 verification
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import secrets
import sys
import time
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import __version__, limit, streams
from .budgets import require_scale
from .checks import CHECK_NAMES, run_check
from .gwi import GwiRun, normalized_observable, run_replicates
from .immigration import ImmigrationLaw
from .offspring import OffspringFamily
from .gw import FluidConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_VERIFY = 4

class ConfigError(Exception):
    pass


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON config: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return int(args.seed) & ((1 << 64) - 1)
    if args.ci:
        raise ConfigError("--ci requires an explicit --seed")
    return secrets.randbits(63)


def _write_csv(path: Path, lines: Iterable[str], header: tuple[str, ...]) -> None:
    """Header, then the given text, whole lines each ending in LF."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)


def _write_json(path: Path, payload: dict, atoms: Sequence[tuple[np.ndarray, np.ndarray]] = ()) -> None:
    """`payload` pretty-printed with sorted keys, plus an "atoms" key when
    `atoms` holds (times, marks) arrays of finite floats: one [[t, j], ...]
    list per replicate, in the bytes `json.dump` writes for those lists."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if not atoms:
            json.dump(payload, fh, indent=2, sort_keys=True)
        else:
            fields = dict(payload, atoms=None)
            for i, key in enumerate(sorted(fields)):
                fh.write(("," if i else "{") + "\n  " + json.dumps(key) + ": ")
                if key == "atoms":
                    fh.writelines(_json_atom_lists(atoms))
                else:  # json escapes newlines in strings: each one here is layout
                    fh.write(json.dumps(fields[key], indent=2, sort_keys=True).replace("\n", "\n  "))
            fh.write("\n}")
        fh.write("\n")


_ATOM_PAIR = "[\n        %r,\n        %r\n      ]"


def _json_atom_lists(atoms: Sequence[tuple[np.ndarray, np.ndarray]]) -> Iterator[str]:
    """The "atoms" value at indent level 1, as `json.dump(indent=2)` lays it out."""
    yield "["
    for r, (times, marks) in enumerate(atoms):
        yield ("," if r else "") + "\n    "
        if len(times):
            pairs = map(_ATOM_PAIR.__mod__, zip(times.tolist(), marks.tolist()))
            yield "[\n      " + ",\n      ".join(pairs) + "\n    ]"
        else:
            yield "[]"
    yield "\n  ]"


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------


def _parse_simulate_config(cfg: dict) -> dict:
    try:
        parsed = {
            "n": cfg["n"],  # an integer count, which require_scale checks
            "horizon": float(cfg["horizon"]),
            "family": OffspringFamily.from_config(cfg["offspring"]),
            "law": ImmigrationLaw.from_config(cfg["immigration"]),
            "fluid": FluidConfig.from_config(cfg.get("fluid", {})),
            "norm_spec": cfg.get("norm", "n"),
            "correction": cfg.get("supercritical_correction", False),
        }
        if not math.isfinite(parsed["n"] * parsed["horizon"]):
            raise ValueError("horizon and n x horizon must be finite")
    # AttributeError: a section that is not an object
    except (KeyError, AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid simulate config: {exc}") from exc
    return parsed


def _simulate_norm(parsed: dict) -> float:
    spec = parsed["norm_spec"]
    try:
        if spec == "n":
            value = float(parsed["n"])
        elif spec == "bn":
            value = float(parsed["law"].norming_bn(parsed["n"]))
        else:
            value = float(spec)
    except OverflowError as exc:
        raise ConfigError(f"norm {spec!r} exceeds the float range") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid norm {spec!r}: expected 'n', 'bn', or a number") from exc
    if not 0 < value < math.inf:
        raise ConfigError(f"norm must be finite and positive, got {value!r}")
    return value


def _simulate_correction(parsed: dict) -> float | None:
    corr = parsed["correction"]
    if corr is False or corr is None:
        return None
    try:
        value = float(parsed["family"].mean if corr is True else corr)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid supercritical_correction {corr!r}: expected true, false or a mean") from exc
    if not 0 < value < math.inf:
        raise ConfigError(f"supercritical_correction must be finite and positive, got {value!r}")
    return value


_ROW_BLOCK = 1 << 16  # rows per string the writer yields, which bounds its memory on long paths


def _simulate_rows(values: Sequence[np.ndarray], n: int) -> Iterator[str]:
    """CSV rows `r,k/n,value` of each replicate's values, a block at a time.

    A path is constant over long stretches (a fluid total, a record in the
    extremal regime), so each run of equal values is formatted once.  Runs
    go by bit pattern, not by ==: -0.0 == 0.0, but the two print apart.
    """
    size = len(values[0])
    parts = np.empty(3 * size, dtype=object)  # "r,", "t,", "value\n" per row
    parts[1::3] = [repr(k / n) + "," for k in range(size)]
    for r, obs in enumerate(values):
        bits = obs.view(np.int64)
        starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
        cells = np.array([repr(v) + "\n" for v in obs[starts].tolist()], dtype=object)
        parts[0::3] = f"{r},"
        parts[2::3] = np.repeat(cells, np.diff(starts, append=size))
        for lo in range(0, 3 * size, 3 * _ROW_BLOCK):
            yield "".join(parts[lo : lo + 3 * _ROW_BLOCK].tolist())


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    parsed = _parse_simulate_config(cfg)
    require_scale(args.replicates, (parsed["n"],), parsed["horizon"])
    norm = _simulate_norm(parsed)  # validate early, before any work
    correction = _simulate_correction(parsed)
    seed = _resolve_seed(args)

    n = parsed["n"]
    run = GwiRun(
        n=n,
        horizon=parsed["horizon"],
        family=parsed["family"],
        law=parsed["law"],
        config=parsed["fluid"],
        seed=seed,
    )

    values = []
    # an overflow is reported by the finiteness check below, as one error line
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for r, bundle in enumerate(run_replicates(run, args.replicates, jobs=args.jobs)):
            obs = normalized_observable(bundle.y_log, norm, n, correction).values
            if not np.isfinite(obs).all():
                raise ConfigError(
                    f"replicate {r} has a value outside the float range (log Y / norm); "
                    "lower the immigration scale or raise norm"
                )
            values.append(obs)

    _write_csv(Path(f"{args.out}.csv"), _simulate_rows(values, n), ("replicate", "t", "value"))
    _write_json(
        Path(f"{args.out}.json"),
        {
            "command": "simulate",
            "params": cfg,
            "replicate_count": args.replicates,
            "seed": seed,
            "version": __version__,
        },
    )
    return EXIT_OK


# ----------------------------------------------------------------------
# limit-sample
# ----------------------------------------------------------------------


def _parse_limit_config(cfg: dict) -> tuple[limit.PrmParams, float]:
    try:
        params = limit.PrmParams.from_config(cfg)
        slope = float(cfg["slope"])
        if not math.isfinite(slope):
            raise ValueError("slope must be finite")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid limit-sample config: {exc}") from exc
    return params, slope


def _limit_path_lines(paths: list) -> Iterator[str]:
    """CSV lines of each path at its breakpoints and at its end time."""
    for r, path in enumerate(paths):
        for t, v in zip(path.breakpoints.tolist(), path.values.tolist()):
            yield f"{r},{t!r},{v!r}\n"
        yield f"{r},{path.end_time!r},{float(path.value(path.end_time))!r}\n"


def cmd_limit_sample(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    params, slope = _parse_limit_config(cfg)
    require_scale(args.replicates, atoms=params.expected_atoms)
    seed = _resolve_seed(args)

    paths = []
    atom_arrays = []
    # an overflow is reported by the finiteness check below, as one error line
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(args.replicates):
            rng = streams.substream(streams.replicate_seed(seed, r), streams.ATOMS)
            atoms = limit.sample_atoms(params, rng)
            path = limit.shot_noise_path(limit.ShotNoiseSpec(slope=slope, atoms=atoms))
            end_value = path.value(path.end_time)
            if not (np.isfinite(atoms.marks).all() and np.isfinite(path.values).all()
                    and math.isfinite(end_value)):
                raise ConfigError(
                    f"replicate {r} overflows the float range (a mark above 1.8e308 or slope x time); "
                    "raise b or delta, or lower |slope| x horizon"
                )
            if slope == 0.0:
                jumps = np.diff(np.append(path.values, end_value))
                if np.any(jumps < -1e-12) or np.any(path.slopes != 0.0):
                    raise RuntimeError("slope-0 limit path failed the nondecreasing validation")
            paths.append(path)
            atom_arrays.append((atoms.times, atoms.marks))

    _write_csv(Path(f"{args.out}.csv"), _limit_path_lines(paths), ("replicate", "t", "value"))
    _write_json(
        Path(f"{args.out}.json"),
        {
            "command": "limit-sample",
            "params": cfg,
            "replicate_count": args.replicates,
            "seed": seed,
            "atom_counts": [len(times) for times, _ in atom_arrays],
            "version": __version__,
        },
        atoms=atom_arrays,
    )
    return EXIT_OK


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    name = args.check
    overrides: dict = {}
    if args.config:
        cfg = _load_config(args.config)
        name = cfg.get("check", name)
        overrides = cfg.get("overrides", {})
        if not isinstance(overrides, dict):
            raise ConfigError("verify config 'overrides' must be an object")
    if name is None:
        raise ConfigError("verify needs a check name (argument or config 'check')")
    seed = _resolve_seed(args)
    try:
        overrides = {str(k): _coerce_override(v) for k, v in overrides.items()}
        start = time.perf_counter()
        report = run_check(name, seed=seed, **overrides)
        elapsed = time.perf_counter() - start
    except KeyError:
        raise ConfigError(
            f"unknown check {name!r}; registered checks: {', '.join(CHECK_NAMES)}"
        ) from None
    except (TypeError, OverflowError) as exc:  # OverflowError: an int beyond the float range
        raise ConfigError(f"invalid overrides for check {name!r}: {exc}") from exc

    payload = report.to_json()
    payload.update({"seed": seed, "version": __version__})
    if args.out:
        _write_json(Path(f"{args.out}.json"), payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    status = "pass" if report.passed else "FAIL"
    print(
        f"{status} {report.check}: statistic={report.statistic:.6g} "
        f"threshold={report.threshold:.6g} elapsed={elapsed:.3f}s",
        file=sys.stderr,
    )
    return EXIT_OK if report.passed else EXIT_VERIFY


def _coerce_override(value):
    if isinstance(value, list):
        return tuple(value)
    return value


# ----------------------------------------------------------------------
# parser / entry point
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwshot",
        description=(
            "Simulation and verification toolkit for branching processes with "
            "very active immigration and their extremal shot noise limits."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # every subcommand accepts --replicates and --jobs, so that a script (such as
    # perfbench) can pass both to each; only some read them
    ignored = "accepted and ignored"

    def common(p: argparse.ArgumentParser, out_required: bool, replicates_help: str, jobs_help: str) -> None:
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="64-bit master seed")
        p.add_argument("--replicates", type=int, default=1, help=replicates_help)
        p.add_argument("--jobs", type=int, default=1, help=jobs_help)
        p.add_argument("--out", required=out_required, help="output file path prefix")
        p.add_argument("--ci", action="store_true", help="strict mode: explicit seed required")

    p_sim = sub.add_parser("simulate", help="replicated prelimit runs, normalized-path CSV")
    common(p_sim, True, "number of replicates",
           "worker processes across replicates (the output does not depend on it)")

    p_lim = sub.add_parser("limit-sample", help="limit shot-noise paths and atom lists")
    common(p_lim, True, "number of replicates", f"{ignored}: limit-sample runs in one process")

    p_ver = sub.add_parser("verify", help="run a registered statistical check")
    p_ver.add_argument(
        "check",
        nargs="?",
        default=None,
        help=f"one of: {', '.join(CHECK_NAMES)} (or via config)",
    )
    common(p_ver, False, f"{ignored}: set a check's replicates in the config's overrides",
           f"{ignored}: a check runs in one process")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("simulate", "limit-sample") and not args.config:
        print("error: --config is required", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.jobs < 1:
            raise ConfigError("--jobs must be >= 1")
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "limit-sample":
            return cmd_limit_sample(args)
        return cmd_verify(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:  # console script
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
