"""Headless command-line front end.

Three subcommands: `simulate` runs replicated prelimit experiments and
writes normalized-path CSV plus a metadata sidecar, `limit-sample` draws
limit shot-noise paths, `verify` executes a registered statistical check
and writes its report.  Each reads its config in one function
(`_parse_simulate_config`, `_parse_limit_config`, `cmd_verify`).
Outputs are byte-stable for a fixed seed: CSV is ASCII with LF endings
and shortest-roundtrip floats, JSON is pretty-printed with sorted keys,
and both are written as bytes.  The `limit-sample` floats are laid out
by orjson through `_pair_cells`, one flat array per list of pairs, in
orjson's shortest round-trip digits, and each replicate's atom list is
one line of the sidecar.

Exit codes: 0 success, 2 usage/config error, 3 I/O error, 4 verification
failure.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import secrets
import sys
import time
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import __version__, limit, streams
from .budgets import reject_unknown_keys, require_number, require_scale
from .checks import CHECK_NAMES, _lookup, run_check
from .gwi import GwiRun, normalized_log, run_replicates
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


def _write_csv(path: Path, lines: Iterable[bytes], header: tuple[str, ...]) -> None:
    """Header, then the given ASCII bytes, whole lines each ending in LF."""
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\n")
        fh.writelines(lines)


def _write_json(path: Path, payload: dict, atoms: Sequence[tuple[np.ndarray, np.ndarray]] = ()) -> None:
    """`payload` pretty-printed with sorted keys, plus an "atoms" key when `atoms` holds
    (times, marks) arrays of finite floats: one [[t,j],...] line per replicate."""
    text = json.dumps(dict(payload, atoms=0) if atoms else payload, indent=2, sort_keys=True)
    # the first '"atoms": 0' is the key's own: only "atom_counts", a list of ints, sorts before it
    head, _, tail = text.partition('"atoms": 0') if atoms else (text, "", "")
    with open(path, "wb") as fh:
        fh.write(head.encode())
        if atoms:
            fh.write(b'"atoms": ')
            fh.writelines(_json_atom_lists(atoms))
        fh.write(tail.encode() + b"\n")


_PAIR_CHUNK = 1 << 11  # atoms per orjson call: a few cache-sized texts at a time, whatever the replicate


def _pair_cells(pairs: np.ndarray, sep: bytes) -> bytes:
    """The floats of the (n, 2) array `pairs` in orjson's shortest round-trip
    digits (`0.00001`, `1e-7`, `1e16`), row after row, `sep` between two rows.

    orjson lays out the flat list t0, j0, t1, j1, ... (at a third to a half of
    its cost for (n, 2) rows), one scan marks every second comma, the one
    between two rows, and one `replace` turns each mark into `sep`.  A NaN or
    inf, which orjson writes as `null`, raises ValueError."""
    import orjson  # only limit-sample writes through here, so no other command loads it

    values = np.ascontiguousarray(pairs, dtype=np.float64).ravel()  # orjson takes no strided array
    if not np.isfinite(values).all():
        raise ValueError("only finite floats can be written")
    out = bytearray(memoryview(orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY))[1:-1])
    view = np.frombuffer(out, dtype=np.uint8)
    view[(view == ord(",")).nonzero()[0][1::2]] = ord("|")  # a byte no float has
    return bytes(out).replace(b"|", sep)


def _json_atom_lists(atoms: Sequence[tuple[np.ndarray, np.ndarray]]) -> Iterator[bytes]:
    """The "atoms" value at indent level 1: one line at indent level 2 per
    replicate, the bytes orjson gives for its (n, 2) array of pairs, laid out
    `_PAIR_CHUNK` pairs at a time."""
    yield b"["
    for r, (times, marks) in enumerate(atoms):
        yield b",\n    " if r else b"\n    "
        for lo in range(0, len(times), _PAIR_CHUNK):
            yield b"],[" if lo else b"[["
            yield _pair_cells(np.column_stack((times[lo : lo + _PAIR_CHUNK], marks[lo : lo + _PAIR_CHUNK])), b"],[")
        yield b"]]" if len(times) else b"[]"
    yield b"\n  ]"


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------


def _parse_simulate_config(cfg: dict, replicates: int) -> tuple[dict, float, float | None]:
    """The `GwiRun` fields but the seed, the norm and the supercritical correction (None
    for none) of a `simulate` config, each checked, and `replicates` paths held to the
    engine budgets before the norm reads n."""
    try:
        reject_unknown_keys("top-level", cfg, ("n", "horizon", "offspring", "immigration", "fluid", "norm",
                                               "supercritical_correction"))
        n = cfg["n"]  # an integer count, which require_scale checks
        horizon = require_number("horizon", cfg["horizon"])
        family = OffspringFamily.from_config(cfg["offspring"])
        law = ImmigrationLaw.from_config(cfg["immigration"])
        fluid = FluidConfig.from_config(cfg.get("fluid", {}))
        if not math.isfinite(n * horizon):
            raise ValueError("horizon and n x horizon must be finite")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid simulate config: {exc}") from exc
    require_scale(replicates, (n,), horizon)
    fields = dict(n=n, horizon=horizon, family=family, law=law, config=fluid)

    spec = cfg.get("norm", "n")
    try:
        norm = float(n) if spec == "n" else float(law.norming_bn(n)) if spec == "bn" else require_number("norm", spec)
    except OverflowError as exc:
        raise ConfigError(f"norm {spec!r} exceeds the float range") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid norm {spec!r}: expected 'n', 'bn', or a number") from exc
    if not 0 < norm < math.inf:
        raise ConfigError(f"norm must be finite and positive, got {norm!r}")

    corr = cfg.get("supercritical_correction", False)
    if corr is False or corr is None:
        return fields, norm, None
    try:
        correction = family.mean if corr is True else require_number("supercritical_correction", corr)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid supercritical_correction {corr!r}: expected true, false or a mean") from exc
    if not 0 < correction < math.inf:
        raise ConfigError(f"supercritical_correction must be finite and positive, got {correction!r}")
    return fields, norm, correction


_ROW_BLOCK = 1 << 16  # rows per string the writer yields, which bounds its memory on long paths


def _time_cells(n: int, lo: int, hi: int) -> tuple[str, np.ndarray]:
    """The time cells k/n, k in [lo, hi), as one LF-joined string, and the
    offset of each cell in it (one past the end as the last)."""
    cells = [repr(k / n) for k in range(lo, hi)]
    offsets = np.zeros(hi - lo + 1, dtype=np.int64)
    np.cumsum([len(c) + 1 for c in cells], out=offsets[1:])
    return "\n".join(cells), offsets


def _simulate_rows(values: Sequence[np.ndarray], n: int) -> Iterator[str]:
    """CSV rows `r,k/n,value` of each replicate's values (a row of `values`
    each, as a list or as one 2-D array), a block at a time.

    A path is constant over long stretches (a fluid total, a record in the
    extremal regime), so each run of equal values is formatted once, and
    a run of several rows is the stretch of time cells it covers with its
    value spliced in between.  Runs go by bit pattern, not by ==: -0.0 ==
    0.0, but the two print apart.  The time cells are formatted once, one
    string per block.
    """
    size = len(values[0])
    blocks = [_time_cells(n, lo, min(lo + _ROW_BLOCK, size)) for lo in range(0, size, _ROW_BLOCK)]
    for r, obs in enumerate(values):
        for lo, (text, offsets) in zip(range(0, size, _ROW_BLOCK), blocks):
            yield _block_rows(r, obs[lo : lo + _ROW_BLOCK], text, offsets)


def _block_rows(r: int, block: np.ndarray, text: str, offsets: np.ndarray) -> str:
    """The rows of replicate r over one block, with `text` and `offsets`
    as `_time_cells` gives them."""
    head, next_row = f"{r},", f"\n{r},"
    bits = block.view(np.int64)
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    ends = np.append(starts[1:], len(block))
    cells = list(map(repr, block[starts].tolist()))  # each run's value cell
    # each run's text up to its last value cell: its one time cell, or its
    # time cells with the value and the next row's head between them
    multi = np.flatnonzero(ends - starts > 1).tolist()
    spans = list(map(text.__getitem__, map(slice, offsets[starts].tolist(), (offsets[ends] - 1).tolist())))
    for i in multi:
        spans[i] = spans[i].replace("\n", f",{cells[i]}{next_row}")
    parts = [head, *chain.from_iterable(zip(spans, repeat(","), cells, repeat(next_row)))]
    parts[-1] = "\n"  # the block's last row starts no next one
    return "".join(parts)


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    fields, norm, correction = _parse_simulate_config(cfg, args.replicates)
    run = GwiRun(**fields, seed=_resolve_seed(args))

    values = np.empty((args.replicates, run.num_steps + 1))
    # an overflow is reported by the finiteness check below, as one error line
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for r, (bundle, obs) in enumerate(zip(run_replicates(run, args.replicates), values)):
            normalized_log(bundle.y_log, norm, correction, out=obs)
            if not np.isfinite(obs).all():
                raise ConfigError(
                    f"replicate {r} has a value outside the float range (log Y / norm); "
                    "lower the immigration scale or raise norm"
                )

    _write_csv(Path(f"{args.out}.csv"), map(str.encode, _simulate_rows(values, run.n)), ("replicate", "t", "value"))
    _write_json(
        Path(f"{args.out}.json"),
        {
            "command": "simulate",
            "params": cfg,
            "replicate_count": args.replicates,
            "seed": run.seed,
            "version": __version__,
        },
    )
    return EXIT_OK


# ----------------------------------------------------------------------
# limit-sample
# ----------------------------------------------------------------------


def _parse_limit_config(cfg: dict) -> tuple[limit.PrmParams, float]:
    try:
        reject_unknown_keys("limit-sample", cfg, ("a", "b", "horizon", "delta", "slope"))
        a, b, horizon, slope = (require_number(key, cfg[key]) for key in ("a", "b", "horizon", "slope"))
        if not math.isfinite(slope):
            raise ValueError("slope must be finite")
        params = limit.PrmParams(a, b, horizon, require_number("delta", cfg.get("delta", 1e-3)))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid limit-sample config: {exc}") from exc
    return params, slope


_PATH_BLOCK_CELLS = 1 << 16  # padded (replicate x atom) cells of one block of paths built at once
_PATH_BLOCK_PATHS = 1 << 10  # paths of one block, which bounds a block of empty paths at horizon 0


def _limit_path_lines(block: list[limit.AtomSet], horizon: float, slope: float, first: int) -> bytes:
    """CSV lines of the paths of `block`'s atoms, replicates first, first + 1, ..., at
    their breakpoints and at the horizon, where each takes its last segment's value.

    The block is checked in the same pass, before any row is laid out: the first
    replicate whose marks (which only the sidecar writes), path values or end value
    leave the float range is named in a ConfigError, and at slope 0 a path that is not
    a nondecreasing step function is a fault (RuntimeError)."""
    paths = limit.shot_noise_paths(block, horizon, slope)
    ends = np.cumsum([len(path.breakpoints) + 1 for path in paths])
    inner = np.ones(ends[-1], dtype=bool)
    inner[ends - 1] = False  # each path's last row, at the horizon
    rows, slopes = np.empty((ends[-1], 2)), np.zeros(ends[-1])
    rows[inner, 0] = np.concatenate([path.breakpoints for path in paths])
    rows[inner, 1] = np.concatenate([path.values for path in paths])
    slopes[inner] = np.concatenate([path.slopes for path in paths])
    rows[ends - 1, 0] = horizon
    rows[ends - 1, 1] = rows[ends - 2, 1] + slopes[ends - 2] * (horizon - rows[ends - 2, 0])

    # the replicate of the first bad mark and of the first bad row, each found by its offset
    bad_mark = np.flatnonzero(~np.isfinite(np.concatenate([atoms.marks for atoms in block])))[:1]
    over = [*np.searchsorted(np.cumsum([len(atoms) for atoms in block]), bad_mark, side="right").tolist(),
            *np.searchsorted(ends, np.flatnonzero(~np.isfinite(rows[:, 1]))[:1], side="right").tolist()]
    if over:
        raise ConfigError(
            f"replicate {first + min(over)} overflows the float range (a mark above 1.8e308 or slope x time); "
            "raise b or delta, or lower |slope| x horizon"
        )
    if slope == 0.0:
        jumps = np.diff(rows[:, 1])
        jumps[ends[:-1] - 1] = 0.0  # from one path's end to the next one's start
        if np.any(jumps < -1e-12) or np.any(slopes != 0.0):
            raise RuntimeError("slope-0 limit path failed the nondecreasing validation")

    lines = _pair_cells(rows, b"\n").split(b"\n")
    return b"".join(b"%d,%s\n" % (r, (b"\n%d," % r).join(lines[a:b]))
                    for r, a, b in zip(range(first, first + len(paths)), [0, *ends[:-1].tolist()], ends.tolist()))


def _limit_blocks(params: limit.PrmParams, seed: int, replicates: int) -> Iterator[list[limit.AtomSet]]:
    """Each replicate's atoms, drawn on its own substream, in blocks of
    consecutive replicates that lay out at most `_PATH_BLOCK_CELLS` padded
    cells (one atom or none counting as one) and `_PATH_BLOCK_PATHS` paths,
    or of one replicate."""
    block: list[limit.AtomSet] = []
    widest = 1
    for replicate_seed in streams.replicate_seeds(seed, 0, replicates).tolist():
        atoms = limit.sample_atoms(params, streams.substream(replicate_seed, streams.ATOMS))
        if block and (len(block) >= _PATH_BLOCK_PATHS
                      or (len(block) + 1) * max(widest, len(atoms)) > _PATH_BLOCK_CELLS):
            yield block
            block, widest = [], 1
        block.append(atoms)
        widest = max(widest, len(atoms))
    yield block


def cmd_limit_sample(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    params, slope = _parse_limit_config(cfg)
    require_scale(args.replicates, atoms=params.expected_atoms)
    seed = _resolve_seed(args)

    csv_blocks = []  # the CSV text, far smaller than the paths it is laid out from
    atom_arrays = []
    # an overflow is reported by the block's finiteness check, as one error line
    with np.errstate(over="ignore", invalid="ignore"):
        for block in _limit_blocks(params, seed, args.replicates):
            csv_blocks.append(_limit_path_lines(block, params.horizon, slope, len(atom_arrays)))
            atom_arrays += [(atoms.times, atoms.marks) for atoms in block]

    _write_csv(Path(f"{args.out}.csv"), csv_blocks, ("replicate", "t", "value"))
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
    cfg = _load_config(args.config) if args.config else {}
    reject_unknown_keys("verify", cfg, ("check", "overrides"))
    name, overrides = cfg.get("check", args.check), cfg.get("overrides", {})
    if not isinstance(overrides, dict):
        raise ConfigError("verify config 'overrides' must be an object")
    if name is None:
        raise ConfigError("verify needs a check name (argument or config 'check')")
    seed = _resolve_seed(args)
    try:
        check = _lookup(name)
    except KeyError:
        raise ConfigError(f"unknown check {name!r}; registered checks: {', '.join(CHECK_NAMES)}") from None
    try:  # an unknown or missing key, before the check runs: its own TypeErrors are faults
        inspect.signature(check).bind(seed, **overrides)
    except TypeError as exc:
        raise ConfigError(f"invalid overrides for check {name!r}: {exc}") from None
    start = time.perf_counter()
    try:
        report = run_check(name, seed=seed, **overrides)
    except OverflowError as exc:  # an int override beyond the float range
        raise ConfigError(f"invalid overrides for check {name!r}: {exc}") from exc
    elapsed = time.perf_counter() - start

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
    # perfbench) can pass both to each; --jobs is read by none
    ignored = "accepted and ignored"

    def common(p: argparse.ArgumentParser, out_required: bool, replicates_help: str) -> None:
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="64-bit master seed")
        p.add_argument("--replicates", type=int, default=1, help=replicates_help)
        p.add_argument("--jobs", type=int, default=1, help=f"{ignored}: every command runs in one process")
        p.add_argument("--out", required=out_required, help="output file path prefix")
        p.add_argument("--ci", action="store_true", help="strict mode: explicit seed required")

    p_sim = sub.add_parser("simulate", help="replicated prelimit runs, normalized-path CSV")
    common(p_sim, True, "number of replicates")

    p_lim = sub.add_parser("limit-sample", help="limit shot-noise paths and atom lists")
    common(p_lim, True, "number of replicates")

    p_ver = sub.add_parser("verify", help="run a registered statistical check")
    p_ver.add_argument(
        "check",
        nargs="?",
        default=None,
        help=f"one of: {', '.join(CHECK_NAMES)} (or via config)",
    )
    common(p_ver, False, f"{ignored}: set a check's replicates in the config's overrides")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("simulate", "limit-sample") and not args.config:
        print("error: --config is required", file=sys.stderr)
        return EXIT_CONFIG
    try:
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
