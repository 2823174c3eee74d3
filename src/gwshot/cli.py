"""Headless command-line front end.

Three subcommands: `simulate` runs replicated prelimit experiments and
writes normalized-path CSV plus a metadata sidecar, `limit-sample` draws
limit shot-noise paths, `verify` executes a registered statistical check
and writes its report.  Outputs are byte-stable for a fixed seed: CSV is
ASCII with LF endings and shortest-roundtrip floats, JSON is pretty-printed
with sorted keys, and both are written as bytes.  The `limit-sample`
floats are laid out by orjson through `_repr_dumps`, which gives each
one in `repr`'s digits.

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
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import __version__, limit, streams
from .budgets import reject_unknown_keys, require_number, require_scale
from .checks import CHECK_NAMES, _lookup, run_check
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


def _write_csv(path: Path, lines: Iterable[bytes], header: tuple[str, ...]) -> None:
    """Header, then the given ASCII bytes, whole lines each ending in LF."""
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\n")
        fh.writelines(lines)


def _write_json(path: Path, payload: dict, atoms: Sequence[tuple[np.ndarray, np.ndarray]] = ()) -> None:
    """`payload` pretty-printed with sorted keys, plus an "atoms" key when
    `atoms` holds (times, marks) arrays of finite floats: one [[t, j], ...]
    list per replicate, in the bytes `json.dump` writes for those lists."""
    text = json.dumps(dict(payload, atoms=0) if atoms else payload, indent=2, sort_keys=True)
    # the first '"atoms": 0' is the key's own: only "atom_counts", a list of ints, sorts before it
    head, _, tail = text.partition('"atoms": 0') if atoms else (text, "", "")
    with open(path, "wb") as fh:
        fh.write(head.encode())
        if atoms:
            fh.write(b'"atoms": ')
            fh.writelines(_json_atom_lists(atoms))
        fh.write(tail.encode() + b"\n")


def _repr_dumps(obj: Callable[[np.ndarray], object], values: np.ndarray, option: int) -> bytes:
    """orjson's bytes for `obj(values)`, with each float of `values` in
    `repr`'s digits.

    orjson writes the same shortest round-trip digits as `repr`, and lays
    out only the cells with x != 0 and |x| < 1e-4 or |x| >= 1e16 apart
    from it (`0.00001` and `1e16` where `repr` has `1e-05` and `1e+16`).
    Those few go in as NaN, which orjson writes as `null`, and each `null`
    is then replaced, in order, by its cell's `repr`.  orjson writes a NaN
    or infinite value as `null` too, which the splice would take for a
    cell, so such a value raises ValueError before anything is written.
    That is checked on the values, not by counting the `null`s: a scan of
    the bytes would cost a third of orjson's own time.  `values` is
    copied only when it has such cells, or is not a contiguous float64
    array (orjson takes no strided one).
    """
    import orjson  # only limit-sample writes through here, so no other command loads it

    values = np.ascontiguousarray(values, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValueError("only finite floats can be written")
    size = np.abs(values)
    odd = ((size < 1e-4) & (values != 0.0)) | (size >= 1e16)
    cells = [repr(x).encode() for x in values[odd].tolist()]
    if cells:
        values = values.copy()
        values[odd] = np.nan
    out = orjson.dumps(obj(values), option=option | orjson.OPT_SERIALIZE_NUMPY)
    if not cells:
        return out
    parts = out.split(b"null")
    return b"".join(chain.from_iterable(zip(parts, cells))) + parts[-1]


_ATOMS_HEAD = len(b'{\n  "": [\n    ')  # the layout around one replicate's list in
_ATOMS_TAIL = len(b"\n  ]\n}")  # {"": [pairs]}, which puts the list at indent level 2
_LIST_END = len(b"\n    ]")  # the end of a replicate's list, dropped from all but its last chunk
_PAIR_CHUNK = 1 << 16  # atoms per orjson call, which bounds the writer's memory on a large replicate


def _json_atom_lists(atoms: Sequence[tuple[np.ndarray, np.ndarray]]) -> Iterator[bytes | memoryview]:
    """The "atoms" value at indent level 1, as `json.dump(indent=2)` lays it out.

    A replicate's list is laid out `_PAIR_CHUNK` pairs at a time: each
    chunk is a list of its own, and a chunk's pairs follow the previous
    chunk's after a comma, in place of the closing of the one list and
    the opening of the other."""
    import orjson

    yield b"["
    for r, (times, marks) in enumerate(atoms):
        yield b",\n    " if r else b"\n    "
        for lo in range(0, max(len(times), 1), _PAIR_CHUNK):  # an empty list is one chunk, []
            hi = lo + _PAIR_CHUNK
            pairs = np.column_stack((times[lo:hi], marks[lo:hi]))
            text = _repr_dumps(lambda v: {"": [v]}, pairs, orjson.OPT_INDENT_2)
            start = _ATOMS_HEAD + 1 if lo else _ATOMS_HEAD  # a later chunk drops its "["
            end = len(text) - _ATOMS_TAIL - (_LIST_END if hi < len(times) else 0)
            if lo:
                yield b","
            yield memoryview(text)[start:end]
    yield b"\n  ]"


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------


def _parse_simulate_config(cfg: dict) -> dict:
    try:
        reject_unknown_keys("top-level", cfg, ("n", "horizon", "offspring", "immigration", "fluid", "norm",
                                               "supercritical_correction"))
        parsed = {
            "n": cfg["n"],  # an integer count, which require_scale checks
            "horizon": require_number("horizon", cfg["horizon"]),
            "family": OffspringFamily.from_config(cfg["offspring"]),
            "law": ImmigrationLaw.from_config(cfg["immigration"]),
            "fluid": FluidConfig.from_config(cfg.get("fluid", {})),
            "norm_spec": cfg.get("norm", "n"),
            "correction": cfg.get("supercritical_correction", False),
        }
        if not math.isfinite(parsed["n"] * parsed["horizon"]):
            raise ValueError("horizon and n x horizon must be finite")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
            value = require_number("norm", spec)
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
        value = parsed["family"].mean if corr is True else require_number("supercritical_correction", corr)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid supercritical_correction {corr!r}: expected true, false or a mean") from exc
    if not 0 < value < math.inf:
        raise ConfigError(f"supercritical_correction must be finite and positive, got {value!r}")
    return value


_ROW_BLOCK = 1 << 16  # rows per string the writer yields, which bounds its memory on long paths


def _time_cells(n: int, lo: int, hi: int) -> tuple[str, np.ndarray]:
    """The time cells k/n, k in [lo, hi), as one LF-joined string, and the
    offset of each cell in it (one past the end as the last)."""
    cells = [repr(k / n) for k in range(lo, hi)]
    offsets = np.zeros(hi - lo + 1, dtype=np.int64)
    np.cumsum([len(c) + 1 for c in cells], out=offsets[1:])
    return "\n".join(cells), offsets


def _simulate_rows(values: Sequence[np.ndarray], n: int) -> Iterator[str]:
    """CSV rows `r,k/n,value` of each replicate's values, a block at a time.

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
        for r, bundle in enumerate(run_replicates(run, args.replicates)):
            obs = normalized_observable(bundle.y_log, norm, n, correction).values
            if not np.isfinite(obs).all():
                raise ConfigError(
                    f"replicate {r} has a value outside the float range (log Y / norm); "
                    "lower the immigration scale or raise norm"
                )
            values.append(obs)

    _write_csv(Path(f"{args.out}.csv"), map(str.encode, _simulate_rows(values, n)), ("replicate", "t", "value"))
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
        params = limit.PrmParams.from_config(cfg, also_read=("slope",))
        slope = require_number("slope", cfg["slope"])
        if not math.isfinite(slope):
            raise ValueError("slope must be finite")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid limit-sample config: {exc}") from exc
    return params, slope


_PATH_BLOCK_CELLS = 1 << 16  # padded (replicate x atom) cells of one block of paths built at once


def _limit_path_lines(paths: list, end_values: np.ndarray) -> Iterator[bytes]:
    """CSV lines of each path at its breakpoints and at its end time, where
    it takes the matching entry of `end_values`."""
    for r, (path, end_value) in enumerate(zip(paths, end_values.tolist())):
        size = len(path.breakpoints)
        rows = np.empty((size + 1, 2))
        rows[:size, 0], rows[size, 0] = path.breakpoints, path.end_time
        rows[:size, 1], rows[size, 1] = path.values, end_value
        pairs = _repr_dumps(lambda v: v, rows, 0)  # [[t,v],[t,v],...]
        yield b"%d,%s\n" % (r, pairs[2:-2].replace(b"],[", b"\n%d," % r))


def _limit_blocks(params: limit.PrmParams, seed: int, replicates: int) -> Iterator[list[limit.AtomSet]]:
    """Each replicate's atoms, drawn on its own substream, in blocks of
    consecutive replicates that lay out at most `_PATH_BLOCK_CELLS` padded
    cells (one atom or none counting as one), or of one replicate."""
    block: list[limit.AtomSet] = []
    widest = 1
    for r in range(replicates):
        atoms = limit.sample_atoms(params, streams.substream(streams.replicate_seed(seed, r), streams.ATOMS))
        if block and (len(block) + 1) * max(widest, len(atoms)) > _PATH_BLOCK_CELLS:
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

    paths = []
    end_values = np.empty(args.replicates)  # 8 bytes a path, where a list of floats takes 32
    atom_arrays = []
    # an overflow is reported by the finiteness check below, as one error line
    with np.errstate(over="ignore", invalid="ignore"):
        for block in _limit_blocks(params, seed, args.replicates):
            for atoms, path in zip(block, limit.shot_noise_paths(block, params.horizon, slope)):
                r = len(paths)
                # the last segment at the end time, as `path.value(path.end_time)` gives it
                end_value = path.values[-1] + path.slopes[-1] * (path.end_time - path.breakpoints[-1])
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
                end_values[r] = end_value
                atom_arrays.append((atoms.times, atoms.marks))

    _write_csv(Path(f"{args.out}.csv"), _limit_path_lines(paths, end_values), ("replicate", "t", "value"))
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
        reject_unknown_keys("verify", cfg, ("check", "overrides"))
        name = cfg.get("check", name)
        overrides = cfg.get("overrides", {})
        if not isinstance(overrides, dict):
            raise ConfigError("verify config 'overrides' must be an object")
    if name is None:
        raise ConfigError("verify needs a check name (argument or config 'check')")
    seed = _resolve_seed(args)
    try:
        check = _lookup(name)
    except KeyError:
        raise ConfigError(f"unknown check {name!r}; registered checks: {', '.join(CHECK_NAMES)}") from None
    overrides = {str(k): _coerce_override(v) for k, v in overrides.items()}
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
