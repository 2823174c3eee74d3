"""One gwshot CLI invocation in a fresh interpreter, with its timings.

    python3 perfbench/child.py RESULT_JSON SRC_DIR MODE -- GWSHOT_ARGS...

Imports ``gwshot.cli`` from SRC_DIR and parses the command line and the
config file, which ends set-up.  MODE ``setup`` stops there; ``run`` then
calls ``gwshot.cli.main``; ``trace`` first wraps the public functions in
spans.  RESULT_JSON receives the monotonic clock at the end of set-up and,
unless MODE is ``setup``, the exit code, the time inside ``cli.main``, the
library versions and, when traced, the per-layer spans.  The parent reads
the spawn time from the same system-wide monotonic clock.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path


def main() -> int:
    result_path, src_dir, mode = sys.argv[1], sys.argv[2], sys.argv[3]
    argv = sys.argv[sys.argv.index("--") + 1 :]
    sys.path.insert(0, src_dir)

    import gwshot.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src_dir).resolve()):
        raise SystemExit(f"gwshot was imported from {cli.__file__}, not from {src_dir}")
    args = cli.build_parser().parse_args(argv)
    if args.config:
        json.loads(Path(args.config).read_text(encoding="utf-8"))
    setup_end = time.monotonic()
    if mode == "setup":
        Path(result_path).write_text(json.dumps({"setup_end": setup_end}), encoding="utf-8")
        return 0

    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.Tracer()
        missing = spans.install(tracer)
        if missing:
            print(f"perfbench: trace targets not found: {', '.join(missing)}", file=sys.stderr)

    start = time.perf_counter()
    code = cli.main(argv)
    main_s = time.perf_counter() - start

    import numpy
    import scipy

    result = {
        "exit_code": code,
        "setup_end": setup_end,
        "main_s": main_s,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "layers": tracer.summary() if tracer else None,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
