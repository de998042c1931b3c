"""One cold sweep: a fresh interpreter imports hetsim and runs its CLI once.

    python3 sweep_child.py SRC CONFIG CSV [--theory-only] [--trace DIR]

Prints one JSON line: the perf_counter reading once the config is loaded
and validated (the parent subtracts its spawn time to get set-up time),
the CLI's wall time and exit code, and the peak RSS of this process and of
its largest pool worker. With --trace, spans go to DIR (see tracer.py).
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    src, config_path, csv_path, *rest = sys.argv[1:]
    sys.path.insert(0, src)
    import hetsim.cli
    import hetsim.config

    if not Path(hetsim.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"hetsim imported from {hetsim.__file__}, not from {src}", file=sys.stderr)
        return 2
    hetsim.config.load_config(config_path)
    ready = time.perf_counter()

    tracer = None
    if "--trace" in rest:
        from tracer import Tracer, install  # this script's own directory is on sys.path

        tracer = Tracer(Path(rest[rest.index("--trace") + 1]))
        install(tracer)
    argv = ["--config", config_path, "--out", csv_path]
    if "--theory-only" in rest:
        argv.append("--theory-only")
    start = time.perf_counter()
    code = hetsim.cli.main(argv)
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.flush()
    print(
        json.dumps(
            {
                "ready": ready,
                "wall_s": wall,
                "exit_code": code,
                "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "worker_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
