"""Processes the benchmark starts, one at a time.

    python3 bench/child.py coldstart CONFIG
        Time one cold start in this fresh interpreter: import pseudomodes.cli,
        load_config, build_model.  Prints {"setup_s": ...}.

    python3 bench/child.py solve JOB
        Run the CLI solves described by the JSON file JOB back to back in this
        process (a closed loop with one client): one warm-up, then as many
        solves as fit in JOB's seconds.  With tracing, untraced and traced
        solves alternate.  Writes the per-solve record to JOB's result path
        and, when traced, the spans to its spans path.

Both expect pseudomodes on PYTHONPATH and BLAS pinned by the caller.
"""

from __future__ import annotations

import json
import sys
import traceback
from time import perf_counter


def coldstart(config: str) -> dict:
    t0 = perf_counter()
    import pseudomodes.cli as cli

    cfg = cli.load_config(config)
    cli.build_model(cfg)
    return {"setup_s": perf_counter() - t0}


def solve_loop(job: dict) -> None:
    from statistics import median

    import pseudomodes.cli as cli

    from layers import Tracer

    tracer = Tracer() if job["trace"] else None
    solves = []

    def run(index: int, traced: bool) -> None:
        argv = [a.replace("{i}", str(index)) for a in job["argv"]]
        error = None
        t0 = perf_counter()
        try:
            if traced:
                with tracer.solve(index):
                    rc = cli.main(argv)
            else:
                rc = cli.main(argv)
        except Exception:  # a crashed solve is a failed solve, not a crashed run
            rc = None
            error = traceback.format_exc()
            sys.stderr.write(error)
        seconds = perf_counter() - t0
        solves.append({"index": index, "rc": rc, "seconds": seconds,
                       "traced": traced, "warmup": index == 0, "error": error})

    run(0, False)
    start = perf_counter()
    index = 1
    while True:
        traced = tracer is not None and index % 2 == 0
        run(index, traced)
        index += 1
        # Tracing needs one untraced and one traced solve at least.
        enough = tracer is None or index > 2
        # Start another solve only if a typical one still ends within the time.
        typical = median(s["seconds"] for s in solves[1:])
        if enough and perf_counter() - start + typical > job["seconds"]:
            break
    if tracer is not None:
        tracer.write(job["spans"])
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump({"solves": solves}, fh)


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in ("coldstart", "solve"):
        sys.stderr.write(__doc__)
        return 2
    if argv[0] == "coldstart":
        print(json.dumps(coldstart(argv[1])))
        return 0
    with open(argv[1], encoding="utf-8") as fh:
        solve_loop(json.load(fh))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
