"""Runs one mmreg command in a fresh process and prints its measurements.

    python3 worker.py '{"argv": [...], "trace": false}'

Times `import mmreg.cli` (the set-up a user pays on every command), then
`mmreg.cli.main(argv)` in this process, optionally under the outside-in
tracer. With "argv": null only the import is timed. The last line of stdout
is one JSON object: setup_s, wall_s, rc, error, peak_rss_mb and, when traced,
the trace summary.
"""

import json
import resource
import sys
import time
import traceback

from tracer import Tracer


def main():
    request = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    import mmreg.cli as cli
    out = {"setup_s": time.perf_counter() - t0}

    if request["argv"] is not None:
        tracer = Tracer() if request["trace"] else None
        if tracer is not None:
            tracer.install()
        error = None
        t0 = time.perf_counter()
        try:
            rc = cli.main(request["argv"])
        except SystemExit as e:
            rc = e.code
        except Exception:
            # reported to the parent, which counts the operation as failed
            rc = None
            error = traceback.format_exc()
        out["wall_s"] = time.perf_counter() - t0
        out["rc"] = rc
        out["error"] = error
        if tracer is not None:
            tracer.uninstall()
            out["trace"] = tracer.summary()

    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))


if __name__ == "__main__":
    main()
