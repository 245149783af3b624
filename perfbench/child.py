"""One measured pass: a fresh interpreter imports edsim, loads the workload
config and runs the workload's CLI commands in order, each into
<out>/<command>.

The parent passes its monotonic clock reading taken just before it started
this process, so setup time counts interpreter start-up too (Linux's
CLOCK_MONOTONIC is shared by all processes). The last line of stdout is one
JSON object with the timings; with --spans the pass is traced and the spans
are written there when the commands have finished.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--ini", required=True)
    ap.add_argument("--commands", default="")
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    t0 = time.monotonic()
    import edsim.cli as cli
    from edsim.config import RunConfig

    import_s = time.monotonic() - t0
    tracer = None
    if args.spans:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    RunConfig.load(args.ini)
    ready = time.monotonic()

    codes, times = {}, {}
    for cmd in filter(None, args.commands.split(",")):
        argv = [cmd, "--config", args.ini, "--out", os.path.join(args.out, cmd),
                "--seed", args.seed]
        start = time.monotonic()
        codes[cmd] = tracer.call("cli." + cmd, cli.main, argv) if tracer else cli.main(argv)
        times[cmd] = time.monotonic() - start
    wall_s = time.monotonic() - ready
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer:
        tracer.restore()
        with open(args.spans, "w") as fh:
            json.dump(tracer.spans, fh)

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({
        "setup_s": ready - args.spawned,
        "import_s": import_s,
        "wall_s": wall_s,
        "command_s": times,
        "codes": codes,
        "peak_rss_mb": rss_mb,
        "edsim": os.path.dirname(cli.__file__),
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
        },
    }))


if __name__ == "__main__":
    sys.exit(main())
