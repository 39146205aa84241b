"""One untraced ``migrate`` in a fresh interpreter.

Usage: python3 child.py '<json list of seg-migrate arguments>'

Prints one JSON line: the wall seconds of ``cli.main`` from after import to
return, its exit code, and the process's peak RSS after the call.  Nothing
of the tracer is imported here, so the timed run is the plain tool.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

from segmigrate import cli


def main() -> None:
    argv = json.loads(sys.argv[1])
    report = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(report):
        rc = cli.main(argv)
    wall = time.perf_counter() - start
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"wall_s": wall, "rc": rc, "maxrss_kb": maxrss_kb,
                      "module": cli.__file__}), flush=True)
    # skip freeing the whole heap at exit: it is not part of migrate
    os._exit(0)


if __name__ == "__main__":
    main()
