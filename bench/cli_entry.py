"""Traced stand-in for `python -m fuchsian.cli ARGV...`.

Usage: python cli_entry.py FD ARGV...

Times `import fuchsian.cli` from a cold interpreter, with the share spent
importing numpy, installs the span wrappers, runs `cli.run(ARGV)` and exits
with its code, so stdout, stderr and the exit code match the real CLI.  A
JSON record of the timings and spans goes to file descriptor FD, also when
`run` raises.
"""

import builtins
import os
import sys
from time import perf_counter


def main():
    fd, argv = int(sys.argv[1]), sys.argv[2:]
    numpy_s = 0.0
    real_import = builtins.__import__

    def timed_import(name, *args, **kwargs):
        nonlocal numpy_s
        if name.partition(".")[0] != "numpy" or "numpy" in sys.modules:
            return real_import(name, *args, **kwargs)
        start = perf_counter()
        try:
            return real_import(name, *args, **kwargs)
        finally:
            numpy_s += perf_counter() - start

    builtins.__import__ = timed_import
    start = perf_counter()
    import fuchsian.cli as cli
    import_s = perf_counter() - start

    from spans import Tracer

    tracer = Tracer().install()
    run_s = 0.0
    try:
        start = perf_counter()
        try:
            rc = cli.run(argv)
        finally:
            run_s = perf_counter() - start
    finally:
        tracer.uninstall()
        import json  # only now, so the timed import starts where a real CLI call does

        record = {"import_ms": 1e3 * import_s, "numpy_import_ms": 1e3 * numpy_s,
                  "numpy_loaded": "numpy" in sys.modules, "run_ms": 1e3 * run_s,
                  "spans": tracer.spans}
        with os.fdopen(fd, "w") as out:
            json.dump(record, out)
    sys.exit(rc)


if __name__ == "__main__":
    main()
