"""Time one cold set-up: import numpy, scipy and qhjqes, then one warm-up op.

Usage: python3 setup_probe.py SRC_DIR ARG... (the ARGs go to ``qhjqes.cli.main``).
Prints the seconds taken as its last line. The op's outcome is judged by the
caller, which runs the same op again in its own process.
"""

import sys
from time import perf_counter

if __name__ == "__main__":
    start = perf_counter()
    sys.path.insert(0, sys.argv[1])
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import qhjqes.cli

    qhjqes.cli.main(sys.argv[2:])
    print(repr(perf_counter() - start))
