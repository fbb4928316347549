"""``python -m benchmarks.ladder``: see :mod:`benchmarks.ladder.cli`."""

import sys

from benchmarks.ladder.cli import main

if __name__ == "__main__":
    sys.exit(main())
