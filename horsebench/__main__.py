"""``python -m horsebench``: put the program (``src/``) on the path and
hand over to :mod:`horsebench.cli`."""

import os
import sys

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from horsebench.cli import main  # noqa: E402 - needs the path above

if __name__ == "__main__":
    sys.exit(main())
