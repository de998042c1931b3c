"""``python -m hetsim``: the sweep CLI (see hetsim.cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
