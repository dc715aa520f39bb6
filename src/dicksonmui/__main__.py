"""``python -m dicksonmui``: the same command line as the ``dicksonmui`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
