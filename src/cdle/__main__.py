"""``python -m cdle …`` runs the command-line tool, as the ``cdle`` script does."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
