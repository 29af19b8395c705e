"""``python -m pbergman``: the ``pbergman`` command line, also from a checkout
(``PYTHONPATH=src python -m pbergman ...``)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
