"""Process entry for ``python -m cycloscheme`` and the ``cycloscheme`` script."""

import gc
import sys

from .cli import main


def entry() -> int:
    """Run the CLI, then freeze the collector: CPython's shutdown collections
    skip the permanent generation, so they no longer walk the heap that the
    imports left. The reports are printed and the catalog is closed by then;
    ``cli.main`` itself leaves the collector alone."""
    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(entry())
