"""`python -m luncsim`: the same command line as the `luncsim` script."""

import sys

from .cli import main

sys.exit(main())
