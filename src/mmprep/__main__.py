"""`python -m mmprep ...` runs the command-line interface (see mmprep.cli)."""

import sys

from .cli import main

sys.exit(main())
