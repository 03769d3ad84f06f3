"""`python -m ipgap`: the ipgap command (see ipgap.cli)."""

import sys

from .cli import main

sys.exit(main())
