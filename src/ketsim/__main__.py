"""`python -m ketsim`: the ketsim command line."""

import sys

from .cli import main

sys.exit(main())
