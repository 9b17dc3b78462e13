"""``python -m stripwalks``: the command-line front end of ``stripwalks.cli``."""

import sys

from .cli import main

sys.exit(main())
