"""`python -m semiringlab ARGS` runs the command line, like the console script."""

from .cli import run

run()
