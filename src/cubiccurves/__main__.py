"""python -m cubiccurves: the command-line front end (cubiccurves.cli)."""

from .cli import main

main()
