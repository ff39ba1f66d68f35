"""`python -m hqperc`: the hqperc command line."""
from .cli import run

run()
