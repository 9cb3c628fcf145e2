"""`python -m spreadbent ...` runs the spreadbent command."""

from .cli import run

if __name__ == "__main__":
    run()
