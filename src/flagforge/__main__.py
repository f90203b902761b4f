"""``python -m flagforge``: the operator command line."""

from .cli import console

if __name__ == "__main__":
    console()
