"""`python -m rnncast ...`: the `rnncast` command line."""

from .cli import entry

if __name__ == "__main__":
    entry()
