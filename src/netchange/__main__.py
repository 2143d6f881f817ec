"""`python -m netchange`: the command-line interface of `netchange.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
