"""`python -m wastekit`: the same command line as the `wastekit` script."""

from .cli import main

if __name__ == "__main__":
    main()
