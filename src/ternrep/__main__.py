"""python -m ternrep: the ternrep command, runnable from a source checkout."""

from .cli import main

if __name__ == "__main__":
    main()
