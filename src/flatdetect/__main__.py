"""``python -m flatdetect``: the same command line as the ``flatdetect`` script."""

from .cli import main

if __name__ == "__main__":
    main()
