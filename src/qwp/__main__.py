"""Entry point for ``python -m qwp``, the same command line as the ``qwp`` script."""

from qwp.cli import main

if __name__ == "__main__":
    main()
