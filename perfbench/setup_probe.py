"""Set-up probe, run in a fresh interpreter: time ``import sewcells`` plus
``load_manifold`` of every given definition file, and print the seconds
normalized to the nominal machine speed (see ``reference.py``), then the
seconds as measured.

numpy, the package's one dependency, is imported before the clock starts.
Its import is most of a fresh interpreter's start-up and no change to
sewcells can move it.  The reference kernel runs once to warm up, then just
before and just after the timed set-up, which is too short to sample inside.

Usage: python3 perfbench/setup_probe.py <src directory> <definition file>...
"""

import sys

import numpy  # noqa: F401

import reference


def set_up() -> None:
    sys.path.insert(0, sys.argv[1])
    import sewcells

    for path in sys.argv[2:]:
        sewcells.load_manifold(path)


reference.kernel()
elapsed, scale, _ = reference.Meter(during=False).time(set_up)
print(repr(elapsed * scale), repr(elapsed))
