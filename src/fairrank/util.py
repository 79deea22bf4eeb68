"""Small numeric helpers, and the one rule for opening input files."""

import math
from contextlib import contextmanager

import numpy as np


@contextmanager
def reading(path, error):
    """``path`` open for binary reading.

    Raises:
        error: naming the path, when the file is missing, or when opening
            or reading it fails with an ``OSError`` (a directory, say).
    """
    try:
        with open(path, "rb") as fh:
            yield fh
    except FileNotFoundError:
        raise error(f"file not found: {path}") from None
    except OSError as exc:
        raise error(f"{path}: cannot read ({exc.strerror})") from None


def sigmoid(z):
    """Overflow-safe logistic function, elementwise."""
    z = np.asarray(z, dtype=np.float64)
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


class Scratch:
    """Named flat arrays that a loop's steps reuse instead of allocating.

    ``scratch(name, shape, dtype)`` is a C-ordered ``shape`` view of the
    start of the array kept under ``name``.  A request larger than that
    array, or of another dtype, replaces it with one an eighth larger than
    asked, so that a later step asking for a little more does not grow
    (and page in) it again.  Every view of one name shares its memory.
    """

    def __init__(self):
        self.arrays = {}

    def __call__(self, name, shape, dtype=np.float64):
        size = math.prod(shape)
        flat = self.arrays.get(name)
        if flat is None or flat.size < size or flat.dtype != dtype:
            flat = self.arrays[name] = np.empty(size + size // 8, dtype)
        return flat[:size].reshape(shape)
