"""Immutable records: ``typing.NamedTuple`` classes without tuple arithmetic.

Every frozen record of the package is a NamedTuple: building one class costs
about 0.1 ms, where a generated-methods record class compiles its methods at
import time.  A NamedTuple is a tuple, though, so ``a + b`` would
concatenate two records and ``a * 2`` repeat one; :func:`record` takes those
operators off a record class unless the class defines its own.
"""

from __future__ import annotations


def _unsupported(self, other):
    return NotImplemented


def record(cls: type) -> type:
    """Class decorator: ``+`` and ``*`` raise TypeError unless ``cls`` defines them."""
    for name in ("__add__", "__mul__", "__rmul__"):
        if name not in vars(cls):
            setattr(cls, name, _unsupported)
    return cls
