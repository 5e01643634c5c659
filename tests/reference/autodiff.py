"""The ``np.add.at`` scatter that ``scatter_to`` used for fancy indices.

:func:`repro.autodiff.tensor.scatter_array` replaced it with
``np.bincount`` over flat indices; the oracle test requires the two to
be bit-equal.
"""

import numpy as np


def add_at_scatter(shape, index, values) -> np.ndarray:
    """Zeros of ``shape`` with ``values`` accumulated at ``index``."""
    values = np.asarray(values)
    base = np.zeros(shape, dtype=values.dtype)
    np.add.at(base, index, values)
    return base
