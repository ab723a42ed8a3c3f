"""Slow reference implementations that tests compare the package against."""

import numpy as np

from entconvex.spectra import eigendecompose, von_neumann_entropy


def dense_entropy_curve(pair, grid_size, log_base=2.0):
    """Entropies on the uniform alpha grid, one dense density per point.

    Each point builds the full reduced density through ``pair.builder``
    (with its density checks), eigendecomposes it and takes the von
    Neumann entropy; :func:`entconvex.sweep.entropy_curve` must agree.
    """
    return [
        von_neumann_entropy(eigendecompose(pair.builder(float(a))), log_base)
        for a in np.linspace(0.0, 1.0, grid_size)
    ]
