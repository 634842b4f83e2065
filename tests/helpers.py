"""Helpers shared by the test modules."""

import numpy as np


def cluster(spec, center, window, floor_rel=0.002):
    """(intensity-weighted centre, summed intensity) of the sticks within
    window of center and above floor_rel of the strongest; (None, 0.0) if none.

    window has no default: neighbouring symmetric sectors sit 3.7e-5 hartree
    apart at N = 3 and 2.1e-5 at N = 5, so a window fit for one test merges
    sectors in another.
    """
    floor = floor_rel * spec.intensity.max()
    m = (np.abs(spec.omega - center) < window) & (spec.intensity > floor)
    if not m.any():
        return None, 0.0
    w = spec.intensity[m]
    return float(np.average(spec.omega[m], weights=w)), float(w.sum())
