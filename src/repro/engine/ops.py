"""Query inputs for the execution engine's experiments (§5.1).

The paper's Fig. 19/21 queries select rows through externally supplied
position bitmaps; :func:`zipf_cluster_bitmap` generates them.  The
queries themselves are :mod:`repro.exec` plans (a positional
:class:`~repro.exec.Bitmap` filter term, then an aggregate).
"""

from __future__ import annotations

import numpy as np


def zipf_cluster_bitmap(n: int, selectivity: float, clusters: int = 10,
                        seed: int = 0) -> np.ndarray:
    """Fig. 19's bitmaps: ``clusters`` set-bit runs with Zipf-like sizes."""
    rng = np.random.default_rng(seed)
    target = max(int(n * selectivity), 1)
    weights = 1.0 / np.arange(1, clusters + 1)
    weights /= weights.sum()
    sizes = np.maximum((weights * target).astype(np.int64), 1)
    bitmap = np.zeros(n, dtype=bool)
    starts = np.sort(rng.integers(0, max(n - int(sizes.max()) - 1, 1),
                                  clusters))
    for start, size in zip(starts, sizes):
        bitmap[start: start + int(size)] = True
    return bitmap
