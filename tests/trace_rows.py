"""Hand-made ``SampleTrace``s for the tests."""

import numpy as np

from metriclab import adversarial as adv


def grouped_trace(depth, letters, tie_keys):
    """The trace of hand-made rows, given row by row as an atom depth (-1
    on a diffuse row), D letters and a tie key: the rows sorted into the
    layout of ``draw_trace`` (the diffuse rows, then the atoms from depth D
    down to 0), each group keeping the rows' given order."""
    depth, letters = np.asarray(depth), np.asarray(letters)
    groups = [np.flatnonzero(depth == d) for d in adv._layout_depths(letters.shape[1])]
    rows = np.concatenate(groups)
    assert len(rows) == len(depth), "every depth lies in -1..D"
    sizes = np.array([len(group) for group in groups])
    return adv.SampleTrace(sizes, letters[rows], np.asarray(tie_keys, dtype=np.float64)[rows])
