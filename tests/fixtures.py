"""The graphs, vertex orders and descendant vectors the test modules share.

Each is defined here once; a test module imports the ones it reads.
"""

from trofey.graphs import FeynmanGraph, identity_order

TRIANGLE = FeynmanGraph(3, ((1, 2), (2, 3), (1, 3)))
RIGHT = FeynmanGraph(3, ((1, 1), (1, 2), (2, 3), (1, 3)))
MIDDLE = FeynmanGraph(3, ((1, 2), (1, 2), (1, 3), (1, 3)))
THETA = FeynmanGraph(2, ((1, 2), (1, 2), (1, 2)))
DUMBBELL = FeynmanGraph(2, ((1, 1), (2, 2), (1, 2)))
EDGE = FeynmanGraph(2, ((1, 2),))
DBL_DBL = FeynmanGraph(4, ((1, 2), (1, 2), (1, 3), (2, 4), (3, 4), (3, 4)))
K4 = FeynmanGraph(4, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)))
PRISM = FeynmanGraph(
    6, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 5), (3, 6), (4, 5), (4, 6), (5, 6))
)
ID2 = identity_order(2)
ID3 = identity_order(3)

# the descendant vectors of the acceptance sweeps
SWEEP_KS = [(1, 1), (2, 0, 0), (1, 1, 1, 1), (2, 2), (3, 1)]
