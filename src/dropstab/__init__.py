"""Mean-square stabilizability of linear plants over lossy input channels.

The package decides whether a discrete-time MIMO plant can be stabilized in
mean square when each actuator command crosses an independent Bernoulli
packet-drop link, maps the admissible dropout-probability region, builds the
optimal stabilizing controller for a certified operating point, and checks
the verdict two independent ways (exact second-moment propagation and
Monte-Carlo simulation).  The ``dropstab`` console script exposes the same
pipeline on files.
"""

from .stabilizability import ChannelSpec, membership, rectangle_set, synthesize
from .statespace import TransferMatrix, realize
from .verification import assemble, second_moment_radius

__version__ = "0.1.0"

# the names the README's Library example imports; every other name is
# imported from its module (``dropstab.factorization`` and so on)
__all__ = [
    "ChannelSpec",
    "TransferMatrix",
    "assemble",
    "membership",
    "realize",
    "rectangle_set",
    "second_moment_radius",
    "synthesize",
]
