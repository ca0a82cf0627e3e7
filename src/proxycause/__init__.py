"""Causal direction between static entities via proxy projections.

A pair of static objects (two images, two words) has no sampling
distribution of its own.  Projecting both through a shared random proxy
(random image patches, random vocabulary words) yields a two-dimensional
sample whose causal footprint standard observational engines can read.

Each module's ``__all__`` is the one statement of what it makes public;
the package exports exactly their concatenation.
"""

from . import anm, core, experiments, independence, proxy_image, proxy_text, rcc
from .anm import *  # noqa: F403
from .core import *  # noqa: F403
from .experiments import *  # noqa: F403
from .independence import *  # noqa: F403
from .proxy_image import *  # noqa: F403
from .proxy_text import *  # noqa: F403
from .rcc import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *core.__all__,
    *independence.__all__,
    *anm.__all__,
    *rcc.__all__,
    *proxy_image.__all__,
    *proxy_text.__all__,
    *experiments.__all__,
]
