"""annote-kb: a knowledge base for document annotations.

Annotations attach attribute/value pairs to documents (or to other
annotations).  The base classifies them as explicit or implicit, infers
missing attributes or values from the explicit facts, and answers boolean
queries, including constrained searches over bare terms that are rewritten
against the inferred attributes.

The public API is __all__: each module declares its own part of it, and
the package re-exports those names.
"""

from .errors import *
from .factfile import *
from .inference import *
from .model import *
from .query import *
from .store import *

__all__ = (
    errors.__all__
    + factfile.__all__
    + inference.__all__
    + model.__all__
    + query.__all__
    + store.__all__
)
