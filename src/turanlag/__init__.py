"""Hypergraph Turan toolkit: constructions, Lagrangian optimization on the
simplex, symmetrization with cleaning, and exact small-scale extremal search."""

__version__ = "0.1.0"

from .hypergraph import *
from .constructions import *
from .lagrangian import *
from .symmetrization import *
from .extremal import *
from .hgio import *
