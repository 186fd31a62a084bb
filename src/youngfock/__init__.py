"""Exact operator calculus on the Fock space of Young diagrams."""

from .partitions import HalfInt, Partition
from .fock import FockVector, MayaState, psi, vacuum
from .operators import (
    Bilinear,
    KerovParams,
    MVirasoro,
    VirasoroParams,
    boson_op,
    commutator_check,
    exp_raising,
    hook_diagonal,
    hook_lower,
    hook_raise,
    kerov_d,
    kerov_l,
    kerov_u,
    m_virasoro_op,
    virasoro_op,
)
from .measures import MeasureSpec, MiwaParams, WeightTable, correlation, weight_table
from .rings import Poly, Scalar

__version__ = "0.1.0"
