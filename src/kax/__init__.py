"""K-groups of square-zero multivariable extensions over finite coefficient rings."""

from .kcalc import (
    GroupExpr,
    GroupFactor,
    RingSpec,
    axes_relative_k,
    dual_numbers_k,
    integral_k_finite_field,
    order,
    relative_k,
    table,
)
from .tbounds import m_prime_bound, t_ev, t_od
from .witt import WittRing, big_witt_order, ghost, iso_with_zpn, order_Wn, witt_ring
from .words import (
    CyclicWord,
    canonicalize,
    count_aperiodic,
    count_axes,
    enumerate_aperiodic,
    enumerate_axes,
    period,
)

__all__ = [
    "GroupExpr",
    "GroupFactor",
    "RingSpec",
    "axes_relative_k",
    "dual_numbers_k",
    "integral_k_finite_field",
    "order",
    "relative_k",
    "table",
    "m_prime_bound",
    "t_ev",
    "t_od",
    "WittRing",
    "big_witt_order",
    "ghost",
    "iso_with_zpn",
    "order_Wn",
    "witt_ring",
    "CyclicWord",
    "canonicalize",
    "count_aperiodic",
    "count_axes",
    "enumerate_aperiodic",
    "enumerate_axes",
    "period",
]

__version__ = "0.1.0"
