"""Exact integer bound formulas for dimension estimates of crossed products.

All functions return plain Python integers, so the values stay exact at any
size.  f_bound has two independent evaluation routes, a recursion and a
product form, kept separate so tests can compare them.
"""

from __future__ import annotations

import math


def f_bound(n: int) -> int:
    """The iterated crossed-product bound: f(0) = 0, f(1) = 1, then

        f(n) = 9^n (n+1) (f(n-1) + 1) - 1   for n >= 2.

    The n = 1 value is pinned directly (one cyclic step needs only a single
    stabilization), which is why the recursion starts at n = 2.
    """
    if n < 0:
        raise ValueError(f"f_bound needs n >= 0, got {n}")
    if n == 0:
        return 0
    val = 1
    for m in range(2, n + 1):
        val = 9**m * (m + 1) * (val + 1) - 1
    return val


def f_closed_form(n: int) -> int:
    """Product form of f_bound: (n+1)! * 9^((n+2)(n-1)/2) - 1 for n >= 1,
    with the seed value 0 at n = 0.  Evaluated independently of the
    recursion so the two can be cross-checked."""
    if n < 0:
        raise ValueError(f"f_closed_form needs n >= 0, got {n}")
    if n == 0:
        return 0
    return math.factorial(n + 1) * 9 ** ((n + 2) * (n - 1) // 2) - 1


def hw_product_bound(asdim_p1: int, ltc_p1: int, dstab: int) -> int:
    """Three-factor dimension bound (asdim+1)(ltc+1)(dstab+1) - 1.

    The first two arguments are already the "+1" quantities: an asymptotic
    dimension bound plus one, and a topological-complexity bound plus one;
    dstab is a plain dimension and gets shifted here.
    """
    if asdim_p1 < 0 or ltc_p1 < 0 or dstab < 0:
        raise ValueError("all arguments must be non-negative")
    return asdim_p1 * ltc_p1 * (dstab + 1) - 1


def nilpotent_input_bounds(k: int, dimX: int) -> tuple[int, int]:
    """Coarse-geometry inputs for a group of polynomial growth degree k
    acting on a space of covering dimension dimX:

        asdim + 1 <= 3^k      and      dim_LTC + 1 <= 3^k (dimX + 1).

    Returns the pair of right-hand sides, ready for hw_product_bound.
    """
    if k < 0 or dimX < 0:
        raise ValueError("growth degree and dimension must be non-negative")
    return 3**k, 3**k * (dimX + 1)


def twisted_bound(h_g: int, h_h2: int) -> int:
    """Nuclear-dimension bound for a twisted group algebra over a group of
    Hirsch length h_g whose second homology has Hirsch length h_h2: f of
    the sum."""
    if h_g < 0 or h_h2 < 0:
        raise ValueError("Hirsch lengths must be non-negative")
    return f_bound(h_g + h_h2)


def wreath_bound_finite_K(k: int) -> int:
    """Bound 2 * 9^k for a finite-fiber wreath-type crossed product over an
    acting group of polynomial growth degree k; the fiber dimension does
    not enter the value."""
    if k < 0:
        raise ValueError(f"growth degree must be non-negative, got {k}")
    return 2 * 9**k
