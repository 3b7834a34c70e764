"""Closed-form upper bounds for the automorphism dimension and related counts.

The bound chain starts from the graded decomposition (translations plus the
half-weight piece are free, the rest is capped) and weakens step by step:
first the computed half- and top-weight dimensions, then their structural
caps 2(n-k) and k, then the skew-space cap (n-k)^2, and finally the cone
algebra cap, which leaves a closed form in n and k alone. All values are
exact rationals; the closed form has half-integer coefficients that must not
be rounded.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import ValidationError
from .frozen import Frozen
from .linalg import _int


class BoundReport(Frozen):
    n: int
    k: int
    s: int
    dim_g_omega: int
    dim_g_half: int
    dim_g_1: int
    component_bound: Fraction
    graded_cap_bound: Fraction
    skew_cap_bound: Fraction
    closed_form_bound: Fraction


def closed_form_bound(n: int, k: int) -> Fraction:
    """The (n, k)-only cap: 3k^2/2 - k(2n + 5/2) + n^2 + 4n + 1."""
    n, k = _int(n, "n"), _int(k, "k")
    if not 1 <= k <= n:
        raise ValidationError("need 1 <= k <= n")
    return (
        Fraction(3 * k * k, 2)
        - k * (2 * n + Fraction(5, 2))
        + n * n
        + 4 * n
        + 1
    )


def bound_chain(
    n: int,
    k: int,
    s: int,
    dim_g_omega: int,
    dim_g_half: int,
    dim_g_1: int,
) -> BoundReport:
    closed_form = closed_form_bound(n, k)  # reads n and k, and checks 1 <= k <= n
    counts = {"s": s, "dim_g_omega": dim_g_omega, "dim_g_half": dim_g_half, "dim_g_1": dim_g_1}
    if min(_int(x, what) for what, x in counts.items()) < 0:
        raise ValidationError("counts must be nonnegative")
    m = n - k
    base = k + 2 * m + s + dim_g_omega
    component = Fraction(base + dim_g_half + dim_g_1)
    graded_cap = Fraction(base + 2 * m + k)
    skew_cap = Fraction(2 * k + 4 * m + m * m + dim_g_omega)
    return BoundReport(
        n=n,
        k=k,
        s=s,
        dim_g_omega=dim_g_omega,
        dim_g_half=dim_g_half,
        dim_g_1=dim_g_1,
        component_bound=component,
        graded_cap_bound=graded_cap,
        skew_cap_bound=skew_cap,
        closed_form_bound=closed_form,
    )


class SweepEntry(Frozen):
    n: int
    k: int
    bound: Fraction
    margin: Fraction   # bound - (n^2 - 2); negative rules the pair out


# the sweep lists about n_max^2 / 2 pairs, so an unbounded n_max may never finish
SWEEP_MAX = 200


def closed_form_sweep(n_max: int) -> tuple[SweepEntry, ...]:
    """Margins of the closed-form bound against n^2 - 2 for 5 <= n <= n_max, k >= 3.

    A negative margin for every pair shows no homogeneity candidate with a
    cone of dimension three or more survives at that automorphism dimension.
    Values below n = 5 are deliberately not swept: the exclusion argument
    starts there. Sweeps past ``SWEEP_MAX`` are refused.
    """
    if _int(n_max, "n_max") < 5:
        raise ValidationError("sweep starts at n = 5")
    if n_max > SWEEP_MAX:
        raise ValidationError(f"sweep stops at n = {SWEEP_MAX}")
    entries = []
    for n in range(5, n_max + 1):
        target = n * n - 2
        for k in range(3, n + 1):
            bound = closed_form_bound(n, k)
            entries.append(SweepEntry(n, k, bound, bound - target))
    return tuple(entries)


def s_from_multiplicities(n: int, multiplicities: Sequence[int]) -> int:
    """Skew-space dimension for k = 2 families (identity, diagonal).

    The second form has n - 2 eigenvalues grouped by the multiplicity
    partition; each unordered pair of distinct eigenvalues kills two real
    parameters, so s = (n - 2)^2 - 2 * (number of such pairs).
    """
    n, mults = _int(n, "n"), [_int(x, "a multiplicity") for x in multiplicities]
    if any(x < 1 for x in mults) or sum(mults) != n - 2:
        raise ValidationError("multiplicities must be a partition of n - 2")
    total = n - 2
    all_pairs = total * (total - 1) // 2
    same_pairs = sum(x * (x - 1) // 2 for x in mults)
    distinct_pairs = all_pairs - same_pairs
    return (n - 2) ** 2 - 2 * distinct_pairs
