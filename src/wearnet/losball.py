"""Equivalent LOS-ball reduction of the blockage process.

Averaging the LOS indicator over a PPP of interferers with density lambda
on a disk of radius r_net gives the mean number of unblocked interferers

    N_LOS = 2 pi lambda int_0^r_net exp(-lambda (r W + pi W^2/4)) r dr
          = (2 pi exp(-lambda pi W^2/4) / (W^2 lambda)) * f(lambda W r_net),

with f(x) = 1 - exp(-x)(1 + x).  Matching that count with an unblocked
disk of equal intensity defines the LOS ball radius

    R_LOS = sqrt(N_LOS / (lambda pi)),

which tends to r_net as lambda -> 0 and, for r_net -> infinity, to the
closed form sqrt(2) exp(-lambda pi W^2 / 8) / (lambda W).

Every function refuses its arguments up front with model.ConfigError:
density and W by the rules of the config fields density and
blockage_diameter (model.check_field), and an r_net that is not a finite
real number by model.check_real's names, a negative one NetRadiusTooSmall.
"""

from __future__ import annotations

import math

from .model import ConfigError, check_field, check_real


def _check(density, W, r_net=0.0):
    """The density as a Python float, once the arguments pass: a numpy
    scalar would warn where a product of it overflows, and the correctly
    rounded results there are those of the float."""
    density = check_field("density", density)
    check_field("blockage_diameter", W)
    check_real("r_net", r_net)
    if not r_net >= 0.0:
        raise ConfigError("NetRadiusTooSmall", f"r_net must be >= 0, got {r_net}")
    return density


def _f_over_x_sq(x):
    """f(x) / x^2 for f(x) = 1 - exp(-x)(1 + x) and 0 <= x < 1e-3.

    There the direct form of f loses all significant digits (f ~ x^2/2
    while both terms are ~1), so this is the Taylor series
    1/2 - x/3 + x^2/8 - x^3/30, truncation error below 1e-14 relative.
    Callers fold x^2 = (lambda W r_net)^2 into their prefactor: x^2 and
    lambda^2 underflow to 0 for lambda below about 1e-154.
    """
    return 1.0 / 2.0 + x * (-1.0 / 3.0 + x * (1.0 / 8.0 - x / 30.0))


def _one_minus_exp_linear(x):
    """f(x) = 1 - exp(-x)(1 + x) by its direct form, for x >= 1e-3; its
    limit 1 where lambda W r_net overflows to +inf (inf * exp(-inf) is NaN)."""
    return -math.expm1(-x) - x * math.exp(-x) if x < math.inf else 1.0


def mean_los_interferers(density, W, r_net):
    """Mean number of LOS interferers on the disk of radius r_net.

    Closed form of 2 pi lambda int_0^r_net (1 - p_b(r)) r dr; exact for any
    density >= 0 (zero density gives zero).
    """
    density = _check(density, W, r_net)
    if density == 0.0:
        return 0.0
    x = density * W * r_net
    shade = math.exp(-density * math.pi * W * W / 4.0)
    if x < 1e-3:
        return 2.0 * math.pi * shade * density * r_net * r_net * _f_over_x_sq(x)
    return 2.0 * math.pi * shade / (W * W * density) * _one_minus_exp_linear(x)


def los_ball_radius(density, W, r_net):
    """Radius of the unblocked disk holding the same mean interferer count.

    sqrt(mean_los_interferers / (lambda pi)), evaluated in a form that stays
    finite as density -> 0, where the ball fills the whole network disk.
    """
    density = _check(density, W, r_net)
    if density == 0.0:
        return float(r_net)
    x = density * W * r_net
    shade = 2.0 * math.exp(-density * math.pi * W * W / 4.0)
    if x < 1e-3:
        return r_net * math.sqrt(shade * _f_over_x_sq(x))
    return math.sqrt(shade / (W * W * density * density) * _one_minus_exp_linear(x))


def los_ball_radius_limit(density, W):
    """Large-network limit of the LOS ball radius,
    sqrt(2) exp(-lambda pi W^2 / 8) / (lambda W).  Infinite at zero density."""
    density = _check(density, W)
    if density == 0.0:
        return math.inf
    return math.sqrt(2.0) * math.exp(-density * math.pi * W * W / 8.0) / (density * W)

