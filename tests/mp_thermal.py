"""mpmath reference for the thermal state of a level list."""

import mpmath


def mp_thermal_point(levels, beta):
    """(log Z, E, S, Var) at ``beta`` on (energy, degeneracy) ``levels``, at mpmath's working precision."""
    weights = [(g * mpmath.exp(-beta * mpmath.mpf(e)), mpmath.mpf(e)) for e, g in levels]
    z = mpmath.fsum(w for w, _ in weights)
    energy = mpmath.fsum(w * e for w, e in weights) / z
    variance = mpmath.fsum(w * (e - energy) ** 2 for w, e in weights) / z
    return mpmath.log(z), energy, mpmath.log(z) + beta * energy, variance
