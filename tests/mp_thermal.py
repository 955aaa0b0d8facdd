"""mpmath references for the thermal state of a level list: the thermal
point, both inverse solves, and the root of the curved facet's slack
along a ray of cone points. Each works at mpmath's working precision;
callers set it (40 digits in the tests)."""

import mpmath


def mp_thermal_point(levels, beta):
    """(log Z, E, S, Var) at ``beta`` on (energy, degeneracy) ``levels``, at mpmath's working precision."""
    weights = [(g * mpmath.exp(-beta * mpmath.mpf(e)), mpmath.mpf(e)) for e, g in levels]
    z = mpmath.fsum(w for w, _ in weights)
    energy = mpmath.fsum(w * e for w, e in weights) / z
    variance = mpmath.fsum(w * (e - energy) ** 2 for w, e in weights) / z
    return mpmath.log(z), energy, mpmath.log(z) + beta * energy, variance


def _span(levels):
    return mpmath.mpf(levels[-1][0]) - mpmath.mpf(levels[0][0])


def mp_beta_from_energy(levels, energy, start, cap=mpmath.inf):
    """The beta with E(tau_beta) = ``energy``, by mpmath's secant iteration
    from ``start``. An energy beyond E(+-cap) gives +-cap, the library's
    plateau rule (pass its ``beta_cap``)."""
    energy = mpmath.mpf(energy)
    for end in (cap, -cap):
        if mpmath.isfinite(end) and (mp_thermal_point(levels, end)[1] - energy) * end >= 0:
            return mpmath.mpf(end)
    # in t = beta*span and in span units, so the tolerances are unit-free
    span = _span(levels)
    t = mpmath.findroot(lambda t: (mp_thermal_point(levels, t / span)[1] - energy) / span, mpmath.mpf(start) * span)
    return t / span


def mp_beta_from_entropy(levels, entropy, start):
    """The beta with S(tau_beta) = ``entropy`` on the sign branch of
    ``start``, by mpmath's secant iteration from it."""
    entropy, span = mpmath.mpf(entropy), _span(levels)
    return mpmath.findroot(lambda t: mp_thermal_point(levels, t / span)[2] - entropy, mpmath.mpf(start) * span) / span


def mp_boundary_root(levels, rho, sigma, start, beta_start, cap=mpmath.inf):
    """The root r of g(r) = n*S_max(E/n) - S along rho - r*sigma, points
    given as (E, S, n), by mpmath's Anderson iteration on a bracket of
    width 2e-9 * max(1, start) around ``start``. S_max at each E/n comes
    from ``mp_beta_from_energy`` started at ``beta_start`` (with ``cap``)."""
    (e_rho, s_rho, n_rho), (e_sigma, s_sigma, n_sigma) = (map(mpmath.mpf, y) for y in (rho, sigma))

    def g(r):
        n = n_rho - r * n_sigma
        beta = mp_beta_from_energy(levels, (e_rho - r * e_sigma) / n, beta_start, cap)
        return n * mp_thermal_point(levels, beta)[2] - (s_rho - r * s_sigma)

    width = mpmath.mpf(1e-9) * max(1.0, start)
    return mpmath.findroot(g, (start - width, start + width), solver="anderson")
