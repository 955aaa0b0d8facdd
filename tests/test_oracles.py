"""Re-derive every frozen constant with mpmath at 30 digits.

The library itself never touches these derivations; they pin the
expected values that the example and acceptance tests assert against.
"""

import mpmath as mp

import frozen_values as fv
from mp_thermal import mp_thermal_point

mp.mp.dps = 30
QUBIT = ((0, 1), (1, 1))  # (energy, degeneracy)


def _beta_eff(b1, b2):
    _, e1, s1, _ = mp_thermal_point(QUBIT, b1)
    _, e2, s2, _ = mp_thermal_point(QUBIT, b2)
    return (s1 - s2) / (e1 - e2)


def _close(frozen, exact, tol=1e-12):
    assert abs(frozen - float(exact)) <= tol, f"{frozen} vs {mp.nstr(exact, 20)}"


def test_qubit_thermal_point_constants():
    log_z, energy, entropy, variance = mp_thermal_point(QUBIT, mp.mpf(1))
    _close(fv.QUBIT_E_BETA1, energy)
    _close(fv.QUBIT_S_BETA1, entropy)
    _close(fv.QUBIT_LOGZ_BETA1, log_z)
    _close(fv.QUBIT_VAR_BETA1, variance)


def test_beta_eff_constant():
    _close(fv.BETA_EFF_1_2, _beta_eff(mp.mpf(1), mp.mpf(2)))


def test_engine_constants():
    b_cold = _beta_eff(mp.mpf(2), mp.mpf("1.5"))
    b_hot = _beta_eff(mp.mpf("0.5"), mp.mpf(1))
    _close(fv.ETA_ENGINE_EXAMPLE, 1 - b_hot / b_cold)
    _close(fv.ETA_REFRIG_EXAMPLE, 1 / (b_cold / b_hot - 1))


def test_erasure_constant():
    _close(fv.ERASURE_EXAMPLE, mp.log(2) / _beta_eff(mp.mpf(2), mp.mpf(1)))


def test_rate_constant():
    _close(fv.RATE_QUBIT_EXAMPLE, 1 - mp.mpf("0.2") / mp.log(2))


def test_exchange_constants():
    s_rho = -(mp.mpf("0.75") * mp.log(mp.mpf("0.75")) + mp.mpf("0.25") * mp.log(mp.mpf("0.25")))
    _close(fv.S_DIAG_75_25, s_rho)
    _, e1, s1, _ = mp_thermal_point(QUBIT, mp.mpf(1))
    _, e2, s2, _ = mp_thermal_point(QUBIT, mp.mpf(2))
    _close(fv.EXCHANGE_M_OVER_N, (mp.log(2) - s_rho) / (s1 - s2))
    b_eff = _beta_eff(mp.mpf(1), mp.mpf(2))
    work = (mp.mpf("0.25") - mp.mpf("0.5")) - (s_rho - mp.log(2)) / b_eff
    heat = (mp.log(2) - s_rho) / b_eff
    _close(fv.EXCHANGE_W, work)
    _close(fv.EXCHANGE_Q, heat)
    assert abs(float(heat - work) - 0.25) < 1e-25


def test_reservoir_lead_constant():
    s_rho = -(mp.mpf("0.75") * mp.log(mp.mpf("0.75")) + mp.mpf("0.25") * mp.log(mp.mpf("0.25")))
    var = mp_thermal_point(QUBIT, mp.mpf(1))[3]
    _close(fv.RESERVOIR_LEAD_EXAMPLE, (mp.log(2) - s_rho) / (var * mp.mpf("0.01")), tol=1e-10)


def test_decomposition_constants():
    c_beta = mp.mpf("0.4") / mp.log(2)
    _close(fv.DECOMP_C_BETA, c_beta)
    c_max = (mp.mpf("0.5") - c_beta * mp.mpf("0.5")) / 1
    _close(fv.DECOMP_C_EDGE, c_max)
    _close(fv.DECOMP_C_EDGE, 1 - c_beta - c_max)
