"""The KKT polish over all N*M amplitudes, an oracle for `optimize`.

`optimize` runs its MM ascent and its KKT polish over the N tone
amplitudes on the effective channel ||h_n||, so a polish step solves at
most an (N + 1)^2 Newton system.  This module keeps the polish that
reduction replaced: Newton over the N*M real amplitudes s on the gains
|h|, with the (N, M, N, M) amplitude Hessian g_nm H_np g_pq, H the DC
kernel's Hessian in the received tones.  The tests compare `optimize`
against designs this polish finishes.
"""

import numpy as np

from multisine_wpt.optimizer import (_POLISH_MIN_SHARE, _WeightedDC, _ascents,
                                     _baselines, _smf_start,
                                     _stationarity_gap)


def amplitude_hessian(obj: _WeightedDC, s: np.ndarray):
    """(z, gradient, Hessian) of a one-rectenna objective on real gains g,
    in the amplitudes s; the Hessian has shape (N, M, N, M)."""
    z, grad, hess = obj.value_grad_hess(s, want_hess=True)
    [(_, gains)] = obj.terms
    return z, grad, gains[:, :, None, None] * hess[:, None, :, None] * gains


def kkt_polish(obj: _WeightedDC, s: np.ndarray, power: float) -> np.ndarray:
    """Newton on the relative stationarity rows [b - nu c, power - budget]
    over the N*M amplitudes with a log-gradient share above
    `_POLISH_MIN_SHARE`, an (NM_free + 1)^2 system per step; a coordinate
    stepped to zero or below is held at zero, and the input is kept unless
    the result verifiably improves it."""
    z_start, grad, _ = obj.value_grad_hess(s)
    free = s * grad > _POLISH_MIN_SHARE * z_start
    s_work = s.copy()
    nu = None
    for _ in range(30):
        z, grad, hess = amplitude_hessian(obj, s_work)
        s_free = s_work[free]
        n_free = s_free.size
        b = s_free * grad[free] / z
        c = s_free ** 2 / power
        if nu is None:
            nu = float(b @ c) / float(c @ c)
        res = np.concatenate([b - nu * c,
                              [(np.sum(s_work ** 2) - 2.0 * power)
                               / (2.0 * power)]])
        if np.max(np.abs(res)) <= 1e-13:
            break
        jac = np.zeros((n_free + 1, n_free + 1))
        jac[:n_free, :n_free] = (np.outer(s_free, s_free)
                                 * hess[free][:, free] / z
                                 - np.outer(b, b) - np.diag(nu * c))
        jac[:n_free, n_free] = -c
        jac[n_free, :n_free] = c
        try:
            delta = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            break
        s_next = s_free * np.maximum(1.0 + delta[:n_free], 0.0)
        if not np.any(s_next > 0):
            break
        nu = nu + delta[n_free]
        s_work = s_work.copy()
        s_work[free] = s_next
        free &= s_work > 0
    fixed_power = np.sum(s_work[~free] ** 2)
    scale_sq = (2.0 * power - fixed_power) / np.sum(s_work[free] ** 2)
    if scale_sq > 0:
        s_work[free] *= np.sqrt(scale_sq)
    if np.all(np.isfinite(s_work)) \
            and _stationarity_gap(s_work, *obj.value_grad_hess(s_work)[:2],
                                  power)[0] \
            < _stationarity_gap(s, *obj.value_grad_hess(s)[:2], power)[0] \
            and obj.value(s_work) >= z_start * (1.0 - 1e-9):
        return s_work
    return s


def polished(obj: _WeightedDC, s: np.ndarray, history: np.ndarray,
             stop_reason: str, power: float):
    """(s, history, stop reason) of a run after `kkt_polish`, which is kept
    when z stays within rounding of the endpoint."""
    s_polished = kkt_polish(obj, s, power)
    z_polished = obj.value(s_polished)
    if z_polished >= history[-1] * (1.0 - 1e-12):
        return s_polished, np.append(history, z_polished), stop_reason
    return s, history, stop_reason


def joint_design_zdc(h: np.ndarray, power: float, params, options) -> float:
    """z_dc of the N*M design: one run from the N*M SMF(3) on the gains |h|,
    finished by `polished`, then the best of it and the `mf`, `upmf`, `ass`
    and `up` baselines at the aligned phases on the complex channel."""
    gains = np.abs(h)
    obj = _WeightedDC([gains], [1.0], params)
    [(w, history, reason)] = _ascents(obj, [_smf_start(gains, power)], power,
                                      options)
    s = polished(obj, np.abs(w), history, reason, power)[0]
    rotor = np.exp(1j * -np.angle(h))
    scored = _WeightedDC([h], [1.0], params)
    return max(scored.value(c * rotor)
               for c in [s] + [b for b, _ in _baselines(h, power)])
