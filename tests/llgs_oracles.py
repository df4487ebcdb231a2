"""Oracles for spinsc.llgs: the thermal-field draw and the effective field
written out as the model states them.  Each width of `llgs._integrate`
writes both out itself; tests/test_llgs.py and criterion 01 check it
against these."""

import numpy as np

from spinsc.llgs import DeviceParams, thermal_prefactor


def sample_thermal_field(params: DeviceParams, rng: np.random.Generator,
                         size: int | None = None) -> np.ndarray:
    """Draw the per-step thermal field; (3,) or (size, 3) in A/m.

    Each field sample consumes exactly 3 standard-normal draws.
    """
    pref = thermal_prefactor(params)
    if size is None:
        return pref * rng.standard_normal(3)
    return pref * rng.standard_normal((int(size), 3))


def effective_field(m, params: DeviceParams, applied=None) -> np.ndarray:
    """Anisotropy + hard-axis + applied field at magnetization m (A/m): the
    applied field b plus Hk mz along z and -Hd my along y."""
    m = np.asarray(m, dtype=float)
    b = np.zeros(3) if applied is None else np.asarray(applied, dtype=float)
    return np.stack(np.broadcast_arrays(b[..., 0], b[..., 1] - params.Hd * m[..., 1],
                                        b[..., 2] + params.Hk * m[..., 2]), axis=-1)
