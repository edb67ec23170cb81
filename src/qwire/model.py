"""Physical parameterization of the two-node wire and bath statistics.

Units: node masses, hbar and k_B are all 1, so frequencies, temperatures
and energies share the same scale.  The coupling k has units of frequency
squared and the dissipation strength lambda_sq is dimensionless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

#: WireParams' domain.  Beyond a bound a solver raised or every method was
#: NaN with no reason: omega^2 under- or overflowed, exact or Redfield
#: overflowed, Omega_-^2 rounded to 0 or the local moment matrix was singular
FREQUENCY_RANGE = (1e-8, 1e8)
MAX_LAMBDA_SQ = 1e100
MAX_RATIO = 1e8


@dataclass(frozen=True)
class WireParams:
    """Full configuration of the wire + baths.

    omega_c, omega_h : bare node frequencies, in FREQUENCY_RANGE
    k                : inter-node coupling strength (>= 0, frequency^2)
    t_c, t_h         : bath temperatures (> 0)
    lambda_sq        : dissipation strength lambda^2, <= MAX_LAMBDA_SQ
    cutoff           : high-frequency cutoff of the Ohmic spectral density,
                       above both node frequencies

    omega_max^2 / omega_min^2, k / omega_min^2, cutoff / omega_min,
    T / omega_min and omega_max / lambda_sq are at most MAX_RATIO; a value
    outside this domain raises ValueError naming the bound and the value.
    """

    omega_c: float
    omega_h: float
    k: float
    t_c: float
    t_h: float
    lambda_sq: float
    cutoff: float

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.k < 0:
            raise ValueError("coupling k must be non-negative")
        if self.t_c <= 0 or self.t_h <= 0:
            raise ValueError("bath temperatures must be positive")
        omega_min, omega_max = sorted((self.omega_c, self.omega_h))
        for name, (lo, hi) in (
                ("omega_c", FREQUENCY_RANGE), ("omega_h", FREQUENCY_RANGE),
                ("lambda_sq", (omega_max / MAX_RATIO, MAX_LAMBDA_SQ))):
            value = getattr(self, name)
            if not lo <= value <= hi:
                raise ValueError(f"{name} must be in [{lo:g}, {hi:g}], "
                                 f"got {value!r}")
        if self.cutoff <= omega_max:
            raise ValueError("cutoff must exceed both node frequencies")
        for name, ratio in (("omega_max^2 / omega_min^2",
                             omega_max**2 / omega_min**2),
                            ("k / omega_min^2", self.k / omega_min**2),
                            ("cutoff / omega_min", self.cutoff / omega_min),
                            ("t_c / omega_min", self.t_c / omega_min),
                            ("t_h / omega_min", self.t_h / omega_min)):
            if ratio > MAX_RATIO:
                raise ValueError(f"{name} must be at most {MAX_RATIO:g}, "
                                 f"got {ratio!r}")


@dataclass(frozen=True)
class NormalModes:
    """Mixing weights and frequencies of the two normal modes.

    omega_plus >= omega_minus.  cos_sq, sin_sq and sin_cos are cos^2, sin^2
    and sin cos of the mixing angle in [0, pi/2], formed without
    subtraction, so they keep their relative accuracy where the angle
    nears 0 or pi/2.  splitting = Omega_+^2 - Omega_-^2.
    """

    omega_plus: float
    omega_minus: float
    cos_sq: float
    sin_sq: float
    sin_cos: float
    splitting: float


def normal_modes(params: WireParams) -> NormalModes:
    """Diagonalize the coupled two-node potential.

    With d = omega_h^2 - omega_c^2 and root = sqrt(4k^2 + d^2),
    cos^2(theta) = (root - d) / (2 root), taken as
    2k^2 / (root (root + d)) for d > 0 so that weak coupling does not
    cancel (sin^2 likewise for d < 0), sin cos = k / root and
    Omega_pm^2 = (omega_c^2 + omega_h^2 + 2k +- root) / 2.

    k = 0, d = 0 returns equal weights (the continuous resonant limit).
    """
    k = params.k
    d = params.omega_h**2 - params.omega_c**2
    root = math.hypot(2.0 * k, d)
    if root == 0.0:
        cos2 = sin2 = sin_cos = 0.5
    else:
        sin_cos = k / root
        small = 2.0 * sin_cos * k / (root + abs(d))
        large = (root + abs(d)) / (2.0 * root)
        cos2, sin2 = (small, large) if d > 0 else (large, small)
    tr = params.omega_c**2 + params.omega_h**2 + 2.0 * k
    om_p = math.sqrt(0.5 * (tr + root))
    om_m = math.sqrt(0.5 * (tr - root))
    return NormalModes(omega_plus=om_p, omega_minus=om_m, cos_sq=cos2,
                       sin_sq=sin2, sin_cos=sin_cos, splitting=root)


def spectral_density(omega, params: WireParams):
    """Ohmic spectral density with Lorentz-Drude cutoff.

    J(w) = lambda^2 w cutoff^2 / (w^2 + cutoff^2); odd in w.  omega is a
    float or a numpy array.
    """
    return (params.lambda_sq * omega * params.cutoff**2
            / (omega**2 + params.cutoff**2))


def occupation(omega: float, temperature: float) -> float:
    """Bose-Einstein occupation n = 1/(exp(w/T) - 1) for w > 0."""
    if omega <= 0:
        raise ValueError("occupation requires omega > 0")
    if temperature <= 0:
        raise ValueError("occupation requires T > 0")
    x = omega / temperature
    if x > 700.0:
        return 0.0
    return 1.0 / math.expm1(x)


def secular_validity_margin(params: WireParams) -> float:
    """Ratio of dissipation strength to the +/- normal-mode gap.

    r = lambda^2 / sqrt(splitting^2 / (2 (omega_h^2 + omega_c^2))).
    r << 1 means the secular approximation (and hence the global GKLS
    solution) is trustworthy; r >~ 1 flags its breakdown.
    """
    gap = (normal_modes(params).splitting
           / math.sqrt(2.0 * (params.omega_h**2 + params.omega_c**2)))
    if gap == 0.0:
        return math.inf
    return params.lambda_sq / gap


def rotation_matrix(modes: NormalModes) -> np.ndarray:
    """Orthogonal map from normal-mode quadratures to local ones.

    Maps (eta_+, Pi_+, eta_-, Pi_-) to (X_c, P_c, X_h, P_h): with
    c = sqrt(cos_sq) and s = sqrt(sin_sq), X_c = c eta_+ + s eta_-,
    X_h = -s eta_+ + c eta_-, and identically for the momenta.
    """
    c, s = math.sqrt(modes.cos_sq), math.sqrt(modes.sin_sq)
    return np.array([
        [c, 0.0, s, 0.0],
        [0.0, c, 0.0, s],
        [-s, 0.0, c, 0.0],
        [0.0, -s, 0.0, c],
    ])
