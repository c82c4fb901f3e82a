"""Multipath channel model over a half-wavelength uniform linear array.

All users sit close together and see the same set of scatterers, so their
channel vectors are independent ray sums over a shared list of path
angles. That shared geometry is what makes the spatial covariance common
across users, and the covariance eigenbasis is what the inner precoder is
built from.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import phase_canonicalize

HALF_PI = np.pi / 2


@dataclass(frozen=True, eq=False)
class ScatteringEnvironment:
    """Shared set of propagation paths for a group of co-located users.

    Attributes
    ----------
    num_antennas : int
        Array size of the uniform linear array at the base station.
    path_angles : np.ndarray
        Angle of arrival per path, radians in [-pi/2, pi/2).

    Per-path complex gains have average power ``1 / num_paths`` so that the
    total average channel power per antenna pair is one.
    """

    num_antennas: int
    path_angles: np.ndarray

    def __post_init__(self):
        if self.num_antennas < 1:
            raise ValueError("num_antennas must be a positive integer")
        angles = np.atleast_1d(np.asarray(self.path_angles, dtype=float))
        if angles.ndim != 1 or angles.size == 0:
            raise ValueError("path_angles must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(angles)):
            raise ValueError("path_angles must be finite")
        if np.any(angles < -HALF_PI) or np.any(angles >= HALF_PI):
            raise ValueError("path_angles must lie in [-pi/2, pi/2)")
        object.__setattr__(self, "path_angles", angles)

    @property
    def num_paths(self) -> int:
        return int(self.path_angles.size)

    @property
    def path_gain_variance(self) -> float:
        return 1.0 / self.num_paths


def _steering_matrix(env: ScatteringEnvironment, angles=None) -> np.ndarray:
    """Half-wavelength ULA responses, one column per path angle.

    Entry ``(m, l)`` is ``exp(1j * pi * sin(theta_l) * m)``, so every
    column has squared norm equal to the antenna count.
    """
    if angles is None:
        angles = env.path_angles
    phase = np.pi * np.outer(np.arange(env.num_antennas), np.sin(angles))
    return np.exp(1j * phase)


def draw_environment(
    num_antennas: int,
    num_paths: int,
    rng: np.random.Generator,
    *,
    sector_center: float = 0.0,
    sector_spread: float = np.pi,
) -> ScatteringEnvironment:
    """Draw path angles i.i.d. uniform over an angular sector.

    The sector is ``[center - spread/2, center + spread/2)`` and draws are
    clipped back into [-pi/2, pi/2). A non-positive spread is rejected; a
    point source is expressed with a tiny positive spread instead.
    """
    if num_paths < 1:
        raise ValueError("num_paths must be a positive integer")
    if not np.isfinite(sector_center):
        raise ValueError("sector_center must be finite")
    if not (sector_spread > 0.0) or not np.isfinite(sector_spread):
        raise ValueError("sector_spread must be positive and finite")
    low = sector_center - sector_spread / 2.0
    angles = low + sector_spread * rng.random(num_paths)
    angles = np.clip(angles, -HALF_PI, np.nextafter(HALF_PI, 0.0))
    return ScatteringEnvironment(num_antennas, angles)


def sample_channel(
    env: ScatteringEnvironment, num_users: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw one channel matrix (antennas x users) from the environment.

    Every user's column is a ray sum over the same path angles with its
    own circularly-symmetric complex Gaussian gains of variance
    ``1 / num_paths`` (real and imaginary parts each N(0, 1/(2L))).
    """
    if num_users < 1:
        raise ValueError("num_users must be a positive integer")
    shape = (env.num_paths, num_users)
    scale = np.sqrt(env.path_gain_variance / 2.0)
    gains = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return _steering_matrix(env) @ gains


def analytic_covariance(env: ScatteringEnvironment) -> np.ndarray:
    """Closed-form spatial covariance of a channel drawn from ``env``.

    Equals the average of the steering-vector outer products, which is
    Hermitian PSD with trace equal to the antenna count. Angles are
    summed in sorted order so the result does not depend on how
    ``path_angles`` happens to be permuted. The oracle for
    :func:`inner_precoder`, which never forms this matrix.
    """
    s = _steering_matrix(env, np.sort(env.path_angles))
    r = (s @ s.conj().T) / env.num_paths
    return (r + r.conj().T) / 2.0


def inner_precoder(env: ScatteringEnvironment, dim: int) -> np.ndarray:
    """Top-``dim`` eigenvectors of the spatial covariance (antennas x dim).

    The covariance is ``S S^H / L`` for the steering matrix ``S`` of the
    sorted angles, so these are the top left singular vectors of ``S``:
    orthonormal, phase-canonicalized, and at most ``min(M, L)`` of them.
    """
    if not 1 <= dim <= min(env.num_antennas, env.num_paths):
        raise ValueError(f"dim must be in [1, min(M, L)], got {dim}")
    s = _steering_matrix(env, np.sort(env.path_angles))
    u, _, _ = np.linalg.svd(s, full_matrices=False)
    return phase_canonicalize(u[:, :dim])
