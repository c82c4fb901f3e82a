"""Multipath channel model over a half-wavelength uniform linear array.

All users sit close together and see the same set of scatterers, so their
channel vectors are independent ray sums over a shared list of path
angles. That shared geometry is what makes the spatial covariance common
across users, and the covariance eigenbasis is what the inner precoder is
built from.

:func:`ray_sum` and :func:`inner_precoder` accept a stack of
environments, path angles with leading (trial) axes, and return the
matching stack: each member equals, bitwise, the result of its own call.
:func:`path_gains`, :func:`sample_channel` and :func:`analytic_covariance`
take one environment and reject a stack.
"""

from dataclasses import dataclass
from functools import cached_property

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
        Angle of arrival per path, radians in [-pi/2, pi/2), on the last
        axis; leading axes hold a stack of environments.

    Per-path complex gains have average power ``1 / num_paths`` so that the
    total average channel power per antenna pair is one.
    """

    num_antennas: int
    path_angles: np.ndarray

    def __post_init__(self):
        if self.num_antennas < 1:
            raise ValueError("num_antennas must be a positive integer")
        angles = np.atleast_1d(np.asarray(self.path_angles, dtype=float))
        if angles.size == 0:
            raise ValueError("path_angles must be nonempty")
        if not np.all(np.isfinite(angles)):
            raise ValueError("path_angles must be finite")
        if np.any(angles < -HALF_PI) or np.any(angles >= HALF_PI):
            raise ValueError("path_angles must lie in [-pi/2, pi/2)")
        object.__setattr__(self, "path_angles", angles)

    @property
    def num_paths(self) -> int:
        return int(self.path_angles.shape[-1])

    @property
    def path_gain_variance(self) -> float:
        return 1.0 / self.num_paths

    @cached_property
    def steering(self) -> np.ndarray:
        """Half-wavelength ULA responses (antennas x paths), one column per path angle.

        Entry ``(m, l)`` is ``exp(1j * pi * sin(theta_l) * m)``, so every
        column has squared norm equal to the antenna count. Computed once
        per environment: the ray sum and the inner precoder share it.
        """
        sines = np.sin(self.path_angles)[..., None, :]
        return np.exp(1j * (np.pi * (np.arange(self.num_antennas)[:, None] * sines)))


def _sorted_steering(env: ScatteringEnvironment) -> np.ndarray:
    """The steering columns in ascending angle order, so that what is built
    from them does not depend on how ``path_angles`` happens to be permuted."""
    order = np.argsort(env.path_angles, axis=-1)[..., None, :]
    return np.take_along_axis(env.steering, order, axis=-1)


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


def _single(env: ScatteringEnvironment) -> None:
    if env.path_angles.ndim > 1:
        raise ValueError("expected one environment, got a stack of path angles")


def path_gains(
    env: ScatteringEnvironment, num_users: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw every user's per-path gains (paths x users) for one environment.

    Circularly-symmetric complex Gaussian of variance ``1 / num_paths``
    (real and imaginary parts each N(0, 1/(2L))). A stack of environments
    is rejected: its members would share one draw.
    """
    _single(env)
    if num_users < 1:
        raise ValueError("num_users must be a positive integer")
    shape = (env.num_paths, num_users)
    scale = np.sqrt(env.path_gain_variance / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def ray_sum(env: ScatteringEnvironment, gains: np.ndarray) -> np.ndarray:
    """The channel (antennas x users): each user's column is a ray sum
    over the environment's paths with that user's gains."""
    return env.steering @ gains


def sample_channel(
    env: ScatteringEnvironment, num_users: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw one channel matrix (antennas x users) from the environment."""
    return ray_sum(env, path_gains(env, num_users, rng))


def analytic_covariance(env: ScatteringEnvironment) -> np.ndarray:
    """Closed-form spatial covariance of a channel drawn from ``env``.

    Equals the average of the steering-vector outer products, which is
    Hermitian PSD with trace equal to the antenna count. Angles are
    summed in sorted order. The oracle for :func:`inner_precoder`, which
    never forms this matrix.
    """
    _single(env)
    s = _sorted_steering(env)
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
    u, _, _ = np.linalg.svd(_sorted_steering(env), full_matrices=False)
    return phase_canonicalize(u[..., :dim])
