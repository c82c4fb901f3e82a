"""Multipath channel model over a half-wavelength uniform linear array.

All users sit close together and see the same set of scatterers, so their
channel vectors are independent ray sums over a shared list of path
angles. That shared geometry is what makes the spatial covariance common
across users, and the covariance eigenbasis is what the inner precoder is
built from.

An environment is one list of path angles. A trial's random draws are L
uniforms, then 2LP standard normals; :func:`sector_angles` and
:func:`gains_from_normals` turn them into path angles and gains, for one
environment (:func:`draw_environment`, :func:`path_gains`) or for the
sweep's stack of trials, which builds no environment. The sweep takes each
trial's effective Gram from the L x L path Gram (:func:`path_effective_channel`);
:func:`ray_sum`, :func:`sample_channel`, :func:`inner_precoder` and
:func:`~d2dcoop.precoding.effective_channel` are the oracle chain over the
M antennas, for the link-level oracle and the tests.
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
        if angles.ndim > 1:
            raise ValueError("expected one environment, got a stack of path angles")
        if angles.size == 0:
            raise ValueError("path_angles must be nonempty")
        if not np.all(np.isfinite(angles)):
            raise ValueError("path_angles must be finite")
        if np.any(angles < -HALF_PI) or np.any(angles >= HALF_PI):
            raise ValueError("path_angles must lie in [-pi/2, pi/2)")
        object.__setattr__(self, "path_angles", angles)

    @property
    def num_paths(self) -> int:
        return len(self.path_angles)

    @cached_property
    def steering(self) -> np.ndarray:
        """Half-wavelength ULA responses (antennas x paths), one column per path angle.

        Entry ``(m, l)`` is ``exp(1j * pi * sin(theta_l) * m)``, so every
        column has squared norm equal to the antenna count. Computed once
        per environment: the ray sum and the inner precoder share it.
        """
        sines = np.sin(self.path_angles)
        return np.exp(1j * (np.pi * (np.arange(self.num_antennas)[:, None] * sines)))


def sector_angles(uniforms: np.ndarray, sector_center: float, sector_spread: float) -> np.ndarray:
    """Path angles from uniform draws in [0, 1), elementwise over any stack.

    Each draw maps onto the sector ``[center - spread/2, center + spread/2)``
    and is clipped back into [-pi/2, pi/2). The one sector map: the sweep
    applies it to a stack of trials, :func:`draw_environment` to one.
    """
    low = sector_center - sector_spread / 2.0
    return np.clip(low + sector_spread * uniforms, -HALF_PI, np.nextafter(HALF_PI, 0.0))


def gains_from_normals(normals: np.ndarray) -> np.ndarray:
    """Per-path gains (..., L, P) from standard normal draws (..., 2, L, P).

    Axis -3 holds the real parts, then the imaginary parts, each scaled to
    N(0, 1/(2L)): circularly-symmetric complex Gaussian gains of variance
    ``1 / L``. The one gain scaling: the sweep applies it to a stack of
    trials, :func:`path_gains` to one.
    """
    scale = np.sqrt(1.0 / normals.shape[-2] / 2.0)
    return scale * (normals[..., 0, :, :] + 1j * normals[..., 1, :, :])


def draw_environment(
    num_antennas: int,
    num_paths: int,
    rng: np.random.Generator,
    *,
    sector_center: float = 0.0,
    sector_spread: float = np.pi,
) -> ScatteringEnvironment:
    """Draw path angles i.i.d. uniform over an angular sector.

    ``num_paths`` uniform draws of ``rng``, mapped by :func:`sector_angles`:
    the sector is ``[center - spread/2, center + spread/2)`` and draws are
    clipped back into [-pi/2, pi/2). A non-positive spread is rejected; a
    point source is expressed with a tiny positive spread instead.
    """
    if num_paths < 1:
        raise ValueError("num_paths must be a positive integer")
    if not np.isfinite(sector_center):
        raise ValueError("sector_center must be finite")
    if not (sector_spread > 0.0) or not np.isfinite(sector_spread):
        raise ValueError("sector_spread must be positive and finite")
    angles = sector_angles(rng.random(num_paths), sector_center, sector_spread)
    return ScatteringEnvironment(num_antennas, angles)


def path_gains(
    env: ScatteringEnvironment, num_users: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw every user's per-path gains (paths x users) for one environment.

    ``2 * num_paths * num_users`` standard normal draws of ``rng``, all the
    real parts first, scaled by :func:`gains_from_normals`: circularly-symmetric
    complex Gaussian of variance ``1 / num_paths`` (real and imaginary parts
    each N(0, 1/(2L))).
    """
    if num_users < 1:
        raise ValueError("num_users must be a positive integer")
    return gains_from_normals(rng.standard_normal((2, env.num_paths, num_users)))


def ray_sum(env: ScatteringEnvironment, gains: np.ndarray) -> np.ndarray:
    """Oracle chain: the channel (antennas x users), each user's column a
    ray sum over the environment's paths with that user's gains."""
    return env.steering @ gains


def sample_channel(
    env: ScatteringEnvironment, num_users: int, rng: np.random.Generator
) -> np.ndarray:
    """Oracle chain: draw one channel matrix (antennas x users) from the environment."""
    return ray_sum(env, path_gains(env, num_users, rng))


def analytic_covariance(env: ScatteringEnvironment) -> np.ndarray:
    """Closed-form spatial covariance of a channel drawn from ``env``.

    Equals the average of the steering-vector outer products, which is
    Hermitian PSD with trace equal to the antenna count. Angles are
    summed in sorted order. The oracle for :func:`inner_precoder`, which
    never forms this matrix.
    """
    s = env.steering[:, np.argsort(env.path_angles)]
    r = (s @ s.conj().T) / env.num_paths
    return (r + r.conj().T) / 2.0


def inner_precoder(env: ScatteringEnvironment, dim: int) -> np.ndarray:
    """Oracle chain: top-``dim`` eigenvectors of the spatial covariance (antennas x dim).

    The covariance is ``S S^H / L`` for the steering matrix ``S`` of the
    sorted angles, so these are the top left singular vectors of ``S``:
    orthonormal, phase-canonicalized, and at most ``min(M, L)`` of them.
    """
    if not 1 <= dim <= min(env.num_antennas, env.num_paths):
        raise ValueError(f"dim must be in [1, min(M, L)], got {dim}")
    u, _, _ = np.linalg.svd(env.steering[:, np.argsort(env.path_angles)], full_matrices=False)
    return phase_canonicalize(u[:, :dim])


def path_temporary_elements(num_antennas: int, num_paths: int) -> int:
    """Elements of the largest temporary one trial of :func:`path_effective_channel`
    forms: its (ceil(M/2), L) cosines and sines or its (L, L) path Gram."""
    return num_paths * max(-(-num_antennas // 2), num_paths)


def path_effective_channel(
    num_antennas: int, path_angles: np.ndarray, gains: np.ndarray, dim: int
) -> np.ndarray:
    """A channel (..., dim, P) with the Gram of ``effective_channel(inner_precoder(env, dim),
    ray_sum(env, gains))``, for a stack of path angles (..., L) and gains (..., L, P).

    It is ``Sigma_D V_D^H gains`` for the steering matrix ``S = U Sigma V^H``,
    the effective channel up to a unitary rotation of its rows. With the phase
    reference at the array centre, ``S^H S`` is real symmetric: the cosine rows
    are even and the sine rows odd about it, so it is twice its sum over one
    half of the array, and the centring phases fold into the gains. Each trial
    of a stack gets, bitwise, the result of its own call.
    """
    if not 1 <= dim <= min(num_antennas, np.shape(path_angles)[-1]):
        raise ValueError(f"dim must be in [1, min(M, L)], got {dim}")
    sines = np.sin(path_angles)[..., None, :]
    centre = (num_antennas - 1) / 2.0
    phases = (np.pi * (np.arange(num_antennas // 2, num_antennas) - centre))[:, None] * sines
    cosines, sines_n = np.cos(phases), np.sin(phases)
    path_gram = 2.0 * (cosines.swapaxes(-1, -2) @ cosines + sines_n.swapaxes(-1, -2) @ sines_n)
    if num_antennas % 2:
        path_gram -= 1.0  # the centre row, cos 0 = 1 and sin 0 = 0, counted once
    eigenvalues, eigenvectors = np.linalg.eigh(path_gram)
    centred_gains = np.exp(1j * (np.pi * centre * sines)).swapaxes(-1, -2) * gains
    # a real GEMM on the gains' interleaved real and imaginary parts
    x = (eigenvectors[..., -dim:].swapaxes(-1, -2) @ centred_gains.view(float)).view(complex)
    # rounding can leave a vanishing eigenvalue slightly negative
    return np.sqrt(np.maximum(eigenvalues[..., -dim:], 0.0))[..., None] * x
