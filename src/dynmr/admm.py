"""Model-based solver for the transformed-l1 reconstruction objective.

Minimizes 0.5*||A(x) - b||_F^2 + lam*||T(x)||_1, T the unitary temporal DFT,
by ADMM with auxiliary variable z and scaled multiplier l.  One step of
unroll, the loop that network.network_forward runs with a learned z step:

    z <- T^H( ST( T(x + l), lam/mu ) )
    x <- argmin 0.5*||A(x) - b||^2 + mu/2*||z - x - l||^2
    l <- l - eta*(z - x)

The x step solves the normal equations (A^H A + mu I) x = A^H b + mu y with
y = z - l.  On a Cartesian grid A^H A is a projection P (the encoding DFT is
unitary and the mask binary), so the solve has the closed form
x = y + (A^H b - P y) / (1 + mu).  A^H b lies in P's range, so in the
encoder's uncentered k-space, F, this is

    x = F^-1[ Y + c M'(D - Y) ],   Y = F(y),  c = 1/(1 + mu),  D = F(A^H b)

with M' the sampled entries: one gather and scatter over them between the two
transforms (Encoder.data_consistency).  D is formed once per solve, at the
sampled entries only, so the solve holds x, z, l and one row band of
scratch.  The tests check the step against the image-space form and against a
conjugate-gradient solve of the same equations.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .volume import check_same_shape, fro_norm

# Row-band size of the multiplier step, whose scratch holds one band.
BAND_BYTES = 1 << 18


@dataclass
class AdmmConfig:
    lam: float = 0.01
    mu: float = 0.1
    eta: float = 1.0
    n_iters: int = 50

    def __post_init__(self):
        if not 0 <= self.lam < np.inf:
            raise ValueError("lam must be finite and >= 0")
        if not (0 < self.mu < np.inf and 0 < self.eta < np.inf):
            raise ValueError("mu and eta must be finite and > 0")
        if self.n_iters < 0:
            raise ValueError("n_iters must be >= 0")


@dataclass
class AdmmState:
    x: np.ndarray
    z: np.ndarray
    l: np.ndarray


def soft_threshold_complex(v, tau, out=None, work=None):
    """Magnitude shrinkage u * max(1 - tau/|u|, 0); zero stays zero.

    The result goes to out, which may be v, when given.  work, two real
    arrays of v's shape, holds |v| and the shrunk magnitude.
    """
    if not tau >= 0:  # NaN fails this too
        raise ValueError("tau must be >= 0")
    mag, shrunk = (np.empty(v.shape), np.empty(v.shape)) if work is None else work
    np.abs(v, out=mag)
    np.subtract(mag, tau, out=shrunk)
    np.maximum(shrunk, 0.0, out=shrunk)
    np.divide(shrunk, mag, out=shrunk, where=mag > 0)
    return np.multiply(v, shrunk, out=out)


def temporal_fft(v, direction="forward", out=None):
    """Unitary 1-D DFT along the temporal axis of a (h, w, t) volume.

    The result goes to out, which may be v, when given.
    """
    if direction == "forward":
        return np.fft.fft(v, axis=2, norm="ortho", out=out)
    if direction == "inverse":
        return np.fft.ifft(v, axis=2, norm="ortho", out=out)
    raise ValueError(f"unknown direction {direction!r}")


def z_update(state, cfg, out=None, work=None):
    """Shrinkage step: T^H(ST(T(x + l), lam/mu)), computed in out when given.

    work is soft_threshold_complex's pair of real arrays; it is written only
    after x + l is formed, so it may hold x's memory.
    """
    z = np.add(state.x, state.l, out=out)
    temporal_fft(z, "forward", out=z)
    soft_threshold_complex(z, cfg.lam / cfg.mu, out=z, work=work)
    return temporal_fft(z, "inverse", out=z)


def x_update_closed_form(z, l, d, encoder, mu, out=None):
    """Exact minimizer of the data-consistency subproblem; d = encoder.samples(A^H b).

    x = F^-1[Y + c M'(d - Y)] with Y = F(z - l) and c = 1/(1 + mu), the
    encoder's data_consistency step, computed in out when given.
    """
    if not mu > 0:  # NaN fails this too
        raise ValueError("mu must be > 0")
    check_same_shape(z, l)
    y = np.subtract(z, l, out=out)
    return encoder.data_consistency(y, d, 1.0 / (1.0 + mu))


def l_update(state, eta, out=None):
    """Scaled multiplier step l - eta*(z - x), into out when given; out may be l.

    It runs one band of rows at a time, eta*(z - x) held for one band.
    """
    check_same_shape(state.z, state.x)
    l = np.empty(state.l.shape, complex) if out is None else out
    rows = max(1, min(len(l), BAND_BYTES // max(1, l[0].nbytes)))
    work = np.empty((rows, *l.shape[1:]), complex)
    for r in range(0, len(l), rows):
        band = slice(r, r + rows)
        step = np.subtract(state.z[band], state.x[band], out=work[: len(l) - r])
        step *= eta
        np.subtract(state.l[band], step, out=l[band])
    return l


def xl_step(state, d, encoder, mu, eta, where):
    """x and l steps from state.z, into state's arrays; d = encoder.samples(A^H b).

    Raises NumericalError naming where if mu is not > 0 or x is non-finite.
    """
    if not mu > 0:
        raise NumericalError(f"mu = {mu} is not > 0 at {where}")
    state.x = x_update_closed_form(state.z, state.l, d, encoder, mu, state.x)
    state.l = l_update(state, eta, state.l)
    # x is built from z and the previous l, so a finite x vouches for both.
    if not np.isfinite(state.x).all():
        raise NumericalError(f"non-finite iterate at {where}")


def objective(x, b, encoder, cfg):
    """Objective value split into (total, fidelity, l1 term)."""
    residual = encoder.forward(x) - b
    fidelity = 0.5 * fro_norm(residual) ** 2
    l1 = float(np.sum(np.abs(temporal_fft(x, "forward"))))
    return fidelity + cfg.lam * l1, fidelity, l1


def unroll(x, encoder, steps):
    """The alternating loop from x = A^H b, which it overwrites, lazily.

    For each (z_step, mu, eta, where) in steps, state.z = z_step(state) and
    xl_step run, overflowing without a warning; xl_step's NumericalError names
    where.  Yields the same AdmmState each time: copy what must outlive a step.
    """
    state = AdmmState(x=x, z=None, l=np.empty_like(x))
    d = encoder.samples(x, work=state.l)
    state.l[...] = 0
    for z_step, mu, eta, where in steps:
        with np.errstate(over="ignore", invalid="ignore"):
            state.z = z_step(state)
            xl_step(state, d, encoder, mu, eta, where)
        yield state


def iterate(b, encoder, cfg):
    """n_iters shrinkage steps of unroll from the zero-filled start, lazily."""
    x = encoder.adjoint(b)
    z = np.empty_like(x)
    # the x step builds x from z and l alone, so x is dead once z_update has
    # formed x + l, and its two real halves are the shrinkage pair
    mags = tuple(x.view(np.float64).reshape(2, *x.shape))

    def step(state):
        return z_update(state, cfg, z, mags)

    steps = ((step, cfg.mu, cfg.eta, f"iteration {i + 1}") for i in range(cfg.n_iters))
    yield from unroll(x, encoder, steps)


def reconstruct(b, encoder, cfg):
    """Final iterate of n_iters steps; the zero-filled start when n_iters is 0."""
    x = None
    for state in iterate(b, encoder, cfg):
        x = state.x
    return encoder.adjoint(b) if x is None else x
