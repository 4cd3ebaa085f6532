"""Model-based solver for the transformed-l1 reconstruction objective.

Minimizes 0.5*||A(x) - b||_F^2 + lam*||T(x)||_1 by alternating-direction
splitting with auxiliary variable z and scaled multiplier l.  The sparsifying
transform T is the unitary temporal DFT.  One iteration:

    z <- T^H( ST( T(x + l), lam/mu ) )
    x <- argmin 0.5*||A(x) - b||^2 + mu/2*||z - x - l||^2
    l <- l - eta*(z - x)

The x step solves the normal equations (A^H A + mu I) x = A^H b + mu y with
y = z - l.  On a Cartesian grid A^H A is a projection P (the encoding DFT is
unitary and the mask binary), so the solve has the closed form
x = y + (A^H b - P y) / (1 + mu).  The tests check it against a
conjugate-gradient solve of the same equations.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .volume import check_same_shape, fro_norm


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
    if tau < 0:
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

    work is soft_threshold_complex's pair of real arrays.
    """
    z = np.add(state.x, state.l, out=out)
    temporal_fft(z, "forward", out=z)
    soft_threshold_complex(z, cfg.lam / cfg.mu, out=z, work=work)
    return temporal_fft(z, "inverse", out=z)


def x_update_closed_form(z, l, atb, encoder, mu, out=None, work=None):
    """Exact minimizer of the data-consistency subproblem; atb = A^H b.

    The result goes to out when given; work, a complex array of z's shape,
    holds y = z - l.
    """
    if mu <= 0:
        raise ValueError("mu must be > 0")
    check_same_shape(z, l)
    check_same_shape(z, atb)
    y = np.subtract(z, l, out=work)
    # x = y + (atb - P y)/(1 + mu), in the P y buffer: fresh temporaries here
    # make the heap shrink and regrow every iteration, page-faulting the
    # other steps.
    x = encoder.normal(y, out=out)
    np.subtract(atb, x, out=x)
    x /= 1.0 + mu
    x += y
    return x


def l_update(state, eta, out=None, work=None):
    """Scaled multiplier step l - eta*(z - x), into out when given.

    work, a complex array of l's shape, holds eta*(z - x); out may be l.
    """
    check_same_shape(state.z, state.x)
    step = np.subtract(state.z, state.x, out=work)
    step *= eta
    return np.subtract(state.l, step, out=out)


def xl_step(state, atb, encoder, mu, eta, work, where):
    """x and l steps from state.z, into state's arrays; work is a scratch volume.

    Raises NumericalError naming where if mu is not > 0 or x is non-finite.
    """
    if not mu > 0:
        raise NumericalError(f"mu = {mu} is not > 0 at {where}")
    state.x = x_update_closed_form(state.z, state.l, atb, encoder, mu, state.x, work)
    state.l = l_update(state, eta, state.l, work)
    # x is built from z and the previous l, so a finite x vouches for both.
    if not np.isfinite(state.x).all():
        raise NumericalError(f"non-finite iterate at {where}")


def objective(x, b, encoder, cfg):
    """Objective value split into (total, fidelity, l1 term)."""
    residual = encoder.forward(x) - b
    fidelity = 0.5 * fro_norm(residual) ** 2
    l1 = float(np.sum(np.abs(temporal_fft(x, "forward"))))
    return fidelity + cfg.lam * l1, fidelity, l1


def iterate(b, encoder, cfg):
    """Run n_iters alternating steps from the zero-filled start, lazily.

    Yields the solver's state after each z/x/l step.  It is the same
    AdmmState object every time, and every step writes into arrays allocated
    once at the start, so the next step overwrites x, z and l: copy what must
    outlive it.  A non-finite x raises NumericalError naming the iteration.
    """
    atb = encoder.adjoint(b)
    state = AdmmState(x=atb.copy(), z=np.empty_like(atb), l=np.zeros_like(atb))
    work = np.empty_like(atb)
    # z_update never touches work, so the shrinkage pair is its two real halves
    mags = tuple(work.view(np.float64).reshape(2, *atb.shape))
    for it in range(1, cfg.n_iters + 1):
        state.z = z_update(state, cfg, state.z, mags)
        xl_step(state, atb, encoder, cfg.mu, cfg.eta, work, f"iteration {it}")
        yield state


def reconstruct(b, encoder, cfg):
    """Final iterate of n_iters steps; the zero-filled start when n_iters is 0."""
    x = None
    for state in iterate(b, encoder, cfg):
        x = state.x
    return encoder.adjoint(b) if x is None else x
