"""Central finite-difference oracle shared by the gradient tests, and the
scaled sigmoid whose finite differences the activation surrogate must match."""

import numpy as np
from scipy.special import expit


def numeric_grad(f, x, step=1e-4):
    """Central-difference gradient of scalar f at x, elementwise."""
    x = np.array(x, dtype=np.float64)  # private copy; never mutate the caller's array
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f(x)
        flat[i] = orig - step
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * step)
    return grad


def rel_err(approx, exact):
    """||a - b||_inf normalized by the larger gradient magnitude."""
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    scale = max(np.max(np.abs(approx)), np.max(np.abs(exact)), 1e-12)
    return np.max(np.abs(approx - exact)) / scale


def scaled_sigmoid(z, alpha: float):
    """sigma_alpha(z) = 1 / (1 + exp(-z / alpha))."""
    return expit(np.asarray(z, dtype=np.float64) / alpha)
