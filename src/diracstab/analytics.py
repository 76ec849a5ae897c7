"""Closed-form integrals, kernel projections, and asymptotic growth rates.

Everything the linearization theory predicts in closed or quotient form is
computed here twice: once from the stated formula and once from Gauss
quadrature of the defining integral, so the two can be cross-checked.  The
small-wavenumber expansion of the eigenvalues splitting from the origin,

    lambda = +-p*Lambda_r + O(p^3)  (real pair)
    lambda = +-i*p*Lambda_i + O(p^3)  (imaginary pair),

is produced per model, and for Gross-Neveu the first-order eigenvector
correction coefficients alpha, beta and the vanishing second-order
solvability diagonal are evaluated from the projection integrals.

Both sides need numpy alone.  The integrands are analytic and decay on the
scale 1/mu, so one fixed composite Gauss-Legendre rule converges
geometrically on them (quad_integral).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .soliton import (
    ModelKind,
    SolitonProfile,
    _check_omega,
    eval_profile,
    eval_profile_derivative,
)

# pairing conventions: conjugate the first slot
S_PAIRING = np.array(
    [[0, 0, 1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=complex
)
P_PAIRING = 1j * np.array(
    [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]], dtype=complex
)
I_PAIRING = np.eye(4, dtype=complex)

_OMEGA_STEP = 1e-5  # central-difference step for d/d omega
_CORRECTION_WINDOW = (0.05, 0.95)  # alpha/beta evaluated away from mu -> 0


class NumericsError(RuntimeError):
    """Quadrature failed to reach the requested tolerance."""


@dataclass(frozen=True)
class AsymptoticPrediction:
    """Leading eigenvalue slopes and (Gross-Neveu) correction coefficients.

    alpha and beta are None for massive Thirring, and None for Gross-Neveu
    when omega falls outside the correction window [0.05, 0.95] where the
    d/d-omega quadratures are reliable.
    """

    model: ModelKind
    omega: float
    lambda_r: float
    lambda_i: float
    alpha: complex | None = None
    beta: complex | None = None


@dataclass(frozen=True)
class KernelVectors:
    """Kernel and generalized-kernel vectors at p = 0 in block coordinates.

    Each field is a callable x -> 4-component complex array.  v_t and v_g
    span the kernel (translation and gauge), vt_tilde / vg_tilde are their
    Jordan partners, and the check vectors (Gross-Neveu only, else None)
    solve the first-order transverse-coupling equations.
    """

    model: ModelKind
    omega: float
    v_t: object
    v_g: object
    vt_tilde: object
    vg_tilde: object
    vt_check: object | None
    vg_check: object | None

    @property
    def names(self) -> tuple[str, ...]:
        base = ("v_t", "v_g", "vt_tilde", "vg_tilde")
        if self.model is ModelKind.GROSS_NEVEU:
            return base + ("vt_check", "vg_check")
        return base


def quad_integral(f, mu: float):
    """Composite Gauss-Legendre quadrature of a complex integrand over the line.

    f maps an array of x to an array of values and must vary on the scale
    1/mu.  Folds f(x) + f(-x) onto [0, X], X = 40/mu, so odd parts cancel
    pointwise and exp(-mu X) < 1e-16, then applies 20 nodes on each of 40
    panels.  Returns the same rule on 80 panels, or raises NumericsError
    if the two differ by more than 1e-8 (1 + |I|).
    """
    # imported here so that the command line, which never integrates, does
    # not load numpy.polynomial
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(20)
    span = 40.0 / mu

    def rule(panels):
        width = span / panels
        x = (width * (np.arange(panels)[:, None] + 0.5 * (nodes + 1.0))).ravel()
        return 0.5 * width * np.tile(weights, panels) @ (f(x) + f(-x))

    coarse, fine = rule(40), rule(80)
    err = abs(fine - coarse)
    if err > 1e-8 * (1.0 + abs(fine)):
        raise NumericsError(f"quadrature achieved only {err:.2e} absolute error")
    return complex(fine)


def mtm_norms(omega: float) -> dict:
    """Closed-form massive Thirring integrals of the soliton profile.

    Returns norm_sq_u = int |U|^2, norm_sq_du = int |U'|^2, and
    momentum_like = int(omega |U|^2 + (i/2)(conj(U) U' - U conj(U)'))
    which collapses to 2 sqrt(1 - omega^2).
    """
    _check_omega(ModelKind.MASSIVE_THIRRING, omega)
    mu = np.sqrt(1.0 - omega**2)
    theta = np.arctan(np.sqrt((1.0 - omega) / (1.0 + omega)))
    return {
        "norm_sq_u": 4.0 * theta,
        "norm_sq_du": -4.0 * omega * mu + 4.0 * (1.0 + omega**2) * theta,
        "momentum_like": 2.0 * mu,
    }


def gn_norms(omega: float) -> dict:
    """Closed-form Gross-Neveu integrals of the soliton profile.

    Returns norm_sq_u = int |U|^2 = mu/omega, its omega-derivative
    d_norm_sq_u = -1/(omega^2 mu), and the weighted momentum integral
    i_omega = (1 - omega^2) * int_0^inf dz/(1 + omega cosh z)^2
            = log((1 + mu)/omega)/mu - 1,
    which decays to 0 as omega -> 1.
    """
    _check_omega(ModelKind.GROSS_NEVEU, omega)
    mu = np.sqrt(1.0 - omega**2)
    return {
        "norm_sq_u": mu / omega,
        "d_norm_sq_u": -1.0 / (omega**2 * mu),
        "i_omega": np.log((1.0 + mu) / omega) / mu - 1.0,
    }


def du_domega(model: ModelKind, omega: float, x, step: float = _OMEGA_STEP):
    """d U_omega / d omega by Richardson-extrapolated central differences."""
    def at(w):
        return eval_profile(SolitonProfile.create(model, w), x)

    coarse = (at(omega + step) - at(omega - step)) / (2.0 * step)
    fine = (at(omega + step / 2.0) - at(omega - step / 2.0)) / step
    return (4.0 * fine - coarse) / 3.0


def kernel_vectors(model: ModelKind, omega: float) -> KernelVectors:
    """Construct the p = 0 kernel vectors in block coordinates."""
    model = ModelKind(model)
    _check_omega(model, omega)
    prof = SolitonProfile.create(model, omega)

    def u(x):
        return np.asarray(eval_profile(prof, x))

    def du(x):
        return np.asarray(eval_profile_derivative(prof, x))

    def dwu(x):
        return np.asarray(du_domega(model, omega, x))

    def stack(c1, c2, c3, c4, x):
        zero = np.zeros(np.shape(np.asarray(x, dtype=float)), dtype=complex)
        comps = [zero + c if not callable(c) else c(x) for c in (c1, c2, c3, c4)]
        return np.stack(comps, axis=0)

    def finite_x(x):
        # x*U terms: the exponential decay dominates, limit 0 at infinity
        arr = np.asarray(x, dtype=float)
        return np.where(np.isfinite(arr), arr, 0.0)

    v_t = lambda x: stack(lambda t: du(t), lambda t: np.conj(du(t)), 0.0, 0.0, x)
    v_g = lambda x: stack(0.0, 0.0, lambda t: 1j * u(t),
                          lambda t: -1j * np.conj(u(t)), x)
    vt_tilde = lambda x: stack(
        0.0, 0.0,
        lambda t: 1j * omega * finite_x(t) * u(t) - 0.5 * u(t),
        lambda t: -1j * omega * finite_x(t) * np.conj(u(t)) - 0.5 * np.conj(u(t)),
        x,
    )
    vg_tilde = lambda x: stack(lambda t: dwu(t), lambda t: np.conj(dwu(t)), 0.0, 0.0, x)

    vt_check = None
    vg_check = None
    if model is ModelKind.GROSS_NEVEU:
        vt_check = lambda x: stack(0.0, 0.0, lambda t: -0.5 * np.conj(u(t)),
                                   lambda t: 0.5 * u(t), x)
        vg_check = lambda x: stack(lambda t: -np.conj(u(t)) / (2.0 * omega),
                                   lambda t: u(t) / (2.0 * omega), 0.0, 0.0, x)

    return KernelVectors(model=model, omega=omega, v_t=v_t, v_g=v_g,
                         vt_tilde=vt_tilde, vg_tilde=vg_tilde,
                         vt_check=vt_check, vg_check=vg_check)


def pairing(bra, ket, matrix: np.ndarray, mu: float) -> complex:
    """<bra, M ket> = int conj(bra(x)) . M ket(x) dx over the real line."""
    def integrand(x):
        return np.sum(np.conj(bra(x)) * (matrix @ ket(x)), axis=0)

    return quad_integral(integrand, mu)


def projection_matrix_elements(model: ModelKind, omega: float) -> dict:
    """All pairwise kernel-vector pairings, keyed "<op>(<bra>,<ket>)".

    op runs over the symplectic-type pairing S, the plain L^2 pairing I,
    and additionally the transverse-coupling pairing P for Gross-Neveu.
    Entries the theory proves to vanish come out below 1e-9 in magnitude.
    """
    model = ModelKind(model)
    kv = kernel_vectors(model, omega)
    mu = np.sqrt(1.0 - omega**2)
    ops = {"S": S_PAIRING, "I": I_PAIRING}
    if model is ModelKind.GROSS_NEVEU:
        ops["P"] = P_PAIRING
    table = {}
    for opname, mat in ops.items():
        for a in kv.names:
            fa = getattr(kv, a)
            for b in kv.names:
                fb = getattr(kv, b)
                table[f"{opname}({a},{b})"] = pairing(fa, fb, mat, mu)
    return table


def _slopes(model: ModelKind, omega: float) -> tuple[float, float]:
    if model is ModelKind.MASSIVE_THIRRING:
        n = mtm_norms(omega)
        quarter = (1.0 - omega**2) ** 0.25
        lam_r = np.sqrt(n["norm_sq_du"]) / quarter
        lam_i = quarter * np.sqrt(n["norm_sq_u"])
    else:
        n = gn_norms(omega)
        iw = n["i_omega"]
        lam_r = np.sqrt(1.0 - omega**2)
        lam_i = np.sqrt(iw / (1.0 + iw))
    return float(lam_r), float(lam_i)


def asymptotic_prediction(model: ModelKind, omega: float,
                          with_corrections: bool = False) -> AsymptoticPrediction:
    """Closed-form slopes Lambda_r, Lambda_i; for Gross-Neveu also alpha, beta.

    The correction coefficients take eight pairing quadratures; they are
    computed only when with_corrections is True and omega lies in the
    window [0.05, 0.95].
    """
    model = ModelKind(model)
    _check_omega(model, omega)
    lam_r, lam_i = _slopes(model, omega)
    alpha = beta = None
    if (model is ModelKind.GROSS_NEVEU and with_corrections
            and _CORRECTION_WINDOW[0] <= omega <= _CORRECTION_WINDOW[1]):
        corr = compute_corrections(omega)
        alpha, beta = corr["alpha"], corr["beta"]
    return AsymptoticPrediction(model=model, omega=float(omega),
                                lambda_r=lam_r, lambda_i=lam_i,
                                alpha=alpha, beta=beta)


def compute_corrections(omega: float) -> dict:
    """Gross-Neveu first-order eigenvector coefficients alpha and beta.

    Both are quotients of projection integrals; the denominators are
    nonzero throughout (0, 1) and are guarded at 1e-6.
    """
    _check_omega(ModelKind.GROSS_NEVEU, omega)
    kv = kernel_vectors(ModelKind.GROSS_NEVEU, omega)
    mu = np.sqrt(1.0 - omega**2)
    lam_r, lam_i = _slopes(ModelKind.GROSS_NEVEU, omega)
    lr2, li2 = lam_r**2, lam_i**2

    def pair(a, b, mat):
        return pairing(getattr(kv, a), getattr(kv, b), mat, mu)

    denom_alpha = 1j * pair("vt_tilde", "v_t", S_PAIRING) * (lr2 + li2)
    denom_beta = -1j * pair("vg_tilde", "v_g", S_PAIRING) * (lr2 + li2)
    for name, denom in (("alpha", denom_alpha), ("beta", denom_beta)):
        if abs(denom) <= 1e-6:
            raise NumericsError(
                f"projection denominator for {name} vanished: |{denom:.3e}|"
            )

    alpha = (lr2 * (pair("vt_tilde", "vg_tilde", P_PAIRING)
                    + 1j * pair("vt_check", "vg_tilde", S_PAIRING))
             - pair("vt_check", "vg_check", P_PAIRING)) / denom_alpha
    beta = (li2 * (1j * pair("vg_check", "vt_tilde", S_PAIRING)
                   - pair("vg_tilde", "vt_tilde", P_PAIRING))
            - pair("vg_check", "vt_check", P_PAIRING)) / denom_beta
    return {"alpha": complex(alpha), "beta": complex(beta)}


def second_order_solvability(omega: float) -> np.ndarray:
    """Right-hand-side matrix of the second-order eigenvalue correction.

    The 2x2 diagonal (translational branch, gauge branch) must vanish:
    the quadratic-in-p eigenvalue coefficient is zero for both splitting
    pairs.  Returned so callers can assert |diag| <= 1e-8.
    """
    corr = compute_corrections(omega)
    kv = kernel_vectors(ModelKind.GROSS_NEVEU, omega)
    mu = np.sqrt(1.0 - omega**2)
    lam_r, lam_i = _slopes(ModelKind.GROSS_NEVEU, omega)

    first_order = {"t": kv.vt_tilde, "g": kv.vg_tilde}
    check = {"t": kv.vt_check, "g": kv.vg_check}
    # first-order admixture of the opposite kernel vector
    def admixture(branch):
        coeff = corr["beta"] if branch == "t" else corr["alpha"]
        base = kv.v_g if branch == "t" else kv.v_t
        return lambda x: coeff * base(x)

    lam1_sq = {"t": -lam_i**2, "g": lam_r**2}
    rhs = np.zeros((2, 2), dtype=complex)
    for i, w in enumerate(("t", "g")):
        for jdx, b in enumerate(("t", "g")):
            mix = admixture(b)
            rhs[i, jdx] = (
                lam1_sq[b] * (
                    1j * pairing(first_order[w], mix, S_PAIRING, mu)
                    + 1j * pairing(first_order[w], check[b], S_PAIRING, mu)
                    - 1j * pairing(check[w], first_order[b], S_PAIRING, mu)
                    - pairing(first_order[w], first_order[b], P_PAIRING, mu)
                )
                + pairing(check[w], check[b], P_PAIRING, mu)
                + pairing(check[w], mix, P_PAIRING, mu)
            )
    return rhs
