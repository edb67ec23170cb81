"""Independent reference implementations used only by the tests.

Almost everything here works on truncated Fock-space matrices and
deliberately avoids the covariance-level formulas of the package, so
agreement between the two is meaningful evidence of correctness.  The
exceptions are the last five sections: the moment vector of a
covariance, the drift and diffusion of the global equation, whose fixed
point the closed-form global state is, and its currents bath by bath;
the local heat current solved from its moment equations in mpmath; the
dissipation kernel, quad_vec evaluating the exact solver's integrands
node by node, the reference of its numpy replay, the equal-temperature
covariance as Matsubara sums in mpmath, and the whole covariance and
current as a sum over the poles of the Langevin integrands with digamma
weights; the grid search with a scipy Nelder-Mead polish and the
60-digit Adesso-Datta closed form, the two references of the closed-form
discord; and the paper's large-k limit of the global log-negativity at
resonant nodes.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# operators

def destroy(dim: int) -> np.ndarray:
    """Single-mode annihilation operator in a dim-dimensional Fock space."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1)


def embed(op: np.ndarray, which: int, dims: tuple) -> np.ndarray:
    """Tensor-embed a single-mode operator at position `which`."""
    out = np.array([[1.0]])
    for i, d in enumerate(dims):
        factor = op if i == which else np.eye(d)
        out = np.kron(out, factor)
    return out


def quadratures(omega: float, dim: int) -> tuple:
    """Position and momentum of one mode, x = (a + a+)/sqrt(2w)."""
    a = destroy(dim)
    ad = a.T.conj()
    x = (a + ad) / math.sqrt(2.0 * omega)
    p = -1j * math.sqrt(omega / 2.0) * (a - ad)
    return x, p


# ---------------------------------------------------------------------------
# adjoint GKLS machinery

def decay_rate(omega: float, temperature: float, params) -> float:
    """GKLS decay rate gamma(w) of an Ohmic Lorentz-Drude bath.

    For w > 0: gamma = 2 J(w) (1 + n(w)).  For w < 0 it is evaluated as
    2 J(|w|) n(|w|), which enforces detailed balance
    gamma(-w) = exp(-w/T) gamma(w) exactly.
    """
    if abs(omega) < 1e-12 * params.cutoff:
        raise ValueError("decay rate is not evaluated at omega = 0")
    a = abs(omega)
    x = a / temperature
    n = math.exp(-x) / -math.expm1(-x)
    j = params.lambda_sq * a * params.cutoff**2 / (a**2 + params.cutoff**2)
    return 2.0 * j * (1.0 + n) if omega > 0 else 2.0 * j * n


def mode_rates(params, modes) -> dict:
    """(W^a_{-Omega_s}, W^a_{+Omega_s}) per bath a in 'ch' and normal mode
    s in '+-': the absorption and emission rates w^a_s gamma(-+Omega_s) /
    (2 Omega_s) of the global equation, with the bath weights w^a_s = cos^2
    for (c, +) and (h, -) and sin^2 for the other two."""
    out = {}
    for a in "ch":
        t = params.t_c if a == "c" else params.t_h
        for s, om in (("+", modes.omega_plus), ("-", modes.omega_minus)):
            w = modes.cos_sq if (a == "c") == (s == "+") else modes.sin_sq
            out[a, s] = (w * decay_rate(-om, t, params) / (2.0 * om),
                         w * decay_rate(om, t, params) / (2.0 * om))
    return out


def dissipator_adjoint(l_op: np.ndarray, o: np.ndarray) -> np.ndarray:
    """L+ O L - (1/2){L+ L, O}: adjoint action of one GKLS dissipator."""
    ld = l_op.T.conj()
    ldl = ld @ l_op
    return ld @ o @ l_op - 0.5 * (ldl @ o + o @ ldl)


def extract_affine_dynamics(apply_gen, ops: list, dims: tuple,
                            edge: int = 4) -> tuple:
    """Recover dO_i/dt = sum_j M_ij O_j + c_i from a numeric generator.

    The fit uses only matrix elements between Fock states whose occupation
    stays `edge` levels below the truncation, where the truncated generator
    is exact.  Returns (M, c, residual); a residual at round-off level
    certifies that the operator span really closes under the generator.
    """
    keep = _inner_indices(dims, edge)
    basis = [op[np.ix_(keep, keep)].ravel() for op in ops]
    basis.append(np.eye(len(keep), dtype=complex).ravel())
    a_mat = np.column_stack(basis)
    m_rows, c_vals, residual = [], [], 0.0
    for op in ops:
        rhs = apply_gen(op)[np.ix_(keep, keep)].ravel()
        coef, *_ = np.linalg.lstsq(a_mat, rhs, rcond=None)
        res = np.max(np.abs(a_mat @ coef - rhs))
        residual = max(residual, res)
        m_rows.append(coef[:-1].real)
        c_vals.append(coef[-1].real)
        residual = max(residual, np.max(np.abs(coef.imag)))
    return np.array(m_rows), np.array(c_vals), residual


def _inner_indices(dims: tuple, edge: int) -> np.ndarray:
    grids = np.meshgrid(*[np.arange(d) for d in dims], indexing="ij")
    mask = np.ones(grids[0].shape, dtype=bool)
    for g, d in zip(grids, dims):
        mask &= g < d - edge
    return np.flatnonzero(mask.ravel())


# ---------------------------------------------------------------------------
# density-matrix reference computations, in the eigenbasis
#
# For dimensions around 60 per mode the dense density matrix no longer fits
# comfortably in memory; these functions carry the Gibbs state as its
# eigendecomposition instead and never materialize rho.

def sparse_quadratures(dim: int) -> list:
    """R = (x1, p1, x2, p2) at unit frequency as sparse two-mode operators."""
    from scipy import sparse
    a = sparse.diags(np.sqrt(np.arange(1, dim, dtype=float)), 1)
    ad = a.T.conj()
    x = (a + ad) / math.sqrt(2.0)
    p = -1j / math.sqrt(2.0) * (a - ad)
    eye = sparse.identity(dim)
    return [sparse.kron(x, eye).tocsr(), sparse.kron(p, eye).tocsr(),
            sparse.kron(eye, x).tocsr(), sparse.kron(eye, p).tocsr()]


def gibbs_spectrum(g_matrix: np.ndarray, dim: int) -> tuple:
    """Eigen-decomposition (weights, vectors) of exp(-R G R/2)/Z; rho
    would be (vectors * weights) @ vectors.conj().T."""
    r_ops = sparse_quadratures(dim)
    g = np.asarray(g_matrix, dtype=float)
    h = None
    for i in range(4):
        s_i = sum(g[i, j] * r_ops[j] for j in range(4))
        term = (r_ops[i] @ s_i).toarray()
        h = term if h is None else h + term
    h = (h + h.conj().T) / 4.0  # 1/2 to symmetrize, 1/2 from the exponent
    evals, evecs = np.linalg.eigh(h)
    del h
    weights = np.exp(-(evals - evals.min()))
    weights /= weights.sum()
    return weights, evecs


def spectrum_entropy(weights: np.ndarray) -> float:
    """Von Neumann entropy (nats) from the Gibbs weights."""
    w = weights[weights > 1e-300]
    return float(-np.sum(w * np.log(w)))


def spectrum_covariance(weights: np.ndarray, vectors: np.ndarray,
                        dim: int) -> np.ndarray:
    """<{R_i, R_j}>/2 from the eigenbasis: sum_n w_n <n|R_i R_j|n>."""
    r_ops = sparse_quadratures(dim)
    v = [op @ vectors for op in r_ops]  # R_i is Hermitian
    gamma = np.zeros((4, 4))
    for i in range(4):
        for j in range(i, 4):
            vals = np.einsum("mn,mn->n", v[i].conj(), v[j])
            gamma[i, j] = gamma[j, i] = float((weights @ vals).real)
    return gamma


def spectrum_fidelity(w1, u1, w2, u2) -> float:
    """Uhlmann fidelity from two eigendecompositions.

    sqrt(r1) r2 sqrt(r1) = U1 (B B+) U1+ with B = D1 (U1+ U2) D2,
    D = diag(sqrt(w)), so tr sqrt(...) is the nuclear norm of B.
    """
    b = (np.sqrt(w1)[:, None] * (u1.conj().T @ u2)) * np.sqrt(w2)
    return float(np.sum(np.linalg.svd(b, compute_uv=False))**2)


def thermal_product_gibbs(n_c: float, n_h: float) -> np.ndarray:
    """G matrix of a product of unit-frequency thermal states."""
    def beta(n):
        nu = n + 0.5
        return math.log((nu + 0.5) / (nu - 0.5))
    return np.diag([beta(n_c), beta(n_c), beta(n_h), beta(n_h)])


# ---------------------------------------------------------------------------
# moment equations

def moments(gamma: np.ndarray) -> np.ndarray:
    """The moment vector y of the 4x4 covariance gamma, in the order and
    with the weights of qwire.moments.MOMENTS: the inverse of
    qwire.moments.covariance."""
    from qwire.moments import MOMENTS
    return np.array([w * gamma[i, j] for i, j, w in MOMENTS])


def gme_drift_diffusion(coeffs) -> tuple:
    """Drift A and diffusion D over (eta_+, Pi_+, eta_-, Pi_-) of the
    global equation, from qwire.gme.GmeCoefficients: mode s decays at
    J(Omega_s) / Omega_s and is heated toward occ_s.  The closed-form
    global state is their fixed point."""
    a, d = np.zeros((2, 4, 4))
    for x, om, j, occ in zip((0, 2), coeffs.omegas, coeffs.j, coeffs.occ):
        a[x, x] = a[x + 1, x + 1] = -j / (2.0 * om)
        a[x, x + 1] = 1.0
        a[x + 1, x] = -om**2
        d[x, x] = j * (occ + 0.5) / om**2
        d[x + 1, x + 1] = j * (occ + 0.5)
    return a, d


def gme_heat_currents_per_bath(coeffs) -> tuple:
    """(Qdot_c, Qdot_h) bath by bath from qwire.gme.GmeCoefficients, as
    the dissipator averages

        Qdot_a = -sum_s w^a_s J(Omega_s) (occ_s - n_a(Omega_s)),

    with each mode's excess over the bath formed as the product
    occ_s - n_a = w^b_s (n_b - n_a), b the other bath, so that the O(k^2)
    excess does not cancel against occ_s.  The bath weights w^a_s are
    cos^2 for (c, +) and (h, -) and sin^2 for the other two.
    """
    m = coeffs.modes
    w = (m.cos_sq, m.sin_sq), (m.sin_sq, m.cos_sq)
    n, j = coeffs.n, coeffs.j
    return tuple(-sum(w[a][s] * j[s] * (w[b][s] * (n[b][s] - n[a][s]))
                      for s in (0, 1))
                 for a, b in ((0, 1), (1, 0)))


# ---------------------------------------------------------------------------
# local heat current

def local_current_mpmath(params, dps: int = 60) -> float:
    """Hot-bath current of the local master equation at dps digits.

    Builds the local drift and diffusion from the model (coupled
    Hamiltonian flow; node a relaxes at J(w_a)/w_a toward its bath's
    occupation), solves the Lyapunov equation A G + G A^T + D = 0 for all
    sixteen entries of G, and returns the energy that bath h's
    dissipator injects, Tr(V (A_h G + G A_h^T + D_h)) / 2 with V the
    Hessian of H_S.
    """
    import mpmath
    with mpmath.workdps(dps):
        w_c, w_h = mpmath.mpf(params.omega_c), mpmath.mpf(params.omega_h)
        k, cut = mpmath.mpf(params.k), mpmath.mpf(params.cutoff)
        flow = mpmath.matrix([[0, 1, 0, 0], [-(w_c**2 + k), 0, k, 0],
                              [0, 0, 0, 1], [k, 0, -(w_h**2 + k), 0]])
        baths = []
        for x, om, t in ((0, w_c, params.t_c), (2, w_h, params.t_h)):
            g = mpmath.mpf(params.lambda_sq) * cut**2 / (om**2 + cut**2)
            heat = g * (2 / mpmath.expm1(om / mpmath.mpf(t)) + 1)
            a, d = mpmath.zeros(4, 4), mpmath.zeros(4, 4)
            a[x, x] = a[x + 1, x + 1] = -g / 2
            d[x, x], d[x + 1, x + 1] = heat / (2 * om), om * heat / 2
            baths.append((a, d))
        drift = flow + baths[0][0] + baths[1][0]
        diffusion = baths[0][1] + baths[1][1]
        lyapunov = mpmath.zeros(16, 16)
        for i in range(4):
            for j in range(4):
                for m in range(4):
                    lyapunov[4 * i + j, 4 * m + j] += drift[i, m]
                    lyapunov[4 * i + j, 4 * i + m] += drift[j, m]
        flat = mpmath.lu_solve(lyapunov, mpmath.matrix(
            [-diffusion[i, j] for i in range(4) for j in range(4)]))
        gamma = mpmath.matrix(4, 4)
        for i in range(4):
            for j in range(4):
                gamma[i, j] = flat[4 * i + j]
        hessian = mpmath.matrix([[w_c**2 + k, 0, -k, 0], [0, 1, 0, 0],
                                 [-k, 0, w_h**2 + k, 0], [0, 0, 0, 1]])
        a_h, d_h = baths[1]
        change = a_h * gamma + gamma * a_h.T + d_h
        return float(sum(hessian[i, j] * change[j, i]
                         for i in range(4) for j in range(4)) / 2)


# ---------------------------------------------------------------------------
# exact solver

def chi_hat(omega, params):
    """Fourier-domain dissipation kernel lambda^2 cutoff^2 / (cutoff - i w).

    Its imaginary part equals the (odd) spectral density for all real w
    and its real part obeys the Kramers-Kronig relation.
    """
    return (params.lambda_sq * params.cutoff**2
            / (params.cutoff - 1j * np.asarray(omega)))


def exact_integrands(kernel):
    """The exact solver's ten integrands at one frequency, the dead
    same-node X-P ones as 0.0 and X_c P_h's as the negated P_c X_h row,
    as a function of that frequency."""
    from qwire.exact import _ELEMENTS, _LIVE, _integrand_matrix
    x_c_p_h, p_c_x_h = _ELEMENTS.index((0, 3)), _ELEMENTS.index((1, 2))

    def integrands(omega: float) -> np.ndarray:
        out = np.zeros(len(_ELEMENTS))
        out[_LIVE] = _integrand_matrix(float(omega), kernel)
        out[x_c_p_h] = -out[p_c_x_h]
        return out
    return integrands


def integrand_probe(omega: float, i: int, j: int, params) -> float:
    """Value of the half-line integrand of Gamma_ij at one frequency."""
    from qwire.exact import _ELEMENTS, _Kernel
    idx = _ELEMENTS.index((min(i, j), max(i, j)))
    return float(exact_integrands(_Kernel.of([params]))(omega)[idx])


def per_node_exact_integral(params) -> tuple:
    """quad_vec of the exact solver's ten integrands, one call per node.

    This is how quad_vec evaluates an integrand by itself; the solver's
    replay of one point (conftest.lone_replay), X_c P_h derived from
    P_c X_h included, must reproduce its values, error, status, neval and
    intervals bit for bit.  It reads the
    solver's tolerances and limits from qwire.exact at each call, so it
    follows any override of them.
    """
    from scipy.integrate import quad_vec
    from qwire import exact
    max_omega = exact._MAX_OMEGA_FACTOR * params.cutoff
    return quad_vec(exact_integrands(exact._Kernel.of([params])), 0.0,
                    max_omega, epsabs=exact._ABS_TOL, epsrel=exact._REL_TOL,
                    limit=exact._LIMIT,
                    points=exact._breakpoints(params, max_omega),
                    norm="max", full_output=True)


def equilibrium_covariance_mpmath(params, dps: int = 30):
    """The exact covariance at equal bath temperatures T = t_c = t_h as
    Matsubara sums at dps digits, sharing no code with the solver.

    On the imaginary axis the response is G(i nu)^-1 = K + nu^2 -
    lambda^2 cutoff^2 / (cutoff + |nu|), K the stiffness with the shifted
    frequencies omega_a^2 + lambda^2 cutoff on the diagonal and -k off
    it.  With nu_n = 2 pi n T,

        Gamma_XX = T sum_n G(i nu_n),
        Gamma_PP = T sum_n (1 - nu_n^2 G(i nu_n)),

    summed over all integers n (the n and -n terms are equal).  The
    diagonal of G^-1 - nu^2 is omega_a^2 + k + lambda^2 cutoff nu /
    (cutoff + nu), and 1 - nu^2 G is formed from it, free of the
    cancellation of 1 - nu^2 G, which loses five of 30 digits at
    nu = 10 cutoff.  The terms with nu_n <= 10 cutoff are added one by
    one, and mpmath nsum sums the smooth tail beyond by Euler-Maclaurin.
    Its default extrapolations misjudge that 1/n^2 tail: at omega =
    (1, 2), k = 0.1, T = 2, lambda^2 = 1e-3 and cutoff = 1e3 they put
    <P_h^2> 3.4e-6 low from n = 1, and still 1.2e-6 low from
    nu_n > 10 cutoff.  The Gibbs state is time-reversal even, so every
    X-P entry is zero.  Returns a 4x4 mpmath matrix in the order (X_c,
    P_c, X_h, P_h).
    """
    import mpmath
    assert params.t_c == params.t_h
    with mpmath.workdps(dps):
        temp, k = mpmath.mpf(params.t_c), mpmath.mpf(params.k)
        cut = mpmath.mpf(params.cutoff)
        lam_sq = mpmath.mpf(params.lambda_sq)
        stiff_c = mpmath.mpf(params.omega_c)**2 + k
        stiff_h = mpmath.mpf(params.omega_h)**2 + k

        def terms(n):
            """G_cc, G_ch, G_hh and 1 - nu^2 G of the same entries at
            i nu_n."""
            nu = 2 * mpmath.pi * temp * n
            shift = lam_sq * cut * nu / (cut + nu)
            bare_c, bare_h = stiff_c + shift, stiff_h + shift
            a, d = bare_c + nu**2, bare_h + nu**2
            det = a * d - k**2
            return (d / det, k / det, a / det, (d * bare_c - k**2) / det,
                    -nu**2 * k / det, (a * bare_h - k**2) / det)

        last = int(10 * params.cutoff / (2 * math.pi * params.t_c))
        head = [mpmath.fsum(column) for column in
                zip(*(terms(n) for n in range(1, last + 1)))]
        gamma = mpmath.matrix(4, 4)
        for entry, (i, j) in enumerate(((0, 0), (0, 2), (2, 2), (1, 1),
                                        (1, 3), (3, 3))):
            tail = mpmath.nsum(lambda n: terms(n)[entry],
                               [last + 1, mpmath.inf],
                               method="euler-maclaurin")
            gamma[i, j] = gamma[j, i] = temp * (
                terms(0)[entry] + 2 * (head[entry] + tail))
        return gamma


def _poly_mul(p: list, q: list) -> list:
    """Product of two polynomials, coefficient lists lowest degree first."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_at(p: list, x):
    out = 0
    for a in reversed(p):
        out = out * x + a
    return out


def exact_covariance_mpmath(params, dps: int = 40):
    """The exact covariance as a sum over the poles of its integrands, at
    dps digits: a 4x4 mpmath matrix in the order (X_c, P_c, X_h, P_h).

    This is the frequency-domain Langevin model written in the local basis
    and summed in closed form; it shares no algebra with a mode
    decomposition, and none with the solver's quadrature.  With
    u = cutoff - i w, chi u = lambda^2 cutoff^2 =: l, and
    K_a = w_a^2 + lambda^2 cutoff + k, the matrix u A(w) has the entries
    D_a = (K_a - w^2) u - l on its diagonal and -k u off it, and
    P = u^2 det A = D_c D_h - k^2 u^2 is of degree 6.  So
    G = A^-1 = u M / P with M = [[D_h, k u], [k u, D_c]], and since
    J(w) = l w / (u(w) u(-w)), the share of bath a in Gamma_ij is

        (1/2pi) int R(w) w coth(w / 2T_a) dw,
        R(w) w = f_i(w) f_j(-w) M_ia(w) M_ja(-w) l w / (P(w) P(-w)),

    f = 1 for a position and -i w for a momentum.  R w falls off at least
    like w^-2, so with its partial fractions sum_q c_q / (w - q) and
    s_q = sign Im q, the Matsubara expansion of coth gives

        int R w coth(w / 2T) dw
            = sum_q c_q [2 pi i T s_q / q - 2 psi(1 - i s_q q / (2 pi T))].

    The poles q are the six roots p of P (mp.polyroots), all in the lower
    half plane, and their negatives, the roots of P(-w).  For q = p and
    q = -p the bracket is the same, -2 pi i T / p - 2 psi(1 + i p / (2 pi
    T)), and the residues share the denominator P'(p) P(-p).
    """
    import mpmath as mp
    with mp.workdps(dps):
        lam_sq, cut = mp.mpf(params.lambda_sq), mp.mpf(params.cutoff)
        k, ell = mp.mpf(params.k), lam_sq * cut**2
        u = [cut, mp.mpc(0, -1)]
        d = [_poly_mul([mp.mpf(w)**2 + lam_sq * cut + k, 0, -1], u)
             for w in (params.omega_c, params.omega_h)]
        for poly in d:
            poly[0] -= ell
        ku = [k * a for a in u]
        big_p = _poly_mul(*d)
        for n, a in enumerate(_poly_mul(ku, ku)):
            big_p[n] -= a
        derivative = [n * a for n, a in enumerate(big_p)][1:]
        m = [[d[1], ku], [ku, d[0]]]
        roots = mp.polyroots(big_p[::-1], maxsteps=500, extraprec=3 * dps)
        assert all(mp.im(p) < 0 for p in roots), roots
        temps = (mp.mpf(params.t_c), mp.mpf(params.t_h))
        # per root: l p / (P'(p) P(-p)), M(+-p) and the bracket of each bath
        terms = []
        for p in roots:
            weight = ell * p / (_poly_at(derivative, p) * _poly_at(big_p, -p))
            at = [[[_poly_at(m[r][a], sign * p) for a in range(2)]
                   for r in range(2)] for sign in (1, -1)]
            brackets = [-2j * mp.pi * t / p
                        - 2 * mp.digamma(1 + 1j * p / (2 * mp.pi * t))
                        for t in temps]
            terms.append((p, weight, at, brackets))

        def factor(i, w):
            return 1 if i % 2 == 0 else -1j * w

        gamma = mp.matrix(4, 4)
        for i in range(4):
            for j in range(i, 4):
                total = 0
                for p, weight, (plus, minus), brackets in terms:
                    for a in range(2):
                        c = weight * (
                            factor(i, p) * factor(j, -p)
                            * plus[i // 2][a] * minus[j // 2][a]
                            + factor(i, -p) * factor(j, p)
                            * minus[i // 2][a] * plus[j // 2][a])
                        total += c * brackets[a]
                gamma[i, j] = gamma[j, i] = mp.re(total) / (2 * mp.pi)
        return gamma


def exact_current_mpmath(params, dps: int = 60) -> float:
    """The exact hot-bath current (k/2)(Gamma_23 - Gamma_14) of
    exact_covariance_mpmath, differenced at dps digits."""
    import mpmath as mp
    with mp.workdps(dps):
        gamma = exact_covariance_mpmath(params, dps)
        return float(mp.mpf(params.k) / 2 * (gamma[1, 2] - gamma[0, 3]))


# ---------------------------------------------------------------------------
# Gaussian discord

#: the search grid: _N_SQUEEZE squeezings log-spaced in
#: [1/_GRID_S_MAX, _GRID_S_MAX] times _N_ANGLE angles; the polish may go
#: on towards the homodyne limit up to s = _POLISH_S_MAX
_N_SQUEEZE, _N_ANGLE = 200, 64
_GRID_S_MAX = 1e3
_POLISH_S_MAX = 1e9


def _grid_starts(a, b, c) -> tuple:
    """Grid minimum of the conditional entropy, and up to three polish
    starts (ln s, phi): the best grid points that are not neighbours of
    an already-used start, so distinct shallow basins are all explored."""
    from qwire.gaussian import _conditional_entropies
    s_vals = np.logspace(-math.log10(_GRID_S_MAX), math.log10(_GRID_S_MAX),
                         _N_SQUEEZE)
    phi_vals = np.linspace(0.0, math.pi, _N_ANGLE, endpoint=False)
    s_grid, phi_grid = np.meshgrid(s_vals, phi_vals, indexing="ij")
    cond = _conditional_entropies(
        a.ravel(), b.ravel(), c.ravel(), s_grid.ravel(),
        phi_grid.ravel(), np).reshape(s_grid.shape)
    flat_order = np.argsort(cond, axis=None)
    seeds = []
    for flat in flat_order[:40]:
        js, jp = np.unravel_index(flat, cond.shape)
        if all(abs(js - i) > 3
               or min(abs(jp - j), _N_ANGLE - abs(jp - j)) > 3
               for i, j in seeds):
            seeds.append((js, jp))
        if len(seeds) == 3:
            break
    return (float(cond.flat[flat_order[0]]),
            [(math.log(s_vals[js]), float(phi_vals[jp])) for js, jp in seeds])


def scipy_polish(a, b, c, starts) -> list:
    """Minimum of a Nelder-Mead polish of the conditional entropy over
    (ln s, phi) from each start, by scipy.optimize.minimize."""
    from scipy.optimize import minimize
    from qwire.gaussian import _conditional_entropies
    log_cap = math.log(_POLISH_S_MAX)

    def cost(z):
        if abs(z[0]) > log_cap:
            return 1e6 + abs(z[0])
        out = float(_conditional_entropies(a.ravel(), b.ravel(), c.ravel(),
                                           math.exp(z[0]), z[1], np))
        return out if math.isfinite(out) else 1e6

    return [float(minimize(cost, np.array(start), method="Nelder-Mead",
                           options={"xatol": 1e-12, "fatol": 1e-13,
                                    "maxiter": 400}).fun)
            for start in starts]


def min_conditional_entropy(a, b, c) -> float:
    """min over pure Gaussian measurement seeds of S(A | m) by search: a
    (squeezing x angle) grid, then a Nelder-Mead polish from each of the
    three best separated grid points.  The reference of the closed-form
    seeds of qwire.gaussian."""
    best, starts = _grid_starts(a, b, c)
    return min([best] + scipy_polish(a, b, c, starts))


def adesso_datta_min_entropy(a, b, c) -> float:
    """min_m S(A | m) from the closed form of Adesso and Datta, PRL 105,
    030501 (2010), at 60 digits on the float inputs.

    The formula is stated in the invariants of sigma = 2 Gamma (vacuum 1).
    Its finite-squeezing branch divides by (det sigma_B - 1)^2, so next to
    a vacuum measured node the digits of a float input do not carry it.
    """
    import mpmath
    with mpmath.workdps(60):
        full = mpmath.matrix(4, 4)
        for i in range(2):
            for j in range(2):
                full[i, j] = 2 * mpmath.mpf(float(a[i, j]))
                full[i + 2, j + 2] = 2 * mpmath.mpf(float(b[i, j]))
                full[i, j + 2] = 2 * mpmath.mpf(float(c[i, j]))
                full[j + 2, i] = full[i, j + 2]
        det_a = mpmath.det(full[0:2, 0:2])
        det_b = mpmath.det(full[2:4, 2:4])
        det_c = mpmath.det(full[0:2, 2:4])
        det_s = mpmath.det(full)
        c2 = det_c**2
        if (det_s - det_a * det_b)**2 <= (1 + det_b) * c2 * (det_a + det_s):
            root = mpmath.sqrt(c2 + (det_b - 1) * (det_s - det_a))
            e_min = (2 * c2 + (det_b - 1) * (det_s - det_a)
                     + 2 * abs(det_c) * root) / (det_b - 1)**2
        else:
            e_min = (det_a * det_b - c2 + det_s - mpmath.sqrt(
                c2**2 + (det_s - det_a * det_b)**2
                - 2 * c2 * (det_a * det_b + det_s))) / (2 * det_b)
        nu = mpmath.sqrt(e_min) / 2
        out = (nu + 0.5) * mpmath.log(nu + 0.5)
        if nu > 0.5:
            out -= (nu - 0.5) * mpmath.log(nu - 0.5)
        return float(out)


# ---------------------------------------------------------------------------
# strong-coupling entanglement

#: strong_coupling_asymptote's resonance test: |w_h^2 - w_c^2| <= it * sum
_RESONANCE_TOL = 1e-9


def strong_coupling_asymptote(params) -> float:
    """Large-k limit of the global-solution log-negativity, resonant nodes.

    E = (1/4) ln[2k (1 - e^(w/T_c))^2 (1 - e^(w/T_h))^2
                 / ((1 - e^(2w/Tbar))^2 w^2)]
    with Tbar the harmonic mean of the two temperatures.  A negative value
    means no entanglement is predicted at that coupling.
    """
    d = abs(params.omega_h**2 - params.omega_c**2)
    if d > _RESONANCE_TOL * (params.omega_h**2 + params.omega_c**2):
        raise ValueError("asymptote only defined for resonant nodes")
    if params.k <= 0:
        raise ValueError("asymptote requires k > 0")
    w = params.omega_c
    t_bar = 2.0 / (1.0 / params.t_c + 1.0 / params.t_h)
    num = 2.0 * params.k * (1.0 - math.exp(w / params.t_c))**2 \
        * (1.0 - math.exp(w / params.t_h))**2
    den = (1.0 - math.exp(2.0 * w / t_bar))**2 * w**2
    return 0.25 * math.log(num / den)
