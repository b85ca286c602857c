"""Brute-force Lindblad exact diagonalization in the occupation-number basis.

Everything here is the small-system oracle: Jordan-Wigner fermion operators
with their sign strings baked into plain scipy CSR matrices, one pair
creation operator shared by the Hamiltonians (arbitrary antisymmetric
pairing, global charging energy) and the absorber-doubled pure state, the
vectorized Liouvillian (also behind ``pseudospin.interaction_breakdown``),
steady states, the partial trace, two-time correlations via quantum
regression, the hidden-TRS check (fixed site pair (1, 2), pump on site 1)
and the cascade nonreciprocity check.  Operators carry no parity
label: the evolutions find the parity-difference half they can stay in
from their start vector.  Dimensions are deliberately capped; the
closed-form modules are the production path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .core import OBC, PBC, ModelParams, PairingMatrix, nearest_neighbor_pairing, validate_params
from .errors import (
    DegenerateKernelError,
    DimensionMismatchError,
    OddParityStateError,
    TooLargeError,
    TooManyModesError,
)

MAX_MODES = 16
# largest Liouvillian dimension (4^L for L modes).  On a 2-core x86 VM the
# default htrs run (two pump rates, 201 times) took 111 s and a 244 MB peak
# at L = 8 (65536); at L = 9 one 2-point run had not finished after 60 s.
MAX_LIOUVILLIAN_DIM = 4 ** 8
# largest vectorized dimension whose steady state comes from a sparse LU;
# above it ``steady_state`` relaxes by evolution.  On the same VM at L = 7
# (16384) the LU took 13.1 s and an 800 MB peak, the evolution 5.7 s and
# 75 MB.
LU_MAX_DIM = 4096
# the hidden-TRS checks correlate c_i and c_j at the 1-based sites
# HTRS_SITES = (i, j) and pump site HTRS_PUMP_SITE
HTRS_SITES = (1, 2)
HTRS_PUMP_SITE = 1
# inverse-iteration solves before ``steady_state`` gives up on reaching a
# kernel residual below 1e-13; every oracle system here needs 2
MAX_LU_SOLVES = 30
# the truncated Taylor propagator of Al-Mohy & Higham, SIAM J. Sci. Comput.
# 33, 488 (2011), at unit roundoff: a sub-step spans a 1-norm of at most
# theta_55 = 9.9 (their table 3.1) and sums at most 55 terms
TAYLOR_TERMS = 55
TAYLOR_THETA = 9.9
TAYLOR_TOL = 2.0 ** -53


def _popcounts(dim: int) -> np.ndarray:
    return np.bitwise_count(np.arange(dim, dtype=np.uint32)).astype(np.int64)


def dag(op: sp.csr_matrix) -> sp.csr_matrix:
    """Hermitian conjugate of a sparse operator."""
    return op.conj().T.tocsr()


def build_operators(n_modes: int) -> list[sp.csr_matrix]:
    """Annihilation operators c_0 .. c_{M-1} with Jordan-Wigner signs.

    Basis state k has mode j occupied iff bit j of k is set; the creation
    string is ordered by increasing mode index, so the sign of c_j on state
    k is (-1)^(number of occupied modes below j).
    """
    if n_modes > MAX_MODES:
        raise TooManyModesError(f"{n_modes} modes exceed the cap of {MAX_MODES}")
    dim = 1 << n_modes
    states = np.arange(dim, dtype=np.int64)
    ops = []
    for j in range(n_modes):
        bit = 1 << j
        occupied = (states & bit) != 0
        cols = states[occupied]
        rows = cols ^ bit
        below = np.bitwise_count((cols & (bit - 1)).astype(np.uint32)).astype(np.int64)
        signs = 1.0 - 2.0 * (below & 1)
        ops.append(sp.csr_matrix(
            (signs.astype(complex), (rows, cols)), shape=(dim, dim)
        ))
    return ops


def number_operators(ops: list[sp.csr_matrix]) -> list[sp.csr_matrix]:
    return [dag(c) @ c for c in ops]


def total_number(n_modes: int) -> sp.csr_matrix:
    dim = 1 << n_modes
    return sp.diags(_popcounts(dim).astype(complex)).tocsr()


def parity_operator(n_modes: int) -> sp.csr_matrix:
    dim = 1 << n_modes
    signs = 1.0 - 2.0 * (_popcounts(dim) & 1)
    return sp.diags(signs.astype(complex)).tocsr()


def pair_creation(D, ops: list[sp.csr_matrix]) -> sp.csr_matrix:
    """sum_{i<j} 2 D_ij c_i^dag c_j^dag over ``ops``: the factor 2 restores
    the double sum over ordered pairs of the antisymmetric D."""
    dim = ops[0].shape[0]
    P = sp.csr_matrix((dim, dim), dtype=complex)
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            if D[i, j] != 0:
                P = P + (2.0 * D[i, j]) * (dag(ops[i]) @ dag(ops[j]))
    return P


def build_hamiltonian(pairing, mu: float, e_c: float,
                      ops: list[sp.csr_matrix]) -> sp.csr_matrix:
    """Hermitian matrix of the pairing chain Hamiltonian.

    H = -mu * sum_j n_j + e_c/(2M) * (sum_j n_j)^2 + P + P^dag

    with P = :func:`pair_creation` of the antisymmetric pairing matrix D.
    The sums run over the M modes of ``ops``, which may be a block of a
    larger Fock space.
    """
    D = pairing.entries if isinstance(pairing, PairingMatrix) else np.asarray(pairing)
    M = len(ops)
    if D.shape != (M, M):
        raise DimensionMismatchError(f"pairing shape {D.shape} vs {M} modes")
    occ = sum(n.diagonal().real for n in number_operators(ops))
    diag = -mu * occ + (e_c / (2.0 * M)) * occ * occ
    P = pair_creation(D, ops)
    return (sp.diags(diag.astype(complex)) + P + dag(P)).tocsr()


@dataclass(frozen=True)
class SuperOperator:
    """Vectorized Lindblad generator acting on row-stacked density matrices."""

    dim: int
    matrix: sp.csr_matrix

    @property
    def hilbert_dim(self) -> int:
        return math.isqrt(self.dim)


def vec(rho: np.ndarray) -> np.ndarray:
    return np.asarray(rho).reshape(-1)


def unvec(v: np.ndarray) -> np.ndarray:
    d = math.isqrt(v.size)
    return np.asarray(v).reshape(d, d)


def build_liouvillian(H: sp.csr_matrix, jumps: list[sp.csr_matrix],
                      rates) -> SuperOperator:
    """Sparse matrix of d(rho)/dt = -i[H, rho] + sum_j r_j D[L_j] rho.

    Row-stacked vectorization: vec(A rho B) = (A kron B^T) vec(rho).  The
    Jordan-Wigner matrices already carry every fermionic sign, so no extra
    superoperator bookkeeping is required.  Raises TooLargeError, before
    allocating, above MAX_LIOUVILLIAN_DIM.
    """
    dim = H.shape[0]
    if dim * dim > MAX_LIOUVILLIAN_DIM:
        raise TooLargeError(f"Liouvillian dimension {dim * dim} exceeds the "
                            f"cap of {MAX_LIOUVILLIAN_DIM}")
    if np.isscalar(rates):
        rates = [rates] * len(jumps)
    if len(rates) != len(jumps):
        raise DimensionMismatchError("one rate per jump operator required")
    eye = sp.identity(dim, dtype=complex, format="csr")
    Lv = -1j * (sp.kron(H, eye) - sp.kron(eye, H.T))
    for c, r in zip(jumps, rates):
        if c.shape[0] != dim:
            raise DimensionMismatchError("jump operator dimension mismatch")
        cdc = (c.conj().T @ c).tocsr()
        Lv = Lv + r * (
            sp.kron(c, c.conj())
            - 0.5 * sp.kron(cdc, eye)
            - 0.5 * sp.kron(eye, cdc.T)
        )
    return SuperOperator(dim * dim, Lv.tocsr())


def smallest_eigenvalues(liouv: SuperOperator, k: int = 4) -> np.ndarray:
    """The k Liouvillian eigenvalues closest to zero (deterministic seed)."""
    A = liouv.matrix
    n = A.shape[0]
    if n <= 1024:
        w = np.linalg.eigvals(A.toarray())
        return w[np.argsort(np.abs(w))[:k]]
    shift = 1e-8
    lu = spla.splu((A - shift * sp.identity(n, dtype=complex, format="csc")).tocsc())
    op_inv = spla.LinearOperator((n, n), matvec=lu.solve, dtype=complex)
    v0 = np.ones(n) / math.sqrt(n)
    w = spla.eigs(A, k=k, sigma=shift, OPinv=op_inv, v0=v0,
                  return_eigenvectors=False)
    return w[np.argsort(np.abs(w))]


def _sector(A, x) -> np.ndarray:
    """Indices on which exp(A t) x and the kernel iteration from x are exact.

    The entries of row-stacked vec(rho) split into two parity-difference
    halves: those whose row and column parities differ, and those whose
    parities agree.  This returns the half that holds every nonzero entry
    of x (the even one when x is all zero), provided A has no nonzero
    coupling it to the other half, as for a Liouvillian whose Hamiltonian
    is even and whose jumps each have a definite parity; otherwise every
    index.
    """
    n = A.shape[0]
    par = _popcounts(math.isqrt(n)) & 1
    odd = (par[:, None] != par[None, :]).reshape(-1)
    inside = odd if x[odd].any() else ~odd
    coo = A.tocoo()
    if not x[~inside].any() and np.array_equal(inside[coo.row],
                                               inside[coo.col]):
        return np.flatnonzero(inside)
    return np.arange(n)


def steady_state(liouv: SuperOperator,
                 degeneracy_check: bool | None = None) -> np.ndarray:
    """Unique density matrix in the Liouvillian kernel.

    The iteration starts from the maximally mixed state and runs on the even
    row/column parity-difference half, which then holds the kernel exactly,
    whenever the Liouvillian does not couple it to the odd half; otherwise
    it runs on the full vectorized space.  Up to LU_MAX_DIM vectorized
    dimensions: shifted inverse iteration on the sparse LU factorization,
    with a spectrum check of the full Liouvillian near zero guarding the
    uniqueness assumption (``degeneracy_check`` defaults to on there).
    Beyond that the direct factorization is impractical, so the state is
    evolved in geometric time stages until the kernel residual drops below
    1e-12; the spectrum check is skipped unless forced.

    Raises
    ------
    DegenerateKernelError
        If two or more eigenvalues lie within 1e-10 of zero, if
        MAX_LU_SOLVES solves leave the kernel residual at 1e-13 or more,
        or if the evolution fallback cannot isolate a kernel vector.
    """
    A = liouv.matrix
    n = A.shape[0]
    d = liouv.hilbert_dim
    if degeneracy_check is None:
        degeneracy_check = n <= LU_MAX_DIM
    if degeneracy_check:
        w = smallest_eigenvalues(liouv, k=min(4, d * d - 2) if d * d > 4 else 2)
        if np.sum(np.abs(w) < 1e-10) >= 2:
            raise DegenerateKernelError(
                f"{np.sum(np.abs(w) < 1e-10)} eigenvalues within 1e-10 of zero"
            )
    x0 = vec(np.eye(d, dtype=complex) / d)
    idx = _sector(A, x0)
    As, x = A[idx][:, idx].tocsr(), x0[idx]
    if n > LU_MAX_DIM:
        x = _kernel_by_evolution(As, x)
    else:
        lu = spla.splu(
            (As - 1e-9 * sp.identity(idx.size, dtype=complex,
                                     format="csc")).tocsc())
        for _ in range(MAX_LU_SOLVES):
            x = lu.solve(x)
            x = x / np.linalg.norm(x)
            residual = np.linalg.norm(As @ x)
            if residual < 1e-13:
                break
        else:
            raise DegenerateKernelError(
                f"inverse iteration left the kernel residual at "
                f"{residual:.2e} after {MAX_LU_SOLVES} solves")
    full = np.zeros(n, dtype=complex)
    full[idx] = x
    rho = unvec(full)
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho)
    if abs(tr) < 1e-12:  # pragma: no cover - kernel vector always has trace
        raise DegenerateKernelError("kernel vector is traceless")
    rho = rho / tr
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -1e-10:
        raise DegenerateKernelError(
            f"kernel state not positive semidefinite (min eigenvalue {evals.min():.2e})"
        )
    return rho


def _kernel_by_evolution(A, x, target=1e-12, t_stage=250.0, max_stages=14):
    """Relax x toward the kernel of A in geometric time stages, each one
    :func:`_expm_grid` step of length ``t_stage``."""
    for _ in range(max_stages):
        x = _expm_grid(A, x, t_stage, 1)[1]
        x = x / np.linalg.norm(x)
        if np.linalg.norm(A @ x) < target:
            return x
        t_stage *= 2.0
    raise DegenerateKernelError(
        "evolution fallback did not isolate a kernel vector "
        f"(residual {np.linalg.norm(A @ x):.2e})"
    )


def _expm_grid(A, v, h: float, q: int) -> np.ndarray:
    """exp(A k h) v for k = 0..q, as a (q + 1, n) array.

    The truncated Taylor series of Al-Mohy & Higham with the stopping rule
    of their algorithm 3.2 (scipy's matrix-exponential action uses the
    same).  A is shifted by mu = tr(A)/n to B = A - mu.  Each grid step
    takes s = max(1, ceil(h ||B||_1 / TAYLOR_THETA)) sub-steps of h/s.  A
    sub-step sums F = sum_p K_p with K_0 = x and K_p = (h/s) B K_{p-1} / p,
    stops after K_p once ||K_{p-1}||_inf + ||K_p||_inf <= TAYLOR_TOL
    ||F||_inf, or after TAYLOR_TERMS terms, where the a-priori bound
    already holds, and sets x = e^{h mu / s} F.  The norms are
    max(|Re|, |Im|) over the entries, which is at most ||.||_inf and at
    least ||.||_inf / sqrt(2), so the test, run with TAYLOR_TOL / sqrt(2),
    implies the exact one.
    """
    n = A.shape[0]
    mu = A.trace() / n
    B = A - mu * sp.identity(n, dtype=A.dtype, format="csr")
    s = max(1, math.ceil(h * abs(B).sum(axis=0).max() / TAYLOR_THETA))
    B = (h / s) * B
    eta = np.exp((h / s) * mu)
    tol = TAYLOR_TOL / math.sqrt(2.0)
    out = np.empty((q + 1, n), dtype=complex)
    out[0] = v
    mags = np.empty(2 * n)

    def norm(x):
        return np.abs(x.view(np.float64), out=mags).max()

    for k in range(1, q + 1):
        F = out[k]
        F[...] = out[k - 1]
        for _ in range(s):
            K, c1 = F, norm(F)
            for p in range(1, TAYLOR_TERMS + 1):
                K = B @ K
                K_real = K.view(np.float64)  # a real divide costs less
                K_real /= p
                c2 = norm(K)
                F += K
                if c1 + c2 <= tol * norm(F):
                    break
                c1 = c2
            F *= eta
    return out


def _evolve_traces(A, v0, times: np.ndarray, observables) -> np.ndarray:
    """Tr(O unvec(exp(A t) v0)) for each t of ``times`` and each sparse O,
    as a (times, observables) array.

    ``times`` must be a uniform, strictly increasing grid from 0 (else
    ValueError).  The evolution is one :func:`_expm_grid` call with the
    grid's own step on the indices ``_sector(A, v0)``; each trace is one
    dot product, Tr(O rho) = vec(O^T) . vec(rho), over them.
    """
    times = np.asarray(times, dtype=float)
    if times.size < 2 or times[0] != 0.0:
        raise ValueError("times must be a grid starting at 0")
    steps = np.diff(times)
    if not np.all(steps > 0.0):
        raise ValueError("times must be strictly increasing")
    if not np.allclose(steps, steps[0], rtol=1e-12, atol=1e-15):
        raise ValueError("times must be uniformly spaced")
    idx = _sector(A, v0)
    q = times.size - 1
    vt = _expm_grid(A[idx][:, idx].tocsr(), v0[idx], times[-1] / q, q)
    return vt @ np.stack([vec(o.T.toarray())[idx] for o in observables],
                         axis=1)


# ---------------------------------------------------------------------------
# Absorber-doubled system
# ---------------------------------------------------------------------------
#
# Mode layout: modes 0..L-1 are the physical sites (A block, low bits),
# modes L..2L-1 the absorber sites (B block, high bits).  The composite
# Hamiltonian is H(A) - H(B) plus the unidirectional coupling
# -i*kappa/2 * sum_j (c_jA^dag c_jB - h.c.); the collective jumps are
# sqrt(kappa) (c_jA - c_jB).


@dataclass(frozen=True)
class DoubledSystem:
    """The absorber-doubled system, with the physical block's ``pairing``,
    ``mu`` and ``e_c``: ``build_cqa_state`` and ``verify_dark_conditions``
    both read one built system."""

    L: int
    ops: list[sp.csr_matrix]         # 2L annihilators, A block then B block
    hamiltonian: sp.csr_matrix       # cascaded composite Hamiltonian
    jumps: list[sp.csr_matrix]       # c_jA - c_jB (rate kappa each)
    kappa: float
    pairing: PairingMatrix
    mu: float
    e_c: float

    @property
    def a_ops(self) -> list[sp.csr_matrix]:
        return self.ops[: self.L]

    @property
    def b_ops(self) -> list[sp.csr_matrix]:
        return self.ops[self.L:]

    def dark_ops(self) -> list[sp.csr_matrix]:
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        return [(inv_sqrt2 * (a + b)).tocsr()
                for a, b in zip(self.a_ops, self.b_ops)]


def build_doubled_system(params_or_pairing, mu=None, e_c=None, kappa=None,
                         absorber_mu=None) -> DoubledSystem:
    """Cascaded physical block and absorber copy, from ModelParams or from
    a pairing matrix with explicit ``mu``, ``e_c`` and ``kappa``;
    ``absorber_mu`` detunes the absorber block's chemical potential
    (default: mu)."""
    if isinstance(params_or_pairing, ModelParams):
        p = validate_params(params_or_pairing)
        pm = nearest_neighbor_pairing(p.L, p.delta, p.bc)
        mu, e_c, kappa = p.mu, p.e_c, p.kappa
    else:
        pm = params_or_pairing
        if not isinstance(pm, PairingMatrix):
            pm = PairingMatrix.from_entries(pm)
        if mu is None or e_c is None or kappa is None:
            raise ValueError("mu, e_c, kappa are required with an explicit pairing matrix")
    L = pm.entries.shape[0]
    if 2 * L > MAX_MODES:
        raise TooManyModesError(f"doubled system needs {2 * L} modes (cap {MAX_MODES})")
    ops = build_operators(2 * L)
    a_ops, b_ops = ops[:L], ops[L:]
    H = (build_hamiltonian(pm, mu, e_c, a_ops)
         - build_hamiltonian(pm, mu if absorber_mu is None else absorber_mu,
                             e_c, b_ops))
    for a, b in zip(a_ops, b_ops):
        t = dag(a) @ b
        H = H + (-0.5j * kappa) * (t - t.conj().T)
    jumps = [(a - b).tocsr() for a, b in zip(a_ops, b_ops)]
    return DoubledSystem(L=L, ops=ops, hamiltonian=H.tocsr(), jumps=jumps,
                         kappa=kappa, pairing=pm, mu=mu, e_c=e_c)


def build_cqa_state(system: DoubledSystem) -> np.ndarray:
    """Normalized pure steady state of the absorber-doubled ``system``.

    The state is the power series sum_n (g_n / n!) (P^dag)^n |0> with
    P^dag the :func:`pair_creation` operator of the dark modes c_{j,+} and
    g_n = 1 / prod_{m=1..n} (mu~ - m e_c / L); the series terminates on
    its own when no further pair fits (and at half filling on even rings,
    where the two maximal tilings cancel).
    """
    L, e_c = system.L, system.e_c
    mu_t = complex(system.mu, 0.5 * system.kappa)
    pair_raise = pair_creation(system.pairing.entries, system.dark_ops())
    psi = np.zeros(1 << (2 * L), dtype=complex)
    psi[0] = 1.0
    component = psi.copy()
    coeff = 1.0 + 0j
    for n in range(1, L // 2 + 1):
        component = pair_raise @ component
        if np.linalg.norm(component) == 0.0:
            break
        coeff = coeff / (mu_t - n * e_c / L)
        psi += (coeff / math.factorial(n)) * component
    return psi / np.linalg.norm(psi)


@dataclass(frozen=True)
class DarkReport:
    hamiltonian_residual: float
    jump_residuals: np.ndarray

    @property
    def max_residual(self) -> float:
        return max(self.hamiltonian_residual, float(self.jump_residuals.max()))


def verify_dark_conditions(state: np.ndarray,
                           system: DoubledSystem) -> DarkReport:
    """Residual norms of H_cqa |psi> and of every collective jump on |psi>."""
    h_res = float(np.linalg.norm(system.hamiltonian @ state))
    j_res = np.array([np.linalg.norm(j @ state) for j in system.jumps])
    return DarkReport(hamiltonian_residual=h_res, jump_residuals=j_res)


def partial_trace_absorber(state: np.ndarray) -> np.ndarray:
    """Reduced density matrix of the physical block of a doubled pure state.

    Valid as an ordinary blocked partial trace because the state is required
    to have even total parity and the mode ordering is blocked (all physical
    modes below all absorber modes), so no Jordan-Wigner string crosses the
    cut for physical-block observables.
    """
    n_modes = int(round(math.log2(state.size)))
    if state.size != 1 << n_modes or n_modes % 2:
        raise DimensionMismatchError("state must span 2L modes")
    L = n_modes // 2
    occ = _popcounts(state.size)
    odd_weight = float(np.linalg.norm(state[(occ & 1) == 1]))
    if odd_weight > 1e-12 * max(1.0, float(np.linalg.norm(state))):
        raise OddParityStateError(f"odd-parity weight {odd_weight:.2e}")
    m = state.reshape(1 << L, 1 << L)  # [absorber bits, physical bits]
    return np.einsum("ba,bc->ac", m, m.conj())


def trace_distance(rho1: np.ndarray, rho2: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.linalg.eigvalsh(rho1 - rho2)).sum())


# ---------------------------------------------------------------------------
# Two-time correlations and hidden time-reversal checks
# ---------------------------------------------------------------------------


def two_time_correlation(liouv: SuperOperator, rho_ss: np.ndarray,
                         X: sp.csr_matrix, Y: sp.csr_matrix,
                         times: np.ndarray) -> np.ndarray:
    """<X(t) Y(0)> on a uniform, strictly increasing time grid from 0 via
    quantum regression, one value per entry of ``times`` (else ValueError).

    Propagates vec(Y rho_ss) with the Taylor stepper :func:`_expm_grid`,
    one series per grid step (several sub-steps when the step times the
    shifted Liouvillian's 1-norm exceeds TAYLOR_THETA), and traces against
    X at each grid point.  Only the row/column parity-difference half
    holding vec(Y rho_ss) is propagated: with rho_ss in the even half (as
    ``steady_state`` returns it) that is the even half for Y even and the
    odd half for Y odd.  The full space is used when vec(Y rho_ss) has
    weight in both halves, or when the Liouvillian couples them.
    """
    return _evolve_traces(liouv.matrix, vec(Y @ rho_ss), times, [X])[:, 0]


@dataclass(frozen=True)
class HtrsReport:
    asymmetry: np.ndarray          # max_t |<c_i(t)c_j(0)> + <c_j(t)c_i(0)>|

    @property
    def monotone(self) -> bool:
        return bool(np.all(np.diff(self.asymmetry) > 0))


def single_system(params: ModelParams):
    """Annihilators and Hamiltonian of the nearest-neighbour chain
    ``params`` on its L modes (no absorber)."""
    p = validate_params(params)
    ops = build_operators(p.L)
    H = build_hamiltonian(nearest_neighbor_pairing(p.L, p.delta, p.bc),
                          p.mu, p.e_c, ops)
    return ops, H


def _check_pump_rate(gamma_p: float) -> None:
    if not 0 <= gamma_p < math.inf:  # also rejects nan
        raise ValueError(f"gamma_p must be >= 0 and finite, got {gamma_p}")


def htrs_point(ops: list[sp.csr_matrix], H: sp.csr_matrix, kappa: float,
               gamma_p: float, times: np.ndarray):
    """Loss ``kappa`` on every mode plus, for ``gamma_p`` > 0, the pump
    D[c^dag] at rate ``gamma_p`` on site HTRS_PUMP_SITE = 1: the pair
    (<c_i(t) c_j(0)>, <c_j(t) c_i(0)>) in the steady state, for the fixed
    sites (i, j) = HTRS_SITES = (1, 2) (1-based)."""
    _check_pump_rate(gamma_p)
    i, j = HTRS_SITES[0] - 1, HTRS_SITES[1] - 1
    jumps = list(ops)
    rates = [kappa] * len(ops)
    if gamma_p > 0:
        jumps.append(dag(ops[HTRS_PUMP_SITE - 1]))
        rates.append(gamma_p)
    liouv = build_liouvillian(H, jumps, rates)
    rho = steady_state(liouv, degeneracy_check=False)
    return (two_time_correlation(liouv, rho, ops[i], ops[j], times),
            two_time_correlation(liouv, rho, ops[j], ops[i], times))


def htrs_breaking(params: ModelParams, gamma_p: float, times: np.ndarray,
                  gamma_fractions: tuple[float, ...] = (0.0, 0.5, 1.0)) -> HtrsReport:
    """Pair-swap asymmetry of <c_1(t) c_2(0)> under weak incoherent pumping.

    For each pump rate in ``gamma_fractions * gamma_p`` the steady state of
    the Lindbladian with the pump D[c^dag] on site 1 (see
    :func:`htrs_point`) is recomputed and the forward and reversed
    correlators compared; without pumping the sum vanishes (Onsager
    antisymmetry for odd jump operators), with pumping it does not.  A
    negative or non-finite ``gamma_p`` is rejected before any point is
    computed.
    """
    _check_pump_rate(gamma_p)
    ops, H = single_system(params)
    gammas = np.array(sorted({f * gamma_p for f in gamma_fractions}))
    asym = []
    for g in gammas:
        forward, reversed_ = htrs_point(ops, H, params.kappa, g, times)
        asym.append(float(np.abs(forward + reversed_).max()))
    return HtrsReport(asymmetry=np.array(asym))


# ---------------------------------------------------------------------------
# Cascade nonreciprocity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CascadeReport:
    max_system_deviation: float    # physical-block (upstream) observables
    max_absorber_deviation: float  # downstream observable


def cascade_nonreciprocity_check(params: ModelParams, absorber_tweak: float,
                                 times: np.ndarray | None = None) -> CascadeReport:
    """Detune the absorber and compare upstream vs downstream observables.

    Two doubled systems are evolved from vacuum, identical except that the
    absorber-block chemical potential is scaled by (1 + absorber_tweak).
    Upstream (physical-block, parity-even) observables must not move;
    at least one absorber observable must.
    """
    p = validate_params(params)
    if 4 ** (2 * p.L) > MAX_LIOUVILLIAN_DIM:
        raise TooManyModesError(f"nonreciprocity check on {2 * p.L} modes "
                                f"exceeds the Liouvillian cap")
    if times is None:
        times = np.linspace(0.0, 5.0 / p.kappa, 11)
    base = build_doubled_system(p)
    tweaked = build_doubled_system(p, absorber_mu=p.mu * (1.0 + absorber_tweak))
    obs_dev = []
    for system in (base, tweaked):
        liouv = build_liouvillian(system.hamiltonian, system.jumps,
                                  [p.kappa] * p.L)
        dim = 1 << (2 * p.L)
        rho0 = np.zeros((dim, dim), dtype=complex)
        rho0[0, 0] = 1.0
        sys_obs = number_operators(system.a_ops)
        sys_obs.append((system.a_ops[0] @ system.a_ops[1]).tocsr())
        abs_obs = [number_operators(system.b_ops)[0]]
        obs_dev.append(_evolve_traces(liouv.matrix, vec(rho0), times,
                                      sys_obs + abs_obs))
    diff = np.abs(obs_dev[0] - obs_dev[1])
    return CascadeReport(
        max_system_deviation=float(diff[:, :-1].max()),
        max_absorber_deviation=float(diff[:, -1].max()),
    )
