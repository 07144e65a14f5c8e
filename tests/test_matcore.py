import math

import numpy as np
import pytest

from dynsub.errors import (
    ConstraintError,
    DimensionError,
    DomainError,
    HermiticityError,
    PositivityError,
)
from dynsub.matcore import (
    CLAMP_TOL,
    eig_hermitian,
    eta,
    kron,
    max_entangled_projector,
    partial_trace,
    reshuffle,
    shannon_entropy,
    singular_values,
    validate_density_matrix,
    von_neumann_entropy,
)
from dynsub.quasifree import SYMBOL_TOL, fock_density, qf_state_entropy, qf_validate
from dynsub.randgen import haar_unitary, random_density


def rand_complex(n, seed):
    g = np.random.default_rng(seed)
    return g.normal(size=(n, n)) + 1j * g.normal(size=(n, n))


# -- reshuffle ---------------------------------------------------------------


def test_reshuffle_index_rule_exhaustive_n2():
    x = rand_complex(4, 0)
    r = reshuffle(x)
    for m in range(2):
        for n in range(2):
            for mu in range(2):
                for nu in range(2):
                    assert r[m * 2 + n, mu * 2 + nu] == x[m * 2 + mu, n * 2 + nu]


def test_reshuffle_is_exact_involution():
    x = rand_complex(9, 1)
    assert np.array_equal(reshuffle(reshuffle(x)), x)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_reshuffle_of_scaled_entangled_projector_is_identity(n):
    assert np.abs(reshuffle(n * max_entangled_projector(n)) - np.eye(n * n)).max() == 0


def test_reshuffle_of_identity_matches_entry_pattern():
    # entries 1 exactly where (m,n) == (mu,nu) after the index swap
    r = reshuffle(np.eye(4, dtype=complex))
    for m in range(2):
        for n in range(2):
            for mu in range(2):
                for nu in range(2):
                    expected = 1.0 if (m == n and mu == nu) else 0.0
                    assert r[m * 2 + n, mu * 2 + nu] == expected


def test_reshuffle_rejects_non_square_decomposable():
    with pytest.raises(DimensionError):
        reshuffle(np.eye(6))
    with pytest.raises(DimensionError):
        reshuffle(np.ones((4, 3)))


# -- partial trace and kron ----------------------------------------------------


def test_partial_trace_of_product_state():
    rho = random_density(3, 0)
    sig = random_density(3, 1)
    x = kron(rho, sig)
    assert np.abs(partial_trace(x, "B") - rho).max() < 1e-12
    assert np.abs(partial_trace(x, "A") - sig).max() < 1e-12


def test_partial_trace_of_entangled_projector():
    p = 3 * max_entangled_projector(3)
    assert np.abs(partial_trace(p, "A") - np.eye(3)).max() < 1e-14
    assert np.abs(partial_trace(p, "B") - np.eye(3)).max() < 1e-14


def test_partial_trace_of_identity():
    for side in "AB":
        assert np.abs(partial_trace(np.eye(16), side) - 4 * np.eye(4)).max() == 0


def test_partial_trace_preserves_trace():
    x = rand_complex(9, 2)
    for side in "AB":
        assert abs(np.trace(partial_trace(x, side)) - np.trace(x)) < 1e-12 * abs(np.trace(x))


def test_partial_trace_with_unequal_dims():
    a = rand_complex(2, 3)
    b = rand_complex(5, 4)
    x = kron(a, b)
    assert np.abs(partial_trace(x, "B", dims=(2, 5)) - a * np.trace(b)).max() < 1e-12


def test_kron_basics():
    assert np.array_equal(kron(np.eye(3), np.eye(4)), np.eye(12))
    x, y = rand_complex(3, 5), rand_complex(4, 6)
    assert abs(np.trace(kron(x, y)) - np.trace(x) * np.trace(y)) < 1e-12


# -- eigendecomposition and singular values -----------------------------------


def test_eig_hermitian_diagonal():
    vals, _ = eig_hermitian(np.diag([0.75, 0.25]))
    assert np.allclose(vals, [0.25, 0.75])


def test_eig_hermitian_rank_one_projector():
    vals, _ = eig_hermitian(np.full((2, 2), 0.5))
    assert np.allclose(vals, [0.0, 1.0], atol=1e-14)


def test_eig_hermitian_reconstructs():
    x = rand_complex(5, 7)
    x = (x + x.conj().T) / 2
    vals, vecs = eig_hermitian(x)
    assert np.abs(x @ vecs - vecs * vals).max() < 1e-10 * np.abs(x).max()
    assert np.abs(vecs.conj().T @ vecs - np.eye(5)).max() < 1e-10


def test_eig_hermitian_rejects_non_hermitian():
    with pytest.raises(HermiticityError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_singular_values_of_unitary_are_one():
    u = haar_unitary(4, 11)
    assert np.abs(singular_values(u) - 1).max() < 1e-12


def test_singular_values_of_diagonal():
    assert np.allclose(singular_values(np.diag([0.3, -0.8])), [0.8, 0.3])


def test_singular_values_spectral_oracle():
    x = rand_complex(4, 8)
    sv = singular_values(x)
    oracle = np.sqrt(np.clip(np.linalg.eigvalsh(x.conj().T @ x), 0, None))[::-1]
    assert np.abs(sv - oracle).max() < 1e-10
    assert np.all(np.diff(sv) <= 0) and sv.min() >= 0


# -- entropy primitives --------------------------------------------------------


def test_eta_endpoints_and_max():
    assert eta(0.0) == 0.0
    assert eta(1.0) == 0.0
    assert abs(eta(0.5) - 0.34657359027997264) < 1e-15
    assert abs(eta(1 / np.e) - 1 / np.e) < 1e-15


def test_eta_clamps_and_rejects():
    assert eta(-1e-10) == 0.0
    assert eta(1 + 1e-10) == 0.0
    with pytest.raises(DomainError):
        eta(-1e-3)
    with pytest.raises(DomainError):
        eta(1.01)


def test_eta_without_domain_check_clamps_everything():
    x = np.array([-0.5, -0.0, 0.0, 0.25, 1.0, 1.5, np.nan])
    out = eta(x, math.inf)
    assert np.array_equal(out, [0.0, 0.0, 0.0, eta(0.25), 0.0, 0.0, 0.0])
    assert not np.signbit(out[:3]).any()  # zeros stay positive zeros
    assert eta(0.0, math.inf) == 0.0 and not math.copysign(1.0, eta(0.0, math.inf)) < 0
    assert eta(np.nextafter(0.0, 1.0)) > 0.0


def test_von_neumann_entropy_closed_values():
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0
    for n in (2, 3, 5):
        assert abs(von_neumann_entropy(np.eye(n) / n) - np.log(n)) < 1e-12
    assert abs(von_neumann_entropy(np.diag([0.25, 0.75])) - 0.5623351446188083) < 1e-12


def test_von_neumann_entropy_unitarily_invariant():
    rho = random_density(4, 13)
    u = haar_unitary(4, 14)
    s1 = von_neumann_entropy(rho)
    s2 = von_neumann_entropy(u @ rho @ u.conj().T)
    assert abs(s1 - s2) < 1e-9


def test_von_neumann_entropy_rejects_negative():
    with pytest.raises(PositivityError):
        von_neumann_entropy(np.diag([1.1, -0.1]))


def test_entropy_equals_shannon_of_spectrum():
    rho = random_density(5, 15)
    spec = np.linalg.eigvalsh(rho)
    assert abs(von_neumann_entropy(rho) - shannon_entropy(np.clip(spec, 0, None))) < 1e-10


def test_shannon_entropy_closed_values():
    assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0
    assert abs(shannon_entropy(np.full(4, 0.25)) - np.log(4)) < 1e-12
    assert abs(shannon_entropy([0.7, 0.3]) - 0.6108643020548935) < 1e-12


def test_validate_density_matrix():
    validate_density_matrix(random_density(3, 16))
    with pytest.raises(HermiticityError):
        validate_density_matrix(np.array([[0.5, 0.1], [0.3, 0.5]]))
    with pytest.raises(PositivityError):
        validate_density_matrix(np.diag([1.5, -0.5]))
    from dynsub.errors import TraceError

    with pytest.raises(TraceError):
        validate_density_matrix(np.eye(2))


# -- the validators built on the spectral kernel -------------------------------

# validator, the error for an eigenvalue below -tol, and tol
VALIDATORS = {
    "validate_density_matrix": (validate_density_matrix, PositivityError, CLAMP_TOL),
    "von_neumann_entropy": (von_neumann_entropy, PositivityError, CLAMP_TOL),
    "qf_state_entropy": (qf_state_entropy, ConstraintError, SYMBOL_TOL),
    "fock_density": (fock_density, ConstraintError, SYMBOL_TOL),
    "qf_validate": (lambda z: qf_validate(np.zeros((2, 2)), z), ConstraintError, SYMBOL_TOL),
}


@pytest.mark.parametrize("name", sorted(VALIDATORS))
def test_validator_tolerance(name):
    validate, error, tol = VALIDATORS[name]
    # unit trace, eigenvalues v and 1 - v
    validate(np.diag([1 + tol / 2, -tol / 2]).astype(complex))
    with pytest.raises(error):
        validate(np.diag([1 + 2 * tol, -2 * tol]).astype(complex))
    with pytest.raises(HermiticityError):
        validate(np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex))
