from itertools import combinations

import numpy as np
import pytest

from dynsub.errors import (
    BlockFormError,
    ConstraintError,
    ModeLimitError,
    NormError,
    ProjectorError,
    SingularSymbolError,
)
from dynsub.matcore import hermitian_part, singular_values, von_neumann_entropy
from dynsub.quasifree import (
    QFMap,
    _compound,
    fock_density,
    qf_adjoint,
    qf_apply,
    qf_bistochastic,
    qf_bistochastic_entropy,
    qf_compose,
    qf_extreme,
    qf_extreme_entropy,
    qf_jam_symbol,
    qf_map_entropy,
    qf_odot_symbol,
    qf_state_entropy,
    qf_validate,
    validate_symbol,
)
from dynsub.randgen import (
    haar_unitary,
    random_contraction,
    random_projector,
    random_qf_map,
    random_symbol,
)


def depolarizer(n):
    return QFMap(np.zeros((n, n), dtype=complex), np.eye(n, dtype=complex) / 2)


def identity_map(n):
    return QFMap(np.eye(n, dtype=complex), np.zeros((n, n), dtype=complex))


# -- validation -----------------------------------------------------------------


def test_validate_unitary_map():
    u = haar_unitary(3, 0)
    qf_validate(u, np.zeros((3, 3)))


def test_validate_depolarizer():
    m = qf_validate(np.zeros((3, 3)), np.eye(3) / 2)
    assert np.abs(qf_apply(m, random_symbol(3, 1)) - np.eye(3) / 2).max() < 1e-12


def test_validate_rejects_violated_constraint():
    with pytest.raises(ConstraintError):
        qf_validate(np.eye(2), np.eye(2) / 2)
    with pytest.raises(ConstraintError):
        qf_validate(np.zeros((2, 2)), -0.1 * np.eye(2))
    # 1 - R^dag R - Z with an eigenvalue at -tol/2 passes, at -2 tol fails
    qf_validate(np.diag([np.sqrt(1 + 5e-10), 0.0]), np.zeros((2, 2)))
    with pytest.raises(ConstraintError):
        qf_validate(np.diag([np.sqrt(1 + 2e-9), 0.0]), np.zeros((2, 2)))


def test_validate_symbol_bounds():
    validate_symbol(np.eye(3) / 2)
    with pytest.raises(ConstraintError):
        validate_symbol(1.5 * np.eye(2))


# -- symbol action and composition ------------------------------------------------


def test_apply_unitary_preserves_spectrum():
    u = haar_unitary(4, 2)
    q = random_symbol(4, 3)
    out = qf_apply(QFMap(u, np.zeros((4, 4))), q)
    assert np.abs(np.linalg.eigvalsh(out) - np.linalg.eigvalsh(q)).max() < 1e-12


def test_tracial_symbol_fixed_by_bistochastic():
    m = random_qf_map(4, 4, bistochastic=True)
    half = np.eye(4) / 2
    assert np.abs(qf_apply(m, half) - half).max() < 1e-12


def test_compose_definitional_oracle():
    for seed in range(20):
        m1 = random_qf_map(4, 10 + seed)
        m2 = random_qf_map(4, 40 + seed)
        m21 = qf_compose(m2, m1)
        q = random_symbol(4, 70 + seed)
        lhs = qf_apply(m21, q)
        rhs = qf_apply(m2, qf_apply(m1, q))
        assert np.abs(lhs - rhs).max() < 1e-12


def test_compose_with_unitary_later():
    u = haar_unitary(3, 5)
    earlier = random_qf_map(3, 6)
    out = qf_compose(QFMap(u, np.zeros((3, 3))), earlier)
    assert np.abs(out.r - earlier.r @ u).max() < 1e-12
    assert np.abs(out.z - u.conj().T @ earlier.z @ u).max() < 1e-12


def test_depolarizer_idempotent():
    d = depolarizer(3)
    out = qf_compose(d, d)
    assert np.abs(out.r).max() == 0
    assert np.abs(out.z - np.eye(3) / 2).max() < 1e-15


def test_composition_stays_valid():
    m1 = random_qf_map(3, 7)
    m2 = random_qf_map(3, 8)
    out = qf_compose(m2, m1)
    qf_validate(out.r, out.z)


# -- map symbols and their composition law ------------------------------------------


def test_jam_symbol_identity_is_entangled_projector():
    sym = qf_jam_symbol(identity_map(3))
    assert np.abs(sym @ sym - sym).max() < 1e-14
    assert np.abs(sym - 0.5 * np.block([[np.eye(3), np.eye(3)], [np.eye(3), np.eye(3)]])).max() < 1e-14


def test_jam_symbol_depolarizer_is_maximally_mixed():
    assert np.abs(qf_jam_symbol(depolarizer(3)) - np.eye(6) / 2).max() < 1e-15


def test_jam_symbol_top_left_block_always_half_identity():
    m = random_qf_map(4, 9)
    sym = qf_jam_symbol(m)
    assert np.abs(sym[:4, :4] - np.eye(4) / 2).max() == 0
    validate_symbol(sym)


def test_jam_symbol_bistochastic_spectrum():
    m = random_qf_map(5, 11, bistochastic=True)
    lam = np.linalg.svd(m.r, compute_uv=False)
    predicted = np.sort(np.concatenate([(1 + lam) / 2, (1 - lam) / 2]))
    assert np.abs(np.sort(np.linalg.eigvalsh(qf_jam_symbol(m))) - predicted).max() < 1e-10


def test_odot_symbol_matches_composition():
    for seed in range(20):
        m1 = random_qf_map(3, 100 + seed)
        m2 = random_qf_map(3, 130 + seed)
        lhs = qf_odot_symbol(qf_jam_symbol(m2), qf_jam_symbol(m1))
        rhs = qf_jam_symbol(qf_compose(m2, m1))
        assert np.abs(lhs - rhs).max() < 1e-12


def test_odot_symbol_neutral_element():
    sym = qf_jam_symbol(random_qf_map(3, 12))
    e = qf_jam_symbol(identity_map(3))
    assert np.abs(qf_odot_symbol(sym, e) - sym).max() < 1e-14
    assert np.abs(qf_odot_symbol(e, sym) - sym).max() < 1e-14


def test_odot_symbol_associative():
    syms = [qf_jam_symbol(random_qf_map(3, 13 + k)) for k in range(3)]
    lhs = qf_odot_symbol(qf_odot_symbol(syms[2], syms[1]), syms[0])
    rhs = qf_odot_symbol(syms[2], qf_odot_symbol(syms[1], syms[0]))
    assert np.abs(lhs - rhs).max() < 1e-12


def test_odot_symbol_affine_in_earlier_operand():
    later = qf_jam_symbol(random_qf_map(3, 16))
    e1 = qf_jam_symbol(random_qf_map(3, 17))
    e2 = qf_jam_symbol(random_qf_map(3, 18))
    mix = 0.3 * e1 + 0.7 * e2
    lhs = qf_odot_symbol(later, mix)
    rhs = 0.3 * qf_odot_symbol(later, e1) + 0.7 * qf_odot_symbol(later, e2)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_odot_symbol_depolarizer_absorbs():
    d_sym = qf_jam_symbol(depolarizer(3))
    other = qf_jam_symbol(random_qf_map(3, 19))
    out = qf_odot_symbol(d_sym, other)
    assert np.abs(out - np.eye(6) / 2).max() < 1e-12
    out2 = qf_odot_symbol(other, d_sym)
    assert np.abs(out2[:3, 3:]).max() < 1e-12  # R-block vanishes: constant map


def _old_jam_symbol(m):
    n = m.modes
    lower = hermitian_part(m.r.conj().T @ m.r + 2 * m.z)
    return 0.5 * np.block([[np.eye(n, dtype=complex), m.r], [m.r.conj().T, lower]])


def _old_odot_symbol(later_sym, earlier_sym):
    n = later_sym.shape[0] // 2
    l1, l2 = 2 * later_sym[:n, n:], 2 * later_sym[n:, n:]
    e1, e2 = 2 * earlier_sym[:n, n:], 2 * earlier_sym[n:, n:]
    t1 = e1 @ l1
    t2 = hermitian_part(l1.conj().T @ (e2 - np.eye(n)) @ l1 + l2)
    return 0.5 * np.block([[np.eye(n, dtype=complex), t1], [t1.conj().T, t2]])


def test_symbols_are_bitwise_the_block_expressions():
    # The former np.block forms are the oracle: filling one array in place and
    # halving it must give every bit, signed zeros included.
    g = np.random.default_rng(41)
    pairs = [(identity_map(3), depolarizer(3)), (QFMap(np.eye(2), np.zeros((2, 2))), depolarizer(2))]
    for index in range(90):
        n = (1, 2, 3, 4, 5, 6, 7, 8, 64)[index % 9]
        pairs.append((random_qf_map(n, g, bistochastic=index % 2 == 0), random_qf_map(n, g)))
    for m1, m2 in pairs:
        j1, j2 = qf_jam_symbol(m1), qf_jam_symbol(m2)
        for new, old in [
            (j1, _old_jam_symbol(m1)),
            (j2, _old_jam_symbol(m2)),
            (qf_odot_symbol(j2, j1), _old_odot_symbol(j2, j1)),
        ]:
            assert new.dtype == old.dtype and new.tobytes() == old.tobytes(), m1.modes


def test_odot_symbol_rejects_bad_block_form():
    with pytest.raises(BlockFormError):
        qf_odot_symbol(np.eye(6) / 3, np.eye(6) / 2)


# -- entropies ----------------------------------------------------------------------


def test_state_entropy_projector_is_zero():
    p = random_projector(4, 20, rank=2)
    assert qf_state_entropy(p) < 1e-12


def test_state_entropy_tracial():
    for n in (2, 5):
        assert abs(qf_state_entropy(np.eye(n) / 2) - n * np.log(2)) < 1e-12


def test_state_entropy_direct_evaluation():
    q = np.diag([0.25, 0.75])
    expected = 2 * (0.25 * np.log(4) + 0.75 * np.log(4 / 3))
    assert abs(qf_state_entropy(q) - expected) < 1e-12


def test_map_entropy_unitary_is_zero():
    assert qf_map_entropy(QFMap(haar_unitary(4, 21), np.zeros((4, 4)))) < 1e-12


def test_map_entropy_depolarizer_is_maximal():
    n = 4
    assert abs(qf_map_entropy(depolarizer(n)) - 2 * n * np.log(2)) < 1e-12


def test_bistochastic_closed_form():
    for seed in range(10):
        m = random_qf_map(4, 200 + seed, bistochastic=True)
        assert abs(qf_map_entropy(m) - qf_bistochastic_entropy(m.r)) < 1e-10


def test_extreme_closed_form():
    for seed in range(10):
        r = random_contraction(3, 300 + seed)
        p = random_projector(3, 400 + seed)
        m = qf_extreme(r, p)
        assert abs(qf_map_entropy(m) - qf_extreme_entropy(r, p)) < 1e-8


def test_closed_form_refuses_a_norm_above_one():
    r = random_contraction(4, 26)
    r = r / singular_values(r)[0] * (1 + 1e-6)
    with pytest.raises(NormError):
        qf_bistochastic_entropy(r)
    with pytest.raises(NormError):
        qf_bistochastic_entropy(QFMap(r, np.zeros((4, 4))))
    # Within the tolerance the singular values are clipped to 1.
    assert qf_bistochastic_entropy(r / (1 + 1e-6) * (1 + 1e-10)) >= 0


def _bistochastic_pairs(modes, count, seed):
    g = np.random.default_rng(seed)
    for index in range(count):
        n = modes[index % len(modes)]
        yield random_qf_map(n, g, bistochastic=True), random_qf_map(n, g, bistochastic=True)


@pytest.mark.parametrize("modes", [range(1, 9), [64]], ids=["modes1-8", "modes64"])
def test_bistochastic_composition_is_the_map_of_the_product(modes):
    # Z = (1 - R^dag R)/2 is kept by composition, and R_21 = R_1 R_2, so the
    # harness takes S(Phi_2 Phi_1) from the closed form on R_1 R_2.
    for b1, b2 in _bistochastic_pairs(modes, 200, 43):
        composed = qf_compose(b2, b1)
        product = qf_bistochastic(b1.r @ b2.r)
        assert composed.r.tobytes() == product.r.tobytes()
        assert np.abs(composed.z - product.z).max() < 1e-12
        assert abs(qf_bistochastic_entropy(b2) - qf_map_entropy(b2)) < 1e-10
        assert abs(qf_bistochastic_entropy(product) - qf_map_entropy(composed)) < 1e-10


def test_singular_values_are_cached_read_only():
    for n in (1, 3, 64):
        m = random_qf_map(n, 27 + n, bistochastic=True)
        assert m.sigma is m.sigma
        assert m.sigma.tobytes() == singular_values(m.r).tobytes()
        with pytest.raises(ValueError):
            m.sigma[0] = 0.5
        adjoint = qf_adjoint(m)
        assert adjoint.sigma.tobytes() == m.sigma.tobytes()
        assert not adjoint.sigma.flags.writeable
        # An extreme map caches the singular values of its norm check; any
        # other map computes them on first use.
        e = qf_extreme(m.r, random_projector(n, 28))
        assert e.sigma.tobytes() == singular_values(m.r).tobytes()
        lazy = qf_compose(m, e)
        assert lazy.sigma.tobytes() == singular_values(lazy.r).tobytes()
        assert not lazy.sigma.flags.writeable


def test_adjoint_is_the_bistochastic_map_of_r_dagger():
    for n in (1, 3, 64):
        m = random_qf_map(n, 29 + n, bistochastic=True)
        adjoint = qf_adjoint(m)
        direct = qf_bistochastic(m.r.conj().T)
        assert adjoint.r.tobytes() == direct.r.tobytes()
        assert adjoint.z.tobytes() == direct.z.tobytes()
        assert np.abs(adjoint.sigma - direct.sigma).max() < 1e-12
    r = random_contraction(4, 30)
    r = r / singular_values(r)[0] * (1 + 1e-6)
    with pytest.raises(NormError):
        qf_adjoint(QFMap(r, np.zeros((4, 4))))


def test_entropy_invariant_under_adjoint_r():
    m = random_qf_map(4, 22, bistochastic=True)
    assert abs(qf_map_entropy(m) - qf_map_entropy(qf_bistochastic(m.r.conj().T))) < 1e-10


def test_quasifree_dynamical_subadditivity():
    for seed in range(50):
        m1 = random_qf_map(4, 500 + seed, bistochastic=True)
        m2 = random_qf_map(4, 600 + seed, bistochastic=True)
        s1, s2 = qf_map_entropy(m1), qf_map_entropy(m2)
        s21 = qf_map_entropy(qf_compose(m2, m1))
        assert max(s1, s2) - 1e-8 <= s21 <= s1 + s2 + 1e-8


# -- constructors ---------------------------------------------------------------------


def test_bistochastic_constructor():
    m = qf_bistochastic(np.zeros((3, 3)))
    assert np.abs(m.z - np.eye(3) / 2).max() == 0
    with pytest.raises(NormError):
        qf_bistochastic(2 * np.eye(2))


def test_extreme_constructor_boundaries():
    r = random_contraction(3, 23)
    z0 = qf_extreme(r, np.zeros((3, 3))).z
    assert np.abs(z0).max() < 1e-12
    z1 = qf_extreme(r, np.eye(3)).z
    assert np.abs(z1 - (np.eye(3) - r.conj().T @ r)).max() < 1e-10
    with pytest.raises(ProjectorError):
        qf_extreme(r, 0.5 * np.eye(3))


# -- Fock-space realization -------------------------------------------------------------


def test_fock_density_single_mode():
    q = np.array([[0.3]])
    assert np.abs(fock_density(q) - np.diag([0.7, 0.3])).max() < 1e-14


def test_fock_density_tracial_is_maximally_mixed():
    for n in (1, 2, 3):
        assert np.abs(fock_density(np.eye(n) / 2) - np.eye(2**n) / 2**n).max() < 1e-12


def test_fock_density_projector_is_pure_in_particle_sector():
    p = random_projector(2, 24, rank=1)
    d = fock_density(p)
    assert np.abs(d @ d - d).max() < 1e-12
    assert abs(np.trace(d) - 1) < 1e-12
    # support lies in the one-particle sector (indices 1..2 of [1, 2, 1] blocks)
    assert np.abs(d[0, 0]) < 1e-12 and np.abs(d[3, 3]) < 1e-12


def test_fock_density_full_projector():
    d = fock_density(np.eye(2))
    assert abs(d[3, 3] - 1) < 1e-12 and abs(np.trace(d) - 1) < 1e-12


def test_fock_density_entropy_cross_check():
    for n in (1, 2, 3, 4):
        for seed in range(5):
            q = random_symbol(n, 1000 + 10 * n + seed)
            assert abs(von_neumann_entropy(fock_density(q)) - qf_state_entropy(q)) < 1e-8


def test_fock_density_is_valid_density():
    q = random_symbol(3, 25)
    d = fock_density(q)
    assert abs(np.trace(d) - 1) < 1e-12
    assert np.linalg.eigvalsh(d).min() > -1e-12


def test_fock_density_mode_limit():
    with pytest.raises(ModeLimitError):
        fock_density(np.eye(5) / 2)


def test_fock_density_refuses_singular_non_projector():
    q = np.diag([1.0, 0.5])
    with pytest.raises(SingularSymbolError):
        fock_density(q)


def test_compound_is_bitwise_the_minor_by_minor_determinants():
    g = np.random.default_rng(31)
    for index in range(200):
        n = 1 + index % 4
        m = random_symbol(n, g)
        for k in range(n + 1):
            subs = list(combinations(range(n), k))
            loop = np.ones((1, 1), dtype=complex) if k == 0 else np.array(
                [[np.linalg.det(m[np.ix_(rows, cols)]) for cols in subs] for rows in subs]
            )
            out = _compound(m, k)
            assert out.shape == loop.shape and out.tobytes() == loop.tobytes(), (n, k)
