import numpy as np
import pytest

from dynsub.channels import jam_state
from dynsub.errors import ClassError, DimensionError
from dynsub.matcore import max_entangled_projector, partial_trace, von_neumann_entropy
from dynsub.randgen import ginibre, random_bistochastic_channel, random_channel, random_density
from dynsub.statecomp import (
    StateClass,
    idempotent_extension,
    membership,
    not_square_witness,
    odot_raw,
    odot_state,
)


def test_neutral_element_raw():
    x = ginibre(9, 0)
    e = 3 * max_entangled_projector(3)
    assert np.abs(odot_raw(x, e) - x).max() == 0
    assert np.abs(odot_raw(e, x) - x).max() == 0


def test_neutral_element_state_level():
    sigma = jam_state(random_channel(3, 1))
    p = max_entangled_projector(3)
    assert np.abs(odot_state(sigma, p) - sigma).max() < 1e-12
    assert np.abs(odot_state(p, sigma) - sigma).max() < 1e-12


def test_choi_level_composition():
    c1 = random_channel(3, 2)
    c2 = random_channel(3, 3)
    assert np.abs(odot_raw(c2.choi, c1.choi) - c2.compose(c1).choi).max() < 1e-10


def test_jam_state_composition():
    c1 = random_channel(2, 4)
    c2 = random_channel(2, 5)
    lhs = odot_state(jam_state(c2), jam_state(c1))
    assert np.abs(lhs - jam_state(c2.compose(c1))).max() < 1e-10


def test_positivity_closure():
    for seed in range(10):
        x = random_density(4, 2 * seed)
        y = random_density(4, 2 * seed + 1)
        assert np.linalg.eigvalsh(odot_raw(x, y)).min() > -1e-9


def test_hermiticity_closure_and_associativity():
    g = np.random.default_rng(7)
    mats = [g.normal(size=(9, 9)) + 1j * g.normal(size=(9, 9)) for _ in range(3)]
    herm = [(m + m.conj().T) / 2 for m in mats]
    xy = odot_raw(herm[0], herm[1])
    assert np.abs(xy - xy.conj().T).max() < 1e-12
    lhs = odot_raw(odot_raw(*herm[:2]), herm[2])
    rhs = odot_raw(herm[0], odot_raw(*herm[1:]))
    assert np.abs(lhs - rhs).max() < 1e-10 * max(1, np.abs(lhs).max())


def test_noncommutativity_witness():
    x = random_density(4, 30)
    y = random_density(4, 31)
    assert np.abs(odot_raw(x, y) - odot_raw(y, x)).max() > 1e-6


def test_odot_raw_takes_list_operands():
    x, y = random_density(4, 32), random_density(4, 33)
    assert np.array_equal(odot_raw(x.tolist(), y.tolist()), odot_raw(x, y))
    with pytest.raises(DimensionError):
        odot_raw(np.eye(4).tolist(), np.eye(9).tolist())


def test_membership_classes():
    n = 3
    assert membership(max_entangled_projector(n)) is StateClass.D_II
    rho0 = random_density(n, 8)
    assert membership(idempotent_extension(rho0)) is StateClass.D_I
    assert membership(idempotent_extension(np.eye(n) / n)) is StateClass.D_II
    assert membership(random_density(n * n, 9)) is StateClass.GENERAL


def test_odot_state_requires_membership():
    sigma = random_density(9, 10)
    with pytest.raises(ClassError):
        odot_state(sigma, sigma)


def test_d1_and_d2_closure():
    n = 3
    flat = np.eye(n) / n
    s1 = jam_state(random_channel(n, 11))
    s2 = jam_state(random_channel(n, 12))
    out = odot_state(s2, s1)
    assert abs(np.trace(out) - 1) < 1e-9
    assert np.abs(partial_trace(out, "A") - flat).max() < 1e-8
    b1 = jam_state(random_bistochastic_channel(n, 13))
    b2 = jam_state(random_bistochastic_channel(n, 14))
    outb = odot_state(b2, b1)
    assert np.abs(partial_trace(outb, "A") - flat).max() < 1e-8
    assert np.abs(partial_trace(outb, "B") - flat).max() < 1e-8


def test_idempotent_extension():
    rho0 = random_density(3, 15)
    sigma = idempotent_extension(rho0)
    assert np.abs(odot_state(sigma, sigma) - sigma).max() < 1e-10
    # as a channel, N*sigma maps any input to rho0
    from dynsub.channels import Channel

    ch = Channel(3 * sigma)
    omega = random_density(3, 16)
    assert np.abs(ch.apply(omega) - rho0).max() < 1e-10


def test_idempotent_extension_of_pure_state_has_entropy_log_n():
    v = np.zeros(3, dtype=complex)
    v[0] = 1.0
    sigma = idempotent_extension(np.outer(v, v.conj()))
    assert abs(von_neumann_entropy(sigma) - np.log(3)) < 1e-12


def test_not_square_witness_closed_forms():
    n = 2
    # maximally mixed on the doubled space: composition gives eye/N^3, square eye/N^4
    sigma = np.eye(n * n, dtype=complex) / n**2
    expected = 1 / n**3 - 1 / n**4
    assert abs(not_square_witness(sigma) - expected) < 1e-15
    # entangled projector: composition gives P/N, square gives P
    p = max_entangled_projector(n)
    assert np.abs(odot_raw(p, p) - p / n).max() < 1e-15
    assert abs(not_square_witness(p) - (1 - 1 / n) / n) < 1e-15


def test_not_square_witness_positive_generically():
    assert not_square_witness(random_density(9, 17)) > 1e-6


def test_triangle_inequality_for_composition():
    n = 2
    for seed in range(20):
        s1 = jam_state(random_bistochastic_channel(n, 100 + 2 * seed))
        s2 = jam_state(random_bistochastic_channel(n, 101 + 2 * seed))
        e1, e2 = von_neumann_entropy(s1), von_neumann_entropy(s2)
        e21 = von_neumann_entropy(odot_state(s2, s1))
        e12 = von_neumann_entropy(odot_state(s1, s2))
        assert max(e1, e2) - 1e-8 <= min(e21, e12)
        assert max(e21, e12) <= e1 + e2 + 1e-8
