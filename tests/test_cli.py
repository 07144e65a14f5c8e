import json

import numpy as np
import pytest

from dynsub import harness
from dynsub.channels import depolarizing_channel, identity_channel
from dynsub.cli import main
from dynsub.harness import SUITES
from dynsub.jsonio import matrix_to_obj, save_matrix


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write(tmp_path, name, mat):
    path = tmp_path / name
    save_matrix(np.asarray(mat), str(path))
    return str(path)


def test_channel_entropy_identity(tmp_path, capsys):
    path = write(tmp_path, "id.json", identity_channel(2).choi)
    code, out = run_cli(capsys, "channel", "entropy", "--choi", path)
    assert code == 0
    assert json.loads(out)["entropy"] == 0.0


def test_channel_entropy_depolarizing(tmp_path, capsys):
    path = write(tmp_path, "dep.json", depolarizing_channel(2).choi)
    code, out = run_cli(capsys, "channel", "entropy", "--choi", path)
    assert code == 0
    assert json.loads(out)["entropy"] == pytest.approx(1.386294361120, abs=1e-12)


def test_channel_kraus_and_compose(tmp_path, capsys):
    path = write(tmp_path, "id.json", identity_channel(2).choi)
    code, out = run_cli(capsys, "channel", "kraus", "--choi", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["weights"] == [2.0]
    code, out = run_cli(capsys, "channel", "compose", "--later", path, "--earlier", path)
    assert code == 0
    choi = json.loads(out)["choi"]
    assert choi == matrix_to_obj(identity_channel(2).choi)


def test_channel_apply(tmp_path, capsys):
    choi = write(tmp_path, "id.json", identity_channel(2).choi)
    state = write(tmp_path, "rho.json", np.diag([0.25, 0.75]).astype(complex))
    code, out = run_cli(capsys, "channel", "apply", "--choi", choi, "--state", state)
    assert code == 0
    rows = json.loads(out)["state"]["rows"]
    assert rows[0][0] == [0.25, 0.0] and rows[1][1] == [0.75, 0.0]


def test_classical_entropy(tmp_path, capsys):
    path = write(tmp_path, "flat.json", np.full((3, 3), 1 / 3))
    code, out = run_cli(capsys, "classical", "entropy", "--matrix", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["uniform"] == pytest.approx(1.098612288668, abs=1e-12)
    assert payload["invariant"] == pytest.approx(1.098612288668, abs=1e-12)


def test_classical_bounds_both_modes(tmp_path, capsys):
    t1 = write(tmp_path, "t1.json", np.array([[0.7, 0.4], [0.3, 0.6]]))
    t2 = write(tmp_path, "t2.json", np.array([[0.5, 0.2], [0.5, 0.8]]))
    p = write(tmp_path, "p.json", np.array([[0.5, 0.5]]))
    code, out = run_cli(capsys, "classical", "bounds", "--t1", t1, "--p", p)
    assert code == 0
    b = json.loads(out)
    assert b["lower"] - 1e-12 <= b["actual"] <= b["upper"] + 1e-12
    code, out = run_cli(capsys, "classical", "bounds", "--t1", t1, "--t2", t2)
    assert code == 0
    b = json.loads(out)
    assert b["lower"] - 1e-12 <= b["actual"] <= b["upper"] + 1e-12


def test_qf_commands(tmp_path, capsys):
    n = 2
    r = write(tmp_path, "r.json", np.zeros((n, n), dtype=complex))
    z = write(tmp_path, "z.json", (np.eye(n) / 2).astype(complex))
    code, out = run_cli(capsys, "qf", "entropy", "--r", r, "--z", z)
    assert code == 0
    assert json.loads(out)["entropy"] == pytest.approx(2 * n * np.log(2), abs=1e-12)

    q = write(tmp_path, "q.json", (np.eye(n) / 2).astype(complex))
    code, out = run_cli(capsys, "qf", "entropy", "--q", q)
    assert json.loads(out)["entropy"] == pytest.approx(n * np.log(2), abs=1e-12)

    code, out = run_cli(
        capsys, "qf", "compose",
        "--later-r", r, "--later-z", z, "--earlier-r", r, "--earlier-z", z,
    )
    assert code == 0
    composed = json.loads(out)
    assert composed["r"]["rows"][0][0] == [0.0, 0.0]

    code, out = run_cli(capsys, "qf", "fock", "--q", q)
    assert code == 0
    rows = json.loads(out)["density"]["rows"]
    assert rows[0][0] == [0.25, 0.0]


def test_random_commands(tmp_path, capsys):
    code, out = run_cli(capsys, "random", "channel", "--dim", "2", "--seed", "5")
    assert code == 0
    first = json.loads(out)
    code, out = run_cli(capsys, "random", "channel", "--dim", "2", "--seed", "5")
    assert json.loads(out) == first  # seeded draws reproduce
    code, out = run_cli(capsys, "random", "matrix", "--dim", "3", "--seed", "1", "--bistochastic")
    t = np.array(json.loads(out)["matrix"]["rows"])
    assert np.abs(t.sum(axis=0) - 1).max() < 1e-10
    assert np.abs(t.sum(axis=1) - 1).max() < 1e-10
    code, out = run_cli(capsys, "random", "qfmap", "--modes", "2", "--seed", "2")
    assert code == 0 and "r" in json.loads(out)


def test_verify_single_suite(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out = run_cli(
        capsys, "verify", "--suite", "power_subadd", "--dim", "2",
        "--samples", "5", "--seed", "1", "--json", str(out_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert out_path.read_text() == out


def test_exit_code_1_on_violation(capsys, monkeypatch):
    # a witness gap wider than any pair of density matrices can show forces
    # both witness checks to fail
    monkeypatch.setattr(harness, "WITNESS_GAP", 10.0)
    code, out = run_cli(
        capsys, "verify", "--suite", "statecomp_algebra", "--dim", "2",
        "--samples", "3", "--seed", "1",
    )
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_exit_code_2_on_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_cli(capsys, "channel", "entropy", "--choi", str(bad))
    assert code == 2
    missing, _ = run_cli(capsys, "channel", "entropy", "--choi", str(tmp_path / "nope.json"))
    assert missing == 2


def test_exit_code_2_on_invalid_object(tmp_path, capsys):
    path = write(tmp_path, "notstoch.json", np.array([[0.9, 0.2], [0.2, 0.8]]))
    code, _ = run_cli(capsys, "classical", "entropy", "--matrix", path)
    assert code == 2
    # a non-CP Choi matrix cannot be decomposed into Kraus operators
    swap = np.eye(4)[:, [0, 2, 1, 3]].astype(complex)
    code, _ = run_cli(capsys, "channel", "kraus", "--choi", write(tmp_path, "swap.json", swap))
    assert code == 2


def assert_exits_2(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(["--dim", "2", "--samples", "0"], id="2-0"),
        pytest.param(["--dim", "2", "--samples", "-1"], id="2--1"),
        pytest.param(["--dim", "0", "--samples", "2"], id="0-2"),
        pytest.param(["--dim", "-2", "--samples", "2"], id="-2-2"),
        pytest.param(["--samples", "2", "--seed", "-1"], id="seed--1"),
        pytest.param(["--samples", "2", "--tol", "nan"], id="tol-nan"),
        pytest.param(["--samples", "2", "--tol", "inf"], id="tol-inf"),
        pytest.param(["--samples", "2", "--tol", "-1"], id="tol--1"),
    ],
)
def test_exit_code_2_on_bad_verify_grid(capsys, args):
    assert_exits_2(capsys, "verify", "--suite", "lindblad", *args)


@pytest.mark.parametrize(
    "args",
    [
        ["channel", "--seed", "-1"],
        ["channel", "--index", "-1"],
        ["channel", "--dim", "0"],
        ["channel", "--dim", "-1"],
        ["channel", "--dim", "0", "--bistochastic"],
        ["matrix", "--dim", "0"],
        ["matrix", "--dim", "0", "--bistochastic"],
        ["qfmap", "--modes", "0"],
        ["qfmap", "--seed", "-1"],
    ],
    ids=" ".join,
)
def test_exit_code_2_on_bad_random_draw(capsys, args):
    assert_exits_2(capsys, "random", *args)


def test_statecomp_algebra_at_dim_1_exits_2(capsys):
    code = main(["verify", "--suite", "statecomp_algebra", "--dim", "1", "--samples", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("suite", sorted(set(SUITES) - {"statecomp_algebra"}))
def test_other_suites_run_at_dim_1(capsys, suite):
    code = main(["verify", "--suite", suite, "--dim", "1", "--samples", "2"])
    capsys.readouterr()
    assert code == 0


def test_exit_code_2_on_missing_argument(capsys):
    code, _ = run_cli(capsys, "channel", "entropy")
    assert code == 2
