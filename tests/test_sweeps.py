import numpy as np
import pytest

from qverify.errors import InvalidParameter
from qverify.sweeps import haar_unitary, sweep_noise, sweep_samples


def test_haar_unitary_is_unitary_and_seeded():
    a = haar_unitary(4, np.random.default_rng(3))
    assert np.allclose(a.conj().T @ a, np.eye(4))
    assert np.array_equal(a, haar_unitary(4, np.random.default_rng(3)))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"shots_list": []},
        {"shots_list": [1000, 100]},
        {"shots_list": [0, 100]},
        {"n": 1},
        {"seeds": 0},
    ],
    ids=["empty", "descending", "zero-level", "one-qubit", "no-seeds"],
)
def test_sweep_samples_rejects(kwargs):
    args = {"n": 2, "shots_list": [100], "seeds": 1, "seed": 0, **kwargs}
    with pytest.raises(InvalidParameter):
        sweep_samples(**args)


@pytest.mark.parametrize(
    "kwargs",
    [{"gammas": [6]}, {"gammas": [-1]}, {"depths": 0}, {"seeds": 0}],
    ids=["gamma-6", "gamma-neg", "no-depth", "no-seeds"],
)
def test_sweep_noise_rejects(kwargs):
    args = {"gammas": [0], "depths": 1, "seeds": 1, "seed": 0, **kwargs}
    with pytest.raises(InvalidParameter):
        sweep_noise(**args)


def test_sweeps_return_their_csv():
    samples = sweep_samples(2, [100], 1, 0).splitlines()
    assert samples[0] == "m,N,mean_fidelity,std"
    assert [row.split(",")[:2] for row in samples[1:]] == [["1", "100"], ["2", "100"]]
    noise = sweep_noise([0, 5], 2, 1, 0).splitlines()
    assert noise[0] == "gamma,depth,median_fidelity,mean_fidelity,std"
    assert len(noise) == 1 + 2 * 2
