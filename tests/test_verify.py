import numpy as np
import pytest

from factorkd.chain_crf import lattice_objective
from factorkd.corpus import TagSequence
from factorkd.verify import GRAD_TOL, finite_diff, rand_lattice


@pytest.mark.parametrize("drop", [0, 1, 2, 3])
def test_finite_diff_fails_a_gradient_that_is_never_accumulated(drop):
    lat = rand_lattice(np.random.default_rng(0), 4, 3)
    gold = TagSequence((2, 0, 1, 1))
    params = [lat.emissions, lat.transitions, lat.start, lat.stop]

    def build_loss():
        loss, g = lattice_objective(lat, gold, None, 0.0)
        grads = [g.emissions, g.transitions, g.start, g.stop]
        grads[drop] = np.zeros_like(grads[drop])
        return loss, grads

    assert finite_diff(build_loss, params, np.random.default_rng(1)) > GRAD_TOL
