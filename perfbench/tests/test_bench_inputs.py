import numpy as np
import pytest

import inputs
import ternrep as tr
from ternrep import _mat


@pytest.mark.parametrize("seed", [1, 2, 7])
def test_moved_forms_keep_positivity_and_represented_sets(seed):
    for sid, forms in inputs.catalog(seed, tr.SET_IDS):
        for original, form in zip(tr.table_set(sid, inputs.CATALOG_SCALE), forms):
            assert tr.is_positive_definite(form)
            assert np.array_equal(tr.represented_mask(form, 2000), tr.represented_mask(original, 2000))


def test_seed_zero_is_the_catalog_and_seeds_repeat():
    assert inputs.catalog(0, tr.SET_IDS) == [(sid, tr.table_set(sid, 2)) for sid in tr.SET_IDS]
    assert inputs.catalog(3, tr.SET_IDS) == inputs.catalog(3, tr.SET_IDS)
    assert inputs.catalog(3, tr.SET_IDS) != inputs.catalog(4, tr.SET_IDS)
    assert inputs.pairs(5, inputs.PROVE_SETS) == inputs.pairs(5, inputs.PROVE_SETS)
    assert inputs.pairs(5, inputs.PROVE_SETS) != inputs.pairs(6, inputs.PROVE_SETS)


def test_basis_change_is_unimodular():
    import random

    rng = random.Random(3)
    for _ in range(200):
        assert _mat.det(inputs.basis_change(rng)) in (1, -1)
