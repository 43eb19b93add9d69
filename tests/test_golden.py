import json

import pytest

from golden import regen

CORPUS = {e["name"]: e for e in json.loads(regen.CORPUS.read_text())}


def test_corpus_covers_every_instance():
    assert sorted(CORPUS) == sorted(inst["name"] for inst in regen.INSTANCES)


@pytest.mark.parametrize("inst", regen.INSTANCES, ids=lambda inst: inst["name"])
def test_seeded_solve_matches_the_golden_corpus(inst):
    # iteration counts depend on the BLAS build, so they are not recorded
    want, got = CORPUS[inst["name"]], regen.run(inst)
    v = want["v"]
    assert got["converged"] and got["gap_ratio"] <= want["target_gap"]
    assert abs(got["phi_value"] / want["phi_value"] - 1.0) <= v / (1.0 - v)
    if want["exact_indices"]:
        assert got["indices"] == want["indices"]
    assert abs(got["certified_lower_bound"] - want["certified_lower_bound"]) <= 1e-9
