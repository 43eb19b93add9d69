import pytest

from golden import regen

BLAS, CORPUS = regen.load()
# other BLAS kernels round the same solves differently, and a solve can then
# stop at another point within its target gap
SAME_KERNEL = BLAS == regen.blas_fingerprint()


def test_corpus_covers_every_instance():
    assert sorted(CORPUS) == sorted(inst["name"] for inst in regen.INSTANCES)


@pytest.mark.parametrize("inst", regen.INSTANCES, ids=lambda inst: inst["name"])
def test_seeded_solve_matches_the_golden_corpus(inst):
    # iteration counts depend on the BLAS build, so they are not recorded
    want, got = CORPUS[inst["name"]], regen.run(inst)
    if "total_mse" in want:
        # a bootstrap: the same rounded samples give the same refits
        assert got["used_replicates"] == want["used_replicates"]
        for method, mse in want["total_mse"].items():
            assert abs(got["total_mse"][method] / mse - 1.0) <= 1e-9
        return
    if "exit_code" in want:
        assert got["exit_code"] == want["exit_code"]
        assert got["report_keys"] == want["report_keys"]
    v = want["v"]
    assert got["converged"] and got["gap_ratio"] <= want["target_gap"]
    assert abs(got["phi_value"] / want["phi_value"] - 1.0) <= v / (1.0 - v)
    if want["exact_indices"]:
        assert got["indices"] == want["indices"]
    if want["certified_lower_bound"] is None:
        assert got["certified_lower_bound"] is None
        return
    # both certify one sample, and a solve within gap t certifies a value in
    # [(1 - t) e, e], e the sample's efficiency: they differ by at most t e
    t, cert = want["target_gap"], want["certified_lower_bound"]
    tol = 1e-9 if SAME_KERNEL else max(1e-9, t / (1.0 - t) * cert)
    assert abs(got["certified_lower_bound"] - cert) <= tol
