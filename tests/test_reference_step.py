import numpy as np

import reference_step

# A formula that changes moves these values far beyond 1e-9 of a sketch's
# largest entry; rounding does not. Measured on the float64 step: one against
# two BLAS threads moved them by at most 1.2e-15 of that entry, and BLAS
# kernels picked for other CPUs (OPENBLAS_CORETYPE=Sandybridge or Prescott)
# by at most 4.4e-15.
RTOL = 1e-9
# A gradient that vanishes in exact arithmetic is rounding noise, which the
# kernels above moved by up to 7.6e-16: the position heads' biases, as the
# softmax over positions does not see a shift, and the unknown-word row,
# which no token reads.
ATOL = 1e-12


def test_step_and_eval_logits_match_the_committed_reference():
    with np.load(reference_step.PATH) as f:
        expected = {k: f[k] for k in f.files}
    got = reference_step.compute()
    assert got.keys() == expected.keys()
    off = {}
    for key, ref in expected.items():
        atol = max(RTOL * np.abs(ref).max(), ATOL)
        if not np.allclose(got[key], ref, rtol=RTOL, atol=atol):
            off[key] = float(np.abs(got[key] - ref).max() / max(np.abs(ref).max(), ATOL))
    assert not off, f"moved, relative to each sketch's largest entry: {off}"
