import numpy as np
import pytest

from hopqa import autodiff as ad
from hopqa.autodiff import ShapeError, Tensor, constant, reduce_sum
from hopqa.attention import (
    AttentionTrace,
    FusionParams,
    SimilarityParams,
    cgde,
    context2query,
    fgin_q2c,
    fuse_g,
    similarity,
    vanilla_q2c,
)
from hopqa.gradcheck import grad_check


def _zero_sim_params(width):
    p = SimilarityParams.create(width, np.random.default_rng(0))
    p.w_h.data[:] = 0.0
    p.w_u.data[:] = 0.0
    return p


def _rand_hu(rng, t, j, width, dtype=np.float32):
    return (constant(rng.standard_normal((t, width)).astype(dtype), dtype=dtype),
            constant(rng.standard_normal((j, width)).astype(dtype), dtype=dtype))


# ---------------------------------------------------------------------------
# similarity


def test_similarity_shape():
    rng = np.random.default_rng(1)
    H, U = _rand_hu(rng, 3, 2, 4)
    S = similarity(H, U, SimilarityParams.create(4, rng))
    assert S.shape == (3, 2)


def test_similarity_zero_linears_is_bilinear_only():
    rng = np.random.default_rng(2)
    H, U = _rand_hu(rng, 4, 3, 6)
    S = similarity(H, U, _zero_sim_params(6))
    assert np.allclose(S.data, H.data @ U.data.T, atol=1e-6)


def test_similarity_orthogonal_row_is_zero():
    U = constant([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    H = constant([[0.0, 0.0, 2.0, -1.0], [1.0, 1.0, 0.0, 0.0]])
    S = similarity(H, U, _zero_sim_params(4))
    assert np.allclose(S.data[0], 0.0)


def test_similarity_mask_bias():
    rng = np.random.default_rng(3)
    H, U = _rand_hu(rng, 4, 3, 4)
    S = similarity(H, U, _zero_sim_params(4),
                   context_mask=np.array([1.0, 1.0, 0.0, 0.0]),
                   query_mask=np.array([1.0, 1.0, 0.0]))
    assert S.data[2, 0] < -1e29 and S.data[0, 2] < -1e29
    assert abs(S.data[0, 0]) < 1e3


@pytest.mark.parametrize("dtype,atol", [(np.float32, 1e-4), (np.float64, 1e-10)])
def test_similarity_matches_explicit_sum(dtype, atol):
    rng = np.random.default_rng(11)
    H = constant(rng.standard_normal((2, 5, 4)), dtype=dtype)
    U = constant(rng.standard_normal((2, 3, 4)), dtype=dtype)
    p = SimilarityParams.create(4, rng, dtype=dtype)
    cmask = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]], dtype=dtype)
    qmask = np.array([[1, 1, 0], [1, 0, 0]], dtype=dtype)
    S = similarity(H, U, p, context_mask=cmask, query_mask=qmask)
    h = H.data @ p.w_h.data
    u = U.data @ p.w_u.data
    want = h + np.swapaxes(u, -1, -2) + H.data @ np.swapaxes(U.data, -1, -2)
    bias = (1 - cmask)[:, :, None] * ad.MASK_FILL + (1 - qmask)[:, None, :] * ad.MASK_FILL
    masked = bias != 0
    assert S.data.dtype == dtype and S.shape == (2, 5, 3)
    assert np.array_equal(S.data[masked], bias[masked].astype(dtype))
    assert np.allclose(S.data[~masked], want[~masked], rtol=0, atol=atol)


def test_similarity_width_mismatch():
    rng = np.random.default_rng(4)
    H, U = _rand_hu(rng, 3, 2, 4)
    with pytest.raises(ShapeError):
        similarity(H, U, _zero_sim_params(6))


# ---------------------------------------------------------------------------
# query decomposition


def test_cgde_single_context_position_attends_fully():
    rng = np.random.default_rng(5)
    H = constant(rng.standard_normal((1, 4)).astype(np.float32))
    U = constant(rng.standard_normal((3, 4)).astype(np.float32))
    S = similarity(H, U, _zero_sim_params(4))
    trace = AttentionTrace()
    cgde(H, U, S, FusionParams.create(4, rng), trace=trace)
    # softmax over a single position is 1: every query word attends to H[0]
    for j in range(3):
        assert np.allclose(trace.attended_query[j], H.data[0], atol=1e-6)


def test_cgde_zero_fusion_weights_zero_output():
    rng = np.random.default_rng(6)
    H, U = _rand_hu(rng, 4, 3, 4)
    S = similarity(H, U, SimilarityParams.create(4, rng))
    f = FusionParams.create(4, rng)
    f.w_s.data[:] = 0.0
    assert not cgde(H, U, S, f).data.any()


def test_cgde_uniform_similarity_gives_context_mean():
    H = constant([[2.0, 4.0], [6.0, 8.0]])
    U = constant(np.random.default_rng(7).standard_normal((3, 2)).astype(np.float32))
    S = constant(np.zeros((2, 3), dtype=np.float32))
    trace = AttentionTrace()
    cgde(H, U, S, FusionParams.create(2, np.random.default_rng(8)), trace=trace)
    for j in range(3):
        assert np.allclose(trace.attended_query[j], [4.0, 6.0], atol=1e-6)


def test_cgde_rows_are_stochastic():
    rng = np.random.default_rng(9)
    H, U = _rand_hu(rng, 5, 4, 6)
    S = similarity(H, U, SimilarityParams.create(6, rng))
    trace = AttentionTrace()
    cgde(H, U, S, FusionParams.create(6, rng), trace=trace)
    assert np.allclose(trace.decomp_weights.sum(axis=-1), 1.0, atol=1e-6)


# ---------------------------------------------------------------------------
# vanilla query-to-context


def test_vanilla_q2c_all_rows_identical():
    rng = np.random.default_rng(10)
    H, U = _rand_hu(rng, 6, 3, 4)
    S = similarity(H, U, SimilarityParams.create(4, rng))
    out = vanilla_q2c(H, S).data
    assert np.max(np.abs(out - out[0])) < 1e-7


def test_vanilla_q2c_saturated_row_dominates():
    rng = np.random.default_rng(11)
    H, U = _rand_hu(rng, 5, 3, 4)
    S_data = rng.standard_normal((5, 3)).astype(np.float32)
    S_data[2] += 1e6
    out = vanilla_q2c(H, constant(S_data)).data
    assert np.allclose(out, np.tile(H.data[2], (5, 1)), atol=1e-4)


def test_vanilla_q2c_single_position():
    H = constant([[3.0, -1.0]])
    out = vanilla_q2c(H, constant([[0.5, 0.2]])).data
    assert np.allclose(out, [[3.0, -1.0]])


# ---------------------------------------------------------------------------
# fine-grained query-to-context


def test_fgin_uniform_single_column_halves_rows():
    H = constant([[2.0, 4.0], [6.0, 8.0]])
    S_bar = constant(np.zeros((2, 1), dtype=np.float32))   # uniform column weights 0.5
    out = fgin_q2c(H, S_bar).data
    assert np.allclose(out, [[1.0, 2.0], [3.0, 4.0]], atol=1e-6)


def test_fgin_identical_columns_scale_linearly():
    H = constant(np.random.default_rng(12).standard_normal((3, 4)).astype(np.float32))
    col = np.random.default_rng(13).standard_normal((3, 1)).astype(np.float32)
    one = fgin_q2c(H, constant(col)).data
    two = fgin_q2c(H, constant(np.concatenate([col, col], axis=1))).data
    assert np.allclose(two, 2.0 * one, atol=1e-5)


def test_fgin_rows_distinct_unlike_vanilla():
    rng = np.random.default_rng(14)
    H, U = _rand_hu(rng, 6, 3, 4)
    S = similarity(H, U, SimilarityParams.create(4, rng))
    out = fgin_q2c(H, S).data
    gaps = [np.abs(out[i] - out[k]).max() for i in range(6) for k in range(i + 1, 6)]
    assert max(gaps) > 1e-3


def test_fgin_columns_are_stochastic_and_terms_bounded():
    rng = np.random.default_rng(15)
    H, U = _rand_hu(rng, 5, 3, 4)
    S = similarity(H, U, SimilarityParams.create(4, rng))
    trace = AttentionTrace()
    fgin_q2c(H, S, trace=trace)
    cols = trace.q2c_weights
    assert np.allclose(cols.sum(axis=0), 1.0, atol=1e-6)
    # each per-query-word term scales context rows by a weight in (0, 1):
    # componentwise it stays between 0 and the source row value
    for j in range(3):
        term = cols[:, j:j + 1] * H.data
        lo = np.minimum(H.data, 0.0)
        hi = np.maximum(H.data, 0.0)
        assert np.all(term >= lo - 1e-6) and np.all(term <= hi + 1e-6)


# ---------------------------------------------------------------------------
# context-to-query


def test_context2query_single_query_word():
    rng = np.random.default_rng(16)
    q = constant(rng.standard_normal((1, 4)).astype(np.float32))
    S_bar = constant(rng.standard_normal((5, 1)).astype(np.float32))
    out = context2query(q, S_bar).data
    assert np.allclose(out, np.tile(q.data[0], (5, 1)), atol=1e-6)


def test_context2query_rows_inside_query_hull():
    rng = np.random.default_rng(17)
    q = constant(rng.standard_normal((4, 6)).astype(np.float32))
    S_bar = constant(rng.standard_normal((7, 4)).astype(np.float32))
    out = context2query(q, S_bar).data
    lo, hi = q.data.min(axis=0), q.data.max(axis=0)
    assert np.all(out >= lo - 1e-6) and np.all(out <= hi + 1e-6)


def test_context2query_saturated_row_picks_argmax_word():
    rng = np.random.default_rng(18)
    q = constant(rng.standard_normal((4, 3)).astype(np.float32))
    S_data = rng.standard_normal((5, 4)).astype(np.float32)
    S_data[1, 2] += 1e6
    out = context2query(q, constant(S_data)).data
    assert np.allclose(out[1], q.data[2], atol=1e-4)


# ---------------------------------------------------------------------------
# fusion


def test_fuse_g_width_is_four_blocks():
    rng = np.random.default_rng(19)
    H = constant(rng.standard_normal((5, 6)).astype(np.float32))
    c2q = constant(rng.standard_normal((5, 6)).astype(np.float32))
    q2c = constant(rng.standard_normal((5, 6)).astype(np.float32))
    assert [part.shape for part in fuse_g(H, c2q, q2c)] == [(5, 6)] * 4


def test_fuse_g_zero_q2c_zeroes_last_blocks():
    rng = np.random.default_rng(20)
    H = constant(rng.standard_normal((4, 2)).astype(np.float32))
    c2q = constant(rng.standard_normal((4, 2)).astype(np.float32))
    q2c = constant(np.zeros((4, 2), dtype=np.float32))
    g = np.concatenate([part.data for part in fuse_g(H, c2q, q2c)], axis=-1)
    assert np.array_equal(g[:, :2], H.data)
    assert np.array_equal(g[:, 2:4], c2q.data)
    assert not g[:, 4:].any()


def test_fuse_g_all_ones():
    ones = constant(np.ones((3, 2), dtype=np.float32))
    g = np.concatenate([part.data for part in fuse_g(ones, ones, ones)], axis=-1)
    assert np.array_equal(g, np.ones((3, 8), dtype=np.float32))


# ---------------------------------------------------------------------------
# stochasticity and masking invariants


def _masked_forward(rng, t=7, j=5, width=6, real_t=5, real_j=3):
    H = constant(rng.standard_normal((t, width)).astype(np.float32))
    U = constant(rng.standard_normal((j, width)).astype(np.float32))
    cmask = np.zeros(t, dtype=np.float32)
    cmask[:real_t] = 1.0
    qmask = np.zeros(j, dtype=np.float32)
    qmask[:real_j] = 1.0
    p = SimilarityParams.create(width, rng)
    f = FusionParams.create(width, rng)
    trace = AttentionTrace(context_mask=cmask, query_mask=qmask)
    S = similarity(H, U, p, context_mask=cmask, query_mask=qmask)
    trace.similarity = S.data.copy()
    q_bar = cgde(H, U, S, f, trace=trace)
    S2 = similarity(H, q_bar, p, context_mask=cmask, query_mask=qmask)
    trace.similarity2 = S2.data.copy()
    q2c = fgin_q2c(H, S2, trace=trace)
    c2q = context2query(q_bar, S2, trace=trace)
    fuse_g(H, c2q, q2c, trace=trace)
    return trace


def test_masked_positions_get_no_attention_mass():
    for seed in range(10):
        trace = _masked_forward(np.random.default_rng(seed))
        real_t, real_j = 5, 3
        # query-decomposition rows: one distribution over T per real query word
        for jj in range(real_j):
            row = trace.decomp_weights[jj]
            assert abs(row.sum() - 1.0) < 1e-6
            assert row[real_t:].max() < 1e-12
        # fine-grained columns: one distribution over T per real query word
        for jj in range(real_j):
            col = trace.q2c_weights[:, jj]
            assert abs(col.sum() - 1.0) < 1e-6
            assert col[real_t:].max() < 1e-12
        # context-to-query rows: one distribution over J per real position
        for tt in range(real_t):
            row = trace.c2q_weights[tt]
            assert abs(row.sum() - 1.0) < 1e-6
            assert row[real_j:].max() < 1e-12


def test_attended_vectors_are_convex_combinations():
    rng = np.random.default_rng(99)
    H = constant(rng.standard_normal((6, 4)).astype(np.float32))
    U = constant(rng.standard_normal((4, 4)).astype(np.float32))
    p = SimilarityParams.create(4, rng)
    trace = AttentionTrace()
    S = similarity(H, U, p)
    cgde(H, U, S, FusionParams.create(4, rng), trace=trace)
    lo, hi = H.data.min(axis=0), H.data.max(axis=0)
    assert np.all(trace.attended_query >= lo - 1e-6)
    assert np.all(trace.attended_query <= hi + 1e-6)


# ---------------------------------------------------------------------------
# end-to-end gradient check of the attention chain


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_full_attention_chain_grad_check(dtype):
    t, j, d = 7, 5, 4
    width = 2 * d
    rng = np.random.default_rng(23)
    tol = 1e-3 if dtype == np.float32 else 1e-6
    H = Tensor(rng.standard_normal((t, width)).astype(dtype), requires_grad=True)
    U = Tensor(rng.standard_normal((j, width)).astype(dtype), requires_grad=True)
    p = SimilarityParams.create(width, rng, dtype=dtype)
    f = FusionParams.create(width, rng, dtype=dtype)
    probe = constant(rng.standard_normal((t, 4 * width)).astype(dtype), dtype=dtype)

    def forward():
        S = similarity(H, U, p)
        q_bar = cgde(H, U, S, f)
        S2 = similarity(H, q_bar, p)
        q2c = fgin_q2c(H, S2)
        c2q = context2query(q_bar, S2)
        return reduce_sum(ad.mul(ad.concat(fuse_g(H, c2q, q2c), axis=-1), probe))

    report = grad_check(forward, {"H": H, "U": U, "w_h": p.w_h, "w_u": p.w_u,
                                  "w_s": f.w_s}, rng=np.random.default_rng(5))
    assert report.worst_rel_err < tol, f"worst {report.worst_rel_err:.2e} at {report.worst_param()}"
