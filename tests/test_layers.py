import tracemalloc

import numpy as np
import pytest

from hopqa import autodiff as ad
from hopqa.autodiff import ShapeError, Tensor, backward, constant, parameter, reduce_sum
from hopqa.gradcheck import grad_check
from hopqa.layers import (
    CHAR_KERNEL,
    BiGruParams,
    CharCnnParams,
    GruCellParams,
    HighwayLayer,
    bigru,
    char_cnn,
    embed_words,
    embedding_table,
    highway,
    linear,
    load_glove,
    named_tensors,
    xavier_uniform,
)
from reference_ops import narrow, product, sigmoid, sub, tanh


# ---------------------------------------------------------------------------
# embeddings


def test_pad_id_returns_zero_row():
    table = embedding_table(5, 4, np.random.default_rng(0), trainable=False)
    out = embed_words(table, np.array([0, 2]))
    assert not out.data[0].any()
    assert out.data[1].any()


def test_gather_equals_direct_row_read():
    table = embedding_table(6, 3, np.random.default_rng(1), trainable=False)
    ids = np.array([3, 1, 5, 3])
    out = embed_words(table, ids)
    for i, wid in enumerate(ids):
        assert np.array_equal(out.data[i], table.data[wid])


def test_trainable_unk_row_substitutes():
    table = embedding_table(6, 3, np.random.default_rng(2), trainable=False)
    table.data[1] = 0.0                  # frozen table's unk slot empty
    unk = parameter([[0.5, -1.0, 2.0]])
    out = embed_words(table, np.array([1, 2, 1]), unk_row=unk)
    assert np.allclose(out.data[0], unk.data[0])
    assert np.allclose(out.data[2], unk.data[0])
    assert np.array_equal(out.data[1], table.data[2])
    backward(reduce_sum(out))
    assert np.allclose(unk.grad, [[2.0, 2.0, 2.0]])   # two unk positions
    assert table.grad is None                         # frozen


def test_glove_loader_skips_malformed_lines(tmp_path):
    path = tmp_path / "glove.txt"
    path.write_text(
        "alpha 1.0 2.0 3.0\n"
        "broken 1.0 2.0\n"
        "beta 0.5 0.5 0.5\n"
        "gamma one two three\n"
        "ghost 9.0 9.0 9.0\n"
    )
    vocab = {"alpha": 2, "beta": 3, "gamma": 4}
    table, stats = load_glove(str(path), vocab, dim=3)
    assert stats["skipped_lines"] == 2
    assert stats["found"] == 2 and stats["missing"] == 1
    assert table[2].tolist() == [1.0, 2.0, 3.0]
    assert table[3].tolist() == [0.5, 0.5, 0.5]
    assert not table[4].any()


def test_glove_loader_counts_a_repeated_word_once_and_keeps_its_first_vector(tmp_path):
    path = tmp_path / "glove.txt"
    path.write_text("cat 1.0 2.0\ncat 3.0 4.0\n")
    vocab = {"cat": 2, "dog": 3}
    table, stats = load_glove(str(path), vocab, dim=2)
    assert stats == {"skipped_lines": 0, "found": 1, "missing": 1}
    assert table[2].tolist() == [1.0, 2.0]


# ---------------------------------------------------------------------------
# char cnn


def _char_params(rng=None, n_chars=8, char_dim=3, filters=5):
    return CharCnnParams.create(n_chars, char_dim, filters,
                                rng or np.random.default_rng(3))


def test_char_cnn_all_pad_word_gives_relu_bias():
    p = _char_params()
    # pad embeddings are zero, bias zero at init: conv output is relu(0) = 0
    out = char_cnn(np.zeros((2, 7), dtype=np.int64), p)
    assert np.allclose(out.data, 0.0)
    # with a nonzero bias the all-pad windows yield exactly relu(bias)
    p.conv_b.data[:] = np.array([0.3, -0.2, 1.0, -4.0, 0.0], dtype=np.float32)
    out = char_cnn(np.zeros((1, 7), dtype=np.int64), p)
    assert np.allclose(out.data[0], np.maximum(p.conv_b.data, 0.0))


def test_char_cnn_output_shape():
    p = _char_params()
    rng = np.random.default_rng(4)
    ids = rng.integers(0, 8, size=(6, 9))
    assert char_cnn(ids, p).shape == (6, 5)
    batched = rng.integers(0, 8, size=(2, 6, 9))
    assert char_cnn(batched, p).shape == (2, 6, 5)


def test_char_cnn_duplicate_words_identical_rows():
    p = _char_params()
    word = np.array([2, 3, 4, 5, 2, 0, 0, 0, 0])
    ids = np.stack([word, word])
    out = char_cnn(ids, p).data
    assert np.array_equal(out[0], out[1])


def test_char_cnn_extra_pad_column_no_change():
    p = _char_params()
    word = np.array([2, 3, 4, 0, 0, 0, 0, 0, 0, 0])   # length 3 << W - kernel
    base = char_cnn(word[None, :], p).data
    padded = char_cnn(np.concatenate([word, [0]])[None, :], p).data
    assert np.array_equal(base, padded)


def _reference_char_cnn(char_ids: np.ndarray, p: CharCnnParams) -> Tensor:
    """Windows cut by ``narrow`` and joined by ``concat``, then linear, relu
    and a max over window positions: the composition ``char_cnn`` must match."""
    n_windows = char_ids.shape[-1] - CHAR_KERNEL + 1
    emb = ad.gather_rows(p.table, char_ids, pad_guard=True)
    unfolded = ad.concat([narrow(emb, -2, k, n_windows) for k in range(CHAR_KERNEL)], axis=-1)
    return ad.max_reduce(ad.relu(linear(unfolded, p.conv_w, p.conv_b)), axis=-2)


@pytest.mark.parametrize("dtype,atol", [(np.float32, 1e-6), (np.float64, 1e-12)])
def test_char_cnn_matches_narrow_concat_reference(dtype, atol):
    rng = np.random.default_rng(25)
    p = CharCnnParams.create(9, 3, 6, rng, dtype=dtype)
    p.conv_b.data[:] = rng.standard_normal(6)        # some filters off for every window
    ids = rng.integers(1, 9, size=(2, 5, 10))
    ids[:, :, 7:] = 0                                 # padded character columns
    ids[1, 3] = 0                                     # an all-pad word
    probe = constant(rng.standard_normal((2, 5, 6)).astype(dtype), dtype=dtype)
    tensors = {"table": p.table, "conv_w": p.conv_w, "conv_b": p.conv_b}

    def run(fn):
        for t in tensors.values():
            t.grad = None
        out = fn(ids, p)
        backward(reduce_sum(ad.mul(out, probe)))
        return out.data, {name: t.grad for name, t in tensors.items()}

    out, grads = run(char_cnn)
    ref_out, ref_grads = run(_reference_char_cnn)
    assert out.dtype == dtype
    assert np.array_equal(out, ref_out)
    for name in tensors:
        assert grads[name].dtype == dtype
        assert np.allclose(grads[name], ref_grads[name], rtol=0, atol=atol), name


# ---------------------------------------------------------------------------
# highway


def test_highway_saturated_carry_is_identity():
    # sigmoid(-20) ~ 2e-9, so the transform branch is shut off
    p = HighwayLayer.stack(4, np.random.default_rng(5))
    for layer in p:
        layer.gate_b.data[:] = -20.0
        layer.gate_w.data[:] = 0.0
    x = constant(np.random.default_rng(6).standard_normal((3, 4)).astype(np.float32))
    out = highway(x, p)
    assert np.max(np.abs(out.data - x.data)) < 1e-6


def test_highway_saturated_transform_branch():
    p = HighwayLayer.stack(4, np.random.default_rng(7))
    for layer in p:
        layer.gate_b.data[:] = 20.0
        layer.gate_w.data[:] = 0.0
    x = constant(np.random.default_rng(8).standard_normal((3, 4)).astype(np.float32))
    out = highway(x, p)
    # oracle: apply the two relu transforms directly
    ref = x.data
    for layer in p:
        ref = np.maximum(ref @ layer.trans_w.data + layer.trans_b.data, 0.0)
    assert np.max(np.abs(out.data - ref)) < 1e-5


def test_highway_preserves_shape_and_checks_width():
    p = HighwayLayer.stack(4, np.random.default_rng(9))
    x = constant(np.zeros((5, 4), dtype=np.float32))
    assert highway(x, p).shape == (5, 4)
    with pytest.raises(ShapeError):
        highway(constant(np.zeros((5, 3), dtype=np.float32)), p)


def _reference_highway(x: Tensor, p: list[HighwayLayer]) -> Tensor:
    """The composition of primitive ops that ``highway`` fuses."""
    out = x
    for layer in p:
        t = sigmoid(linear(out, layer.gate_w, layer.gate_b))
        h = ad.relu(linear(out, layer.trans_w, layer.trans_b))
        out = t * h + sub(constant(1.0, dtype=t.dtype), t) * out
    return out


def test_highway_layer_is_one_graph_node():
    rng = np.random.default_rng(31)
    p = HighwayLayer.stack(4, rng)
    x = parameter(rng.standard_normal((2, 5, 4)).astype(np.float32))
    out = highway(x, p)
    nodes = [n for n in ad._toposort(out) if n._backward is not None]
    assert len(nodes) == 1 and nodes[0] is out


@pytest.mark.parametrize("dtype,rtol", [(np.float32, 1e-6), (np.float64, 1e-12)])
def test_highway_matches_composed_reference(dtype, rtol):
    rng = np.random.default_rng(32)
    p = HighwayLayer.stack(6, rng, dtype=dtype)
    # nonzero biases, some relu units shut
    for b in [layer.gate_b for layer in p] + [layer.trans_b for layer in p]:
        b.data[:] = rng.standard_normal(6)
    x = Tensor(rng.standard_normal((3, 9, 6)).astype(dtype), requires_grad=True)
    probe = constant(rng.standard_normal((3, 9, 6)).astype(dtype), dtype=dtype)
    tensors = {"x": x, **named_tensors(p)}

    def run(fn):
        for t in tensors.values():
            t.grad = None
        out = fn(x, p)
        backward(reduce_sum(ad.mul(out, probe)))
        with ad.no_grad():
            untracked = fn(x, p)
        assert not untracked.requires_grad
        return out.data, untracked.data, {name: t.grad for name, t in tensors.items()}

    out, untracked, grads = run(highway)
    ref_out, ref_untracked, ref_grads = run(_reference_highway)
    assert out.dtype == dtype
    assert np.array_equal(out, ref_out) and np.array_equal(untracked, ref_untracked)
    assert np.array_equal(out, untracked)
    assert len(grads) == 9
    for name, g in grads.items():
        ref = ref_grads[name]
        assert g.dtype == dtype and g.shape == ref.shape, name
        assert np.max(np.abs(g - ref)) <= rtol * np.max(np.abs(ref)), name


def test_highway_forward_keeps_six_arrays_of_its_input_size():
    # each of the two layers keeps t, h and its output; the parts of the
    # composed graph kept twenty arrays the size of the input
    rng = np.random.default_rng(33)
    p = HighwayLayer.stack(80, rng)
    x = parameter(rng.standard_normal((4, 512, 80)).astype(np.float32))
    tracemalloc.start()
    try:
        out = highway(x, p)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    assert held <= 7 * x.data.nbytes, held / x.data.nbytes


def test_highway_op_rejects_params_that_do_not_fit():
    first, second = ((layer.gate_w, layer.gate_b, layer.trans_w, layer.trans_b)
                     for layer in HighwayLayer.stack(4, np.random.default_rng(34)))
    x = constant(np.zeros((5, 4), dtype=np.float32))
    with pytest.raises(ShapeError):
        ad.highway(x, [first, (*second[:2], constant(np.zeros((4, 3))), second[3])])
    with pytest.raises(ShapeError):
        ad.highway(x, [first, (second[0], constant(np.zeros((1, 4))), *second[2:])])


# ---------------------------------------------------------------------------
# linear


def test_linear_identity():
    x = constant(np.arange(6.0, dtype=np.float32).reshape(2, 3))
    out = linear(x, constant(np.eye(3, dtype=np.float32)),
                 constant(np.zeros(3, dtype=np.float32)))
    assert np.array_equal(out.data, x.data)


def test_linear_projects_to_single_column():
    rng = np.random.default_rng(10)
    h = constant(rng.standard_normal((7, 8)).astype(np.float32))
    w = constant(rng.standard_normal((8, 1)).astype(np.float32))
    assert linear(h, w).shape == (7, 1)


def test_linear_matches_matmul_add_oracle():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4, 3)).astype(np.float32)
    w = rng.standard_normal((3, 2)).astype(np.float32)
    b = rng.standard_normal(2).astype(np.float32)
    out = linear(constant(x), constant(w), constant(b)).data
    assert np.allclose(out, x @ w + b, atol=1e-6)


# ---------------------------------------------------------------------------
# bigru


def test_bigru_zero_weights_zero_inputs_zero_outputs():
    p = BiGruParams.create(3, 2, np.random.default_rng(12))
    for cell in (p.fw, p.bw):
        for t in (cell.w_x, cell.w_h, cell.b):
            t.data[:] = 0.0
    x = constant(np.zeros((4, 3), dtype=np.float32))
    out = bigru(x, p)
    # hand trace: z = r = sigmoid(0) = 0.5, n = tanh(0) = 0, h = 0.5*0 + 0.5*0 = 0
    assert np.allclose(out.data, 0.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gru_cell_weights_are_the_per_gate_xavier_draws_joined(dtype):
    # per gate, input then hidden weights, as separate draws: every seed's
    # model keeps the weights it had when each gate was its own tensor
    rng, replay = np.random.default_rng(33), np.random.default_rng(33)
    cell = GruCellParams.create(5, 3, rng, dtype=dtype)
    wx = [xavier_uniform(replay, 5, 3, dtype=dtype) for _ in "zrn"]
    wh = [xavier_uniform(replay, 3, 3, dtype=dtype) for _ in "zrn"]
    assert (cell.w_x.shape, cell.w_h.shape, cell.b.shape) == ((5, 9), (3, 9), (9,))
    for g in range(3):
        cols = slice(3 * g, 3 * g + 3)
        assert np.array_equal(cell.w_x.data[:, cols], wx[g])
        assert np.array_equal(cell.w_h.data[:, cols], wh[g])
    assert not cell.b.data.any()
    assert all(t.dtype == dtype and t.requires_grad for t in (cell.w_x, cell.w_h, cell.b))
    assert rng.bit_generator.state == replay.bit_generator.state


def test_bigru_output_shape():
    p = BiGruParams.create(3, 5, np.random.default_rng(13))
    x = constant(np.random.default_rng(14).standard_normal((6, 3)).astype(np.float32))
    assert bigru(x, p).shape == (6, 10)
    xb = constant(np.random.default_rng(15).standard_normal((2, 6, 3)).astype(np.float32))
    assert bigru(xb, p).shape == (2, 6, 10)


def test_bigru_reversed_sequence_swaps_halves():
    rng = np.random.default_rng(16)
    cell = GruCellParams.create(3, 4, rng)
    p = BiGruParams(fw=cell, bw=cell)      # shared weights make the symmetry exact
    x = rng.standard_normal((5, 3)).astype(np.float32)
    fwd = bigru(constant(x), p).data
    rev = bigru(constant(x[::-1].copy()), p).data
    # forward half on reversed input == reversed backward half, and vice versa
    assert np.allclose(rev[:, :4], fwd[::-1, 4:], atol=1e-6)
    assert np.allclose(rev[:, 4:], fwd[::-1, :4], atol=1e-6)


def test_bigru_forward_half_is_causal():
    rng = np.random.default_rng(17)
    p = BiGruParams.create(3, 4, rng)
    x = rng.standard_normal((6, 3)).astype(np.float32)
    base = bigru(constant(x), p).data
    perturbed = x.copy()
    perturbed[4] += 1.0                    # later input
    out = bigru(constant(perturbed), p).data
    assert np.array_equal(out[:4, :4], base[:4, :4])
    assert not np.allclose(out[4:, :4], base[4:, :4])


def test_bigru_masked_steps_copy_state():
    rng = np.random.default_rng(18)
    p = BiGruParams.create(3, 4, rng)
    x = rng.standard_normal((5, 3)).astype(np.float32)
    mask = np.array([1.0, 1.0, 1.0, 0.0, 0.0], dtype=np.float32)
    out = bigru(constant(x), p, mask=mask).data
    short = bigru(constant(x[:3].copy()), p).data
    # real positions are unaffected by trailing padding
    assert np.allclose(out[:3, :4], short[:, :4], atol=1e-7)
    assert np.allclose(out[:3, 4:], short[:, 4:], atol=1e-7)
    # padded forward states carry the last real state
    assert np.allclose(out[3, :4], out[2, :4])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_forwards_pass_grad_check(dtype):
    rng = np.random.default_rng(19)
    tol = 1e-3 if dtype == np.float32 else 1e-6

    hw = HighwayLayer.stack(3, rng, dtype=dtype)
    x = Tensor(rng.standard_normal((4, 3)).astype(dtype), requires_grad=True)
    probe = constant(rng.standard_normal((4, 3)).astype(dtype), dtype=dtype)
    report = grad_check(lambda: reduce_sum(ad.mul(highway(x, hw), probe)),
                        {"x": x, "gw0": hw[0].gate_w, "tw1": hw[1].trans_w,
                         "tb0": hw[0].trans_b},
                        rng=np.random.default_rng(1))
    assert report.worst_rel_err < tol

    gru = BiGruParams.create(3, 2, rng, dtype=dtype)
    xs = Tensor(rng.standard_normal((5, 3)).astype(dtype), requires_grad=True)
    probe2 = constant(rng.standard_normal((5, 4)).astype(dtype), dtype=dtype)
    mask = np.array([1, 1, 1, 1, 0], dtype=dtype)
    report = grad_check(lambda: reduce_sum(ad.mul(bigru(xs, gru, mask=mask), probe2)),
                        {"x": xs, "wx_z": _gate(gru.fw.w_x, 0), "wh_n": _gate(gru.fw.w_h, 2),
                         "b_r": _gate(gru.bw.b, 1), "wh_z": _gate(gru.bw.w_h, 0)},
                        rng=np.random.default_rng(2))
    assert report.worst_rel_err < tol

    cp = CharCnnParams.create(7, 2, 3, rng, dtype=dtype)
    ids = np.random.default_rng(3).integers(1, 7, size=(3, 8))
    probe3 = constant(rng.standard_normal((3, 3)).astype(dtype), dtype=dtype)
    report = grad_check(lambda: reduce_sum(ad.mul(char_cnn(ids, cp), probe3)),
                        {"table": cp.table, "conv_w": cp.conv_w, "conv_b": cp.conv_b},
                        rng=np.random.default_rng(4))
    assert report.worst_rel_err < tol


def _gate(t: Tensor, g: int) -> tuple[Tensor, tuple]:
    """Gate g's block of a stacked GRU weight, as a ``grad_check`` entry."""
    h = t.shape[-1] // 3
    return t, (..., slice(g * h, (g + 1) * h))


def _reference_bigru(x: Tensor, p: BiGruParams, mask: np.ndarray) -> Tensor:
    """The per-timestep composition of primitive ops that ``bigru`` fuses."""
    m = np.asarray(mask, dtype=x.dtype)
    t_len = x.shape[-2]

    def direction(cell: GruCellParams, steps: range) -> list[Tensor]:
        hid = cell.w_h.shape[0]
        wx_z, wx_r, wx_n = (narrow(cell.w_x, -1, g * hid, hid) for g in range(3))
        wh_z, wh_r, wh_n = (narrow(cell.w_h, -1, g * hid, hid) for g in range(3))
        b_z, b_r, b_n = (narrow(cell.b, -1, g * hid, hid) for g in range(3))
        xz = linear(x, wx_z, b_z)
        xr = linear(x, wx_r, b_r)
        xn = linear(x, wx_n, b_n)
        h = constant(np.zeros(x.shape[:-2] + (1, hid), dtype=x.dtype))
        states = [h] * t_len
        for t in steps:
            z = sigmoid(narrow(xz, -2, t, 1) + ad.matmul(h, wh_z))
            r = sigmoid(narrow(xr, -2, t, 1) + ad.matmul(h, wh_r))
            n = tanh(narrow(xn, -2, t, 1) + ad.matmul(r * h, wh_n))
            h_new = sub(constant(1.0, dtype=z.dtype), z) * h + z * n
            h = h + constant(m[..., t:t + 1, None]) * sub(h_new, h)
            states[t] = h
        return states

    fw = direction(p.fw, range(t_len))
    bw = direction(p.bw, range(t_len - 1, -1, -1))
    return ad.concat([ad.concat(fw, axis=-2), ad.concat(bw, axis=-2)], axis=-1)


@pytest.mark.parametrize("dtype,atol", [(np.float32, 1e-6), (np.float64, 1e-12)])
def test_bigru_matches_per_timestep_reference(dtype, atol):
    rng = np.random.default_rng(20)
    p = BiGruParams.create(3, 4, rng, dtype=dtype)
    x = Tensor(rng.standard_normal((2, 6, 3)).astype(dtype), requires_grad=True)
    mask = np.array([[1, 1, 1, 1, 1, 1], [1, 1, 1, 1, 0, 0]], dtype=dtype)
    probe = constant(rng.standard_normal((2, 6, 8)).astype(dtype), dtype=dtype)
    tensors = {"x": x, **{f"{d}.{w}": getattr(getattr(p, d), w)
                          for d in ("fw", "bw") for w in ("w_x", "w_h", "b")}}

    def run(fn):
        for t in tensors.values():
            t.grad = None
        out = fn(x, p, mask)
        backward(reduce_sum(ad.mul(out, probe)))
        return out.data, {name: t.grad for name, t in tensors.items()}

    out, grads = run(bigru)
    ref_out, ref_grads = run(_reference_bigru)
    assert out.dtype == dtype
    assert np.allclose(out, ref_out, rtol=0, atol=atol)
    for name in tensors:
        assert grads[name].dtype == dtype
        assert np.allclose(grads[name], ref_grads[name], rtol=0, atol=atol), name


@pytest.mark.parametrize("shape", [(5, 3), (2, 3, 4, 3), (2, 1, 3), (1, ad.BIGRU_CHUNK + 44, 3)],
                         ids=["rank2", "rank4", "T1", "past_chunk"])
def test_bigru_shapes_match_per_timestep_reference(shape):
    rng = np.random.default_rng(22)
    p = BiGruParams.create(shape[-1], 2, rng, dtype=np.float64)
    x = Tensor(rng.standard_normal(shape), requires_grad=True)
    t_len = shape[-2]
    mask = np.ones(shape[:-1])
    mask.reshape(-1, t_len)[0, t_len // 2 + 1:] = 0.0     # trailing padding
    probe = constant(rng.standard_normal(shape[:-1] + (4,)))
    tensors = {"x": x, "fw.w_h": p.fw.w_h, "bw.w_x": p.bw.w_x, "bw.b": p.bw.b}

    def run(fn):
        for t in tensors.values():
            t.grad = None
        out = fn(x, p, mask)
        backward(reduce_sum(ad.mul(out, probe)))
        return out.data, {name: t.grad for name, t in tensors.items()}

    out, grads = run(bigru)
    ref_out, ref_grads = run(_reference_bigru)
    assert out.shape == shape[:-1] + (4,)
    assert np.allclose(out, ref_out, rtol=0, atol=1e-12)
    for name in tensors:
        assert np.allclose(grads[name], ref_grads[name], rtol=0, atol=1e-12), name


def test_bigru_no_grad_output_is_bit_identical():
    rng = np.random.default_rng(23)
    p = BiGruParams.create(5, 4, rng)
    x = parameter(rng.standard_normal((3, ad.BIGRU_CHUNK + 44, 5)).astype(np.float32))
    mask = np.ones(x.shape[:-1], dtype=np.float32)
    mask[1, 200:] = 0.0
    tracked = bigru(x, p, mask=mask)
    with ad.no_grad():
        untracked = bigru(x, p, mask=mask)
    assert tracked.requires_grad and not untracked.requires_grad
    assert np.array_equal(tracked.data, untracked.data)


def test_bigru_rejects_empty_sequence_and_bad_mask():
    p = BiGruParams.create(3, 2, np.random.default_rng(24))
    with pytest.raises(ShapeError):
        bigru(constant(np.zeros((2, 0, 3), dtype=np.float32)), p)
    x = constant(np.zeros((2, 4, 3), dtype=np.float32))
    with pytest.raises(ShapeError):
        bigru(x, p, mask=np.ones((2, 3), dtype=np.float32))
    with pytest.raises(ShapeError):
        bigru(x, p, mask=np.ones(4, dtype=np.float32))


def test_bigru_graph_size_does_not_grow_with_length():
    def reachable(t_len):
        rng = np.random.default_rng(21)
        p = BiGruParams.create(3, 2, rng)
        x = parameter(rng.standard_normal((2, t_len, 3)).astype(np.float32))
        mask = np.ones((2, t_len), dtype=np.float32)
        return len(ad._toposort(bigru(x, p, mask=mask)))

    assert reachable(4) == reachable(64)


def test_bigru_layer_is_one_graph_node():
    rng = np.random.default_rng(29)
    p = BiGruParams.create(3, 2, rng)
    x = parameter(rng.standard_normal((2, 5, 3)).astype(np.float32))
    out = bigru(x, p, mask=np.ones((2, 5), dtype=np.float32))
    nodes = [n for n in ad._toposort(out) if n._backward is not None]
    assert len(nodes) == 1 and nodes[0] is out


# ---------------------------------------------------------------------------
# bigru over input parts

# one sequence per mask case: no padding, trailing padding, leading padding,
# an interior hole, no real position
MASK_CASES = ("full", "trailing", "leading", "hole", "empty")


def _case_masks(t_len: int, dtype) -> np.ndarray:
    mask = np.ones((len(MASK_CASES), t_len), dtype=dtype)
    mask[1, t_len - t_len // 3:] = 0.0
    mask[2, :t_len // 3] = 0.0
    mask[3, t_len // 3:t_len // 2 + 2] = 0.0
    mask[3, -1] = 0.0
    mask[4] = 0.0
    return mask


def _stacked_weights(rng, d_in: int, hid: int, dtype):
    return [[parameter(rng.standard_normal(shape).astype(dtype) * 0.3, dtype=dtype)
             for shape in ((d_in, 3 * hid), (hid, 3 * hid), (3 * hid,))] for _ in range(2)]


@pytest.mark.parametrize("t_len", [7, ad.BIGRU_CHUNK + 44], ids=["short", "past_chunk"])
@pytest.mark.parametrize("dtype,atol", [(np.float32, 1e-6), (np.float64, 1e-12)])
def test_bigru_parts_match_joined_input(dtype, atol, t_len):
    rng = np.random.default_rng(25)
    widths = (3, 2, 4)
    parts = [parameter(rng.standard_normal((len(MASK_CASES), t_len, w)).astype(dtype) * 0.5,
                       dtype=dtype) for w in widths]
    fw, bw = _stacked_weights(rng, sum(widths), 3, dtype)
    mask = _case_masks(t_len, dtype)
    probe = constant(rng.standard_normal((len(MASK_CASES), t_len, 6)).astype(dtype) * 0.1,
                     dtype=dtype)
    tensors = [*parts, *fw, *bw]

    def run(x):
        for t in tensors:
            t.grad = None
        out = ad.bigru(x, fw, bw, mask=mask)
        backward(reduce_sum(ad.mul(out, probe)))
        return out.data, [t.grad for t in tensors]

    out, grads = run(parts)
    ref_out, ref_grads = run(ad.concat(parts, axis=-1))
    assert out.dtype == dtype
    assert np.allclose(out, ref_out, rtol=0, atol=atol)
    for t, g, ref in zip(tensors, grads, ref_grads):
        # the weight gradients sum over every step and grow past 1 with T:
        # the bound is relative to a gradient's largest entry from there
        assert g.dtype == dtype and g.shape == t.shape
        assert np.abs(g - ref).max() <= atol * max(1.0, np.abs(ref).max())
    for g in grads[:len(parts)]:                 # no gradient past the last real position
        assert not g[1, t_len - t_len // 3:].any() and not g[4].any()


def test_bigru_parts_mask_cases_match_per_timestep_reference():
    rng = np.random.default_rng(28)
    t_len = ad.BIGRU_CHUNK + 44
    p = BiGruParams.create(5, 2, rng, dtype=np.float64)
    parts = [Tensor(rng.standard_normal((len(MASK_CASES), t_len, w)), requires_grad=True)
             for w in (3, 2)]
    mask = _case_masks(t_len, np.float64)
    probe = constant(rng.standard_normal((len(MASK_CASES), t_len, 4)))
    tensors = [*parts, p.fw.w_x, p.fw.w_h, p.bw.w_x, p.bw.b]

    def run(out):
        for t in tensors:
            t.grad = None
        backward(reduce_sum(ad.mul(out, probe)))
        return out.data, [t.grad for t in tensors]

    out, grads = run(bigru(parts, p, mask=mask))
    ref_out, ref_grads = run(_reference_bigru(ad.concat(parts, axis=-1), p, mask))
    assert np.allclose(out, ref_out, rtol=0, atol=1e-12)
    for g, ref in zip(grads, ref_grads):
        assert np.allclose(g, ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("t_len", [7, ad.BIGRU_CHUNK + 44], ids=["short", "past_chunk"])
@pytest.mark.parametrize("dtype,rtol", [(np.float32, 1e-5), (np.float64, 1e-12)])
def test_bigru_factor_parts_match_their_products(dtype, rtol, t_len):
    # a plain part, a product (w, H, H) dropped by a bool mask and a scale,
    # a (N, 1, w) row times c2q and a factor all sequences share: the output
    # has the bits of the products made as tensors, with or without grad,
    # and the gradients move only by the order of their sums
    rng = np.random.default_rng(29)
    n = len(MASK_CASES)
    leaf = lambda *shape: parameter(rng.standard_normal(shape).astype(dtype) * 0.5, dtype=dtype)
    w, h, c2q, row, shared = (leaf(n, t_len, 1), leaf(n, t_len, 3), leaf(n, t_len, 3),
                              leaf(n, 1, 3), leaf(3))
    keep = constant(rng.random((n, t_len, 3)) >= 0.3, dtype=bool)
    scale = constant(dtype(1) / dtype(0.7), dtype=dtype)
    parts = [h, (w, h, h, keep, scale), (row, c2q), (shared, c2q)]
    fw, bw = _stacked_weights(rng, 12, 3, dtype)
    mask = _case_masks(t_len, dtype)
    probe = constant(rng.standard_normal((n, t_len, 6)).astype(dtype) * 0.1, dtype=dtype)
    tensors = [w, h, c2q, row, shared, *fw, *bw]

    def run(x):
        for t in tensors:
            t.grad = None
        out = ad.bigru(x, fw, bw, mask=mask)
        backward(reduce_sum(ad.mul(out, probe)))
        return out.data, [t.grad for t in tensors]

    out, grads = run(parts)
    ref_out, ref_grads = run([product(p) for p in parts])
    assert out.dtype == dtype and np.array_equal(out, ref_out)
    with ad.no_grad():
        assert np.array_equal(ad.bigru(parts, fw, bw, mask=mask).data, out)
    for t, g, ref in zip(tensors, grads, ref_grads):
        assert g.dtype == dtype and g.shape == t.shape
        assert np.abs(g - ref).max() <= rtol * np.abs(ref).max()


@pytest.mark.parametrize("t_len", [7, ad.BIGRU_CHUNK + 44], ids=["short", "past_chunk"])
@pytest.mark.parametrize("dtype,atol", [(np.float32, 1e-6), (np.float64, 1e-12)])
def test_bigru_matrix_product_parts_match_the_formed_product(dtype, atol, t_len):
    # c2q = a @ q as a part of its own, and first in products with a
    # (N, 1, w) row and with (w, H) and dropout's keep mask and scale, all
    # formed a chunk at a time: the output and every gradient match a bigru
    # fed the product formed by matmul, up to rounding
    rng = np.random.default_rng(31)
    n, j = len(MASK_CASES), 4
    leaf = lambda *shape: parameter(rng.standard_normal(shape).astype(dtype) * 0.5, dtype=dtype)
    w, h, row, a, q = leaf(n, t_len, 1), leaf(n, t_len, 3), leaf(n, 1, 3), leaf(n, t_len, j), \
        leaf(n, j, 3)
    c2q = ad.MatProduct(a, q)
    keep = constant(rng.random((n, t_len, 3)) >= 0.3, dtype=bool)
    scale = constant(dtype(1) / dtype(0.7), dtype=dtype)
    parts = [h, c2q, (c2q, row), (c2q, w, h, keep, scale)]
    fw, bw = _stacked_weights(rng, 12, 3, dtype)
    mask = _case_masks(t_len, dtype)
    probe = constant(rng.standard_normal((n, t_len, 6)).astype(dtype) * 0.1, dtype=dtype)
    tensors = [w, h, row, a, q, *fw, *bw]

    def run(x):
        for t in tensors:
            t.grad = None
        out = ad.bigru(x, fw, bw, mask=mask)
        backward(reduce_sum(ad.mul(out, probe)))
        return out.data, [t.grad for t in tensors]

    out, grads = run(parts)
    ref_out, ref_grads = run([product(p) for p in parts])
    assert out.dtype == dtype and np.allclose(out, ref_out, rtol=0, atol=atol)
    with ad.no_grad():
        assert np.array_equal(ad.bigru(parts, fw, bw, mask=mask).data, out)
    for t, g, ref in zip(tensors, grads, ref_grads):
        # the bound is relative to a gradient's largest entry past 1, as
        # the weight gradients sum over every step
        assert g.dtype == dtype and g.shape == t.shape
        assert np.abs(g - ref).max() <= atol * max(1.0, np.abs(ref).max())


def test_matrix_product_factors_must_multiply_and_fill_their_part():
    rng = np.random.default_rng(32)
    fw, bw = _stacked_weights(rng, 3, 2, np.float32)
    ones = lambda *shape: constant(np.ones(shape, dtype=np.float32))
    assert ad.bigru(ad.MatProduct(ones(2, 4, 5), ones(2, 5, 3)), fw, bw).shape == (2, 4, 4)
    with pytest.raises(ShapeError):
        ad.MatProduct(ones(2, 4, 5), ones(2, 4, 3))
    with pytest.raises(ShapeError):
        ad.MatProduct(ones(2, 4, 5), ones(1, 5, 3))
    with pytest.raises(ShapeError, match="matrix product"):
        ad.bigru([(ad.MatProduct(ones(2, 4, 5), ones(2, 5, 1)), ones(2, 4, 3))], fw, bw)
    with pytest.raises(ShapeError, match="first factor"):
        ad.bigru([(ones(2, 4, 3), ad.MatProduct(ones(2, 4, 5), ones(2, 5, 3)))], fw, bw)


def test_bigru_factors_must_broadcast_and_span_all_leading_axes_or_none():
    rng = np.random.default_rng(30)
    fw, bw = _stacked_weights(rng, 3, 2, np.float32)
    ones = lambda *shape: constant(np.ones(shape, dtype=np.float32))
    assert ad.bigru([(ones(2, 3, 4, 1), ones(2, 3, 4, 3))], fw, bw).shape == (2, 3, 4, 4)
    assert ad.bigru([(ones(1, 1, 4, 3), ones(2, 3, 4, 3))], fw, bw).shape == (2, 3, 4, 4)
    with pytest.raises(ShapeError, match="spans some"):
        ad.bigru([(ones(1, 3, 4, 3), ones(2, 3, 4, 3))], fw, bw)
    with pytest.raises(ShapeError):
        ad.bigru([(ones(2, 4, 3), ones(2, 5, 3))], fw, bw)
    with pytest.raises(ShapeError):
        ad.bigru([()], fw, bw)


@pytest.mark.parametrize("nan_part", [0, 1])
def test_bigru_ignores_nan_past_last_real_position(nan_part):
    rng = np.random.default_rng(26)
    t_len = ad.BIGRU_CHUNK + 44
    mask = _case_masks(t_len, np.float32)
    ends = [t_len, t_len - t_len // 3, t_len, t_len - 1, 0]        # one past the last real position
    zeroed = [rng.standard_normal((len(MASK_CASES), t_len, w)).astype(np.float32) for w in (3, 2)]
    for n, end in enumerate(ends):
        for x in zeroed:
            x[n, end:] = 0.0
    poisoned = [x.copy() for x in zeroed]
    for n, end in enumerate(ends):
        poisoned[nan_part][n, end:] = np.nan
    fw, bw = _stacked_weights(rng, 5, 4, np.float32)
    with ad.no_grad():
        ref = ad.bigru([constant(x) for x in zeroed], fw, bw, mask=mask).data
        out = ad.bigru([constant(x) for x in poisoned], fw, bw, mask=mask).data
    assert np.isfinite(ref).all()
    assert np.array_equal(out, ref)


def test_bigru_parts_must_share_leading_shape_and_fill_w_x():
    rng = np.random.default_rng(27)
    fw, bw = _stacked_weights(rng, 5, 2, np.float32)
    part = lambda *shape: constant(np.zeros(shape, dtype=np.float32))
    assert ad.bigru([part(2, 4, 3), part(2, 4, 2)], fw, bw).shape == (2, 4, 4)
    with pytest.raises(ShapeError):
        ad.bigru([part(2, 4, 3), part(2, 5, 2)], fw, bw)
    with pytest.raises(ShapeError):
        ad.bigru([part(2, 4, 3), part(1, 4, 2)], fw, bw)
    with pytest.raises(ShapeError):
        ad.bigru([part(2, 4, 3), part(2, 4, 1)], fw, bw)
    with pytest.raises(ShapeError):
        ad.bigru([part(2, 4, 3), part(2, 4, 3)], fw, bw)
