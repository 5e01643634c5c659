"""Bit identity of the fused char-CNN against its tape route.

``CharCNN.forward`` runs :func:`repro.perf.conv_kernels.char_cnn_fused`
by default and the per-width tape graph (``Conv1d`` → ``relu`` →
``max_``) under ``recurrent_kernel(False)``.  Both routes must agree
with ``==`` on the output and on the gradients of the char-embedding
weight and of every conv weight and bias.  Under ``no_grad`` the fused
route runs :func:`repro.perf.conv_kernels.char_cnn_from_ids` instead,
straight from the character ids, on a padded batch's distinct rows;
its output must be byte-equal to the recorded kernel on every row and
to the tape.
"""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.autodiff.tensor import Tensor, grad, no_grad
from repro.nn import CharCNN
from repro.nn.module import override_params
from repro.perf import recurrent_kernel
import repro.perf.conv_kernels as conv_kernels
from repro.perf.conv_kernels import (
    BLOCK_WORDS,
    char_cnn_from_ids,
    char_cnn_fused,
    distinct_rows,
)

NUM_CHARS = 23


def make_cnn(seed=0, char_dim=5, filters=9, widths=(2, 3, 4)):
    return CharCNN(NUM_CHARS, char_dim, filters, np.random.default_rng(seed),
                   widths=widths)


def ragged_ids(rng, words, chars):
    ids = rng.integers(1, NUM_CHARS, size=(words, chars))
    lengths = rng.integers(1, chars + 1, size=words)
    ids[np.arange(chars)[None, :] >= lengths[:, None]] = 0
    return ids


def output_and_grads(cnn, ids_list, cotangent_seed=7):
    """Forward every id matrix, then one backward of a weighted sum."""
    rng = np.random.default_rng(cotangent_seed)
    params = cnn.parameters()
    outs = [cnn(ids) for ids in ids_list]
    loss = None
    for out in outs:
        term = (out * Tensor(rng.normal(size=out.shape))).sum()
        loss = term if loss is None else loss + term
    grads = grad(loss, params)
    return [out.data for out in outs], [g.data for g in grads]


def assert_routes_identical(cnn, ids_list):
    fused = output_and_grads(cnn, ids_list)
    with recurrent_kernel(False):
        tape = output_and_grads(cnn, ids_list)
    for a, b in zip(fused[0], tape[0]):
        assert a.shape == b.shape
        assert np.array_equal(a, b)
    # Char-embedding weight, then (weight, bias) per width.
    assert len(fused[1]) == 1 + 2 * len(cnn.widths)
    for a, b in zip(fused[1], tape[1]):
        assert a.shape == b.shape
        assert np.array_equal(a, b)
    return fused


def quantise(cnn, step=0.25):
    for p in cnn.parameters():
        p.data = np.round(p.data / step) * step


class TestParity:
    def test_ragged_words(self):
        rng = np.random.default_rng(1)
        assert_routes_identical(make_cnn(), [ragged_ids(rng, 9, 7)])

    def test_all_padding_rows(self):
        rng = np.random.default_rng(2)
        ids = ragged_ids(rng, 6, 8)
        ids[[1, 4]] = 0
        assert_routes_identical(make_cnn(), [ids])

    def test_tied_maxima_from_quantised_weights(self):
        cnn = make_cnn(seed=3, char_dim=3, filters=6)
        quantise(cnn)
        rng = np.random.default_rng(3)
        ids = rng.integers(1, 4, size=(8, 9))  # few chars: repeated windows
        _outs, _grads = assert_routes_identical(cnn, [ids])
        feat = cnn.convs[0](cnn.char_embedding(ids)).data
        feat = np.maximum(feat, 0.0)
        ties = (feat == feat.max(axis=1, keepdims=True)).sum(axis=1)
        assert (ties > 1).any()

    def test_single_word(self):
        rng = np.random.default_rng(4)
        assert_routes_identical(make_cnn(), [ragged_ids(rng, 1, 6)])

    def test_zero_words(self):
        _outs, grads = assert_routes_identical(
            make_cnn(), [np.zeros((0, 5), dtype=np.intp)]
        )
        assert all(not g.any() for g in grads)

    def test_one_char_narrower_than_widest_filter(self):
        rng = np.random.default_rng(5)
        assert_routes_identical(
            make_cnn(), [rng.integers(0, NUM_CHARS, size=(5, 1))]
        )

    def test_odd_widths_and_one_width(self):
        rng = np.random.default_rng(6)
        ids = ragged_ids(rng, 5, 6)
        assert_routes_identical(make_cnn(widths=(1, 3, 5), filters=6), [ids])
        assert_routes_identical(make_cnn(widths=(3,), filters=4), [ids])

    def test_one_channel_and_one_filter_per_width(self):
        # One channel makes the tape's window reshape a view, and one
        # filter makes the matmul a matrix-vector product, whose bytes
        # follow the operand's layout.
        rng = np.random.default_rng(19)
        ids = ragged_ids(rng, 6, 5)
        assert_routes_identical(make_cnn(char_dim=1, filters=3), [ids])
        assert_routes_identical(
            make_cnn(char_dim=1, filters=2, widths=(1, 5)), [ids])

    def test_several_calls_in_one_backward(self):
        rng = np.random.default_rng(7)
        assert_routes_identical(
            make_cnn(), [ragged_ids(rng, 4, 6), ragged_ids(rng, 7, 6)]
        )

    def test_fast_weights_under_override_params(self):
        cnn = make_cnn(seed=8)
        ids = ragged_ids(np.random.default_rng(8), 6, 7)

        def run():
            shift = np.random.default_rng(9)
            params = cnn.parameters()
            fast = {
                name: p * Tensor(np.array(0.9))
                + Tensor(shift.normal(size=p.shape) * 0.01)
                for name, p in cnn.named_parameters()
            }
            with override_params(cnn, fast):
                out = cnn(ids)
            # The backward runs after the override exited.
            loss = (out * out).sum()
            return out.data, [g.data for g in grad(loss, params)]

        fused = run()
        with recurrent_kernel(False):
            tape = run()
        assert np.array_equal(fused[0], tape[0])
        for a, b in zip(fused[1], tape[1]):
            assert np.array_equal(a, b)


class TestFusedNode:
    def test_one_tape_node_after_the_embedding(self):
        cnn = make_cnn()
        out = cnn(ragged_ids(np.random.default_rng(10), 4, 6))
        emb_and_params = out._node.parents
        assert emb_and_params[0]._node.parents == (cnn.char_embedding.weight,)
        expected = [t for conv in cnn.convs for t in (conv.weight, conv.bias)]
        assert list(emb_and_params[1:]) == expected

    def test_no_grad_records_nothing(self):
        cnn = make_cnn()
        ids = ragged_ids(np.random.default_rng(11), 4, 6)
        with no_grad():
            out = cnn(ids)
        assert out._node is None and not out.requires_grad
        assert np.array_equal(out.data, cnn(ids).data)

    def test_create_graph_raises_naming_the_switch(self):
        cnn = make_cnn()
        out = cnn(ragged_ids(np.random.default_rng(12), 4, 6))
        with pytest.raises(RuntimeError, match=r"recurrent_kernel\(False\)"):
            grad((out * out).sum(), cnn.parameters(), create_graph=True)

    def test_create_graph_works_on_the_tape_route(self):
        cnn = make_cnn()
        with recurrent_kernel(False):
            out = cnn(ragged_ids(np.random.default_rng(13), 4, 6))
            grads = grad((out * out).sum(), cnn.parameters(),
                         create_graph=True)
        assert all(g._node is not None for g in grads)


class TestInputShape:
    @pytest.mark.parametrize("ids", [
        np.array([1, 2, 3]),
        np.zeros((2, 3, 4), dtype=np.intp),
        np.zeros((3, 0), dtype=np.intp),
    ], ids=["1-D", "3-D", "no-chars"])
    @pytest.mark.parametrize("fused", [True, False], ids=["fused", "tape"])
    def test_bad_shape_raises_one_value_error(self, ids, fused):
        with recurrent_kernel(fused):
            with pytest.raises(ValueError, match="char ids must be"):
                make_cnn()(ids)


@st.composite
def word_batches(draw):
    """Char-id matrices full of what a batch holds: words repeated from
    a small pool, all-pad rows, one word, all-identical words and rows
    wider than the default 12 characters."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    chars = draw(st.sampled_from([1, 3, 12, 13, 20]))
    shape = draw(st.sampled_from(["mixed", "one", "identical", "pads"]))
    words = 1 if shape == "one" else draw(st.integers(2, 40))
    pool = ragged_ids(rng, draw(st.integers(1, 6)), chars)
    ids = pool[rng.integers(0, len(pool), size=words)]
    if shape == "identical":
        ids[:] = ids[0]
    elif shape == "pads":
        ids[rng.random(words) < 0.5] = 0
    elif shape == "mixed":
        ids[rng.random(words) < 0.3] = 0
        fresh = rng.random(words) < 0.3
        ids[fresh] = ragged_ids(rng, int(fresh.sum()), chars)
    return ids


class TestDistinctRows:
    """``CharCNN.forward`` under ``no_grad`` runs the kernel on the
    distinct rows of a batch with pad cells; each word is its own GEMM,
    so the bytes must equal the kernel on all rows."""

    @seed(24)
    @settings(max_examples=60, deadline=None)
    @given(ids=word_batches(), cnn_seed=st.integers(0, 3))
    def test_no_grad_output_is_byte_equal_to_all_rows(self, ids, cnn_seed):
        cnn = make_cnn(seed=cnn_seed)
        rows, inverse = distinct_rows(ids)
        with no_grad():
            routed = cnn(ids).data
            every = char_cnn_fused(cnn.char_embedding(ids), cnn.convs).data
            distinct = char_cnn_fused(cnn.char_embedding(rows),
                                      cnn.convs).data[inverse]
        assert routed.shape == every.shape == (len(ids), cnn.output_dim)
        assert distinct.tobytes() == every.tobytes()
        assert routed.tobytes() == every.tobytes()

    @pytest.mark.parametrize("pads,calls", [(0, 0), (1, 1)])
    def test_only_a_batch_with_pad_cells_takes_distinct_rows(
            self, monkeypatch, pads, calls):
        import repro.nn.conv as conv

        seen = []
        monkeypatch.setattr(conv, "distinct_rows",
                            lambda ids: seen.append(ids) or distinct_rows(ids))
        ids = ragged_ids(np.random.default_rng(15), 6, 5)
        ids[:pads] = 0
        with no_grad():
            make_cnn()(ids)
        make_cnn()(ids)  # recorded: all rows
        assert len(seen) == calls

    @seed(24)
    @settings(max_examples=15, deadline=None)
    @given(ids=word_batches())
    def test_recorded_route_is_unchanged(self, ids):
        cnn = make_cnn(seed=5)
        outs, _grads = assert_routes_identical(cnn, [ids])
        every = char_cnn_fused(cnn.char_embedding(ids), cnn.convs).data
        assert outs[0].tobytes() == every.tobytes()
        with no_grad():
            assert cnn(ids).data.tobytes() == every.tobytes()

    def test_pad_rows_collapse_to_one(self):
        ids = ragged_ids(np.random.default_rng(14), 6, 5)
        ids = np.concatenate([ids, ids, np.zeros((7, 5), dtype=ids.dtype)])
        rows, inverse = distinct_rows(ids)
        assert len(rows) == len({tuple(r) for r in ids})
        assert np.array_equal(rows[inverse], ids)
        assert len(set(inverse[-7:])) == 1


def routes(cnn, ids):
    """Output bytes of the off-tape kernel, the ``no_grad`` forward, the
    recorded kernel and the tape, in that order."""
    table = cnn.char_embedding.weight.data
    off = char_cnn_from_ids(np.asarray(ids, dtype=np.intp), table, cnn.convs)
    with no_grad():
        routed = cnn(ids).data
    recorded = char_cnn_fused(cnn.char_embedding(ids), cnn.convs)
    assert recorded._node is not None
    with recurrent_kernel(False):
        tape = cnn(ids)
    assert tape._node is not None
    return [a.tobytes() for a in (off, routed, recorded.data, tape.data)]


def assert_off_tape_identical(cnn, ids):
    off, routed, recorded, tape = routes(cnn, ids)
    assert off == recorded
    assert routed == recorded
    assert tape == recorded


@st.composite
def off_tape_cases(draw):
    """A CharCNN with a nonzero pad row (or the fresh zero one), biases
    of every sign, weights on a coarse grid (so maxima tie and lins hit
    exact zeros) or not, and an id matrix of ragged words, all-pad rows,
    one-char words and words of exactly ``max_chars``, up to more than
    one block."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    widths = draw(st.sampled_from([(2, 3, 4), (3,), (1, 5)]))
    per_width = draw(st.integers(1, 4))
    cnn = CharCNN(NUM_CHARS, draw(st.integers(1, 4)), per_width * len(widths),
                  rng, widths=widths)
    step = draw(st.sampled_from([None, 0.25, 0.5]))
    bias = draw(st.sampled_from(["zero", "negative", "positive", "mixed"]))
    for conv in cnn.convs:
        conv.weight.data = rng.normal(size=conv.weight.shape)
        conv.bias.data = {
            "zero": np.zeros(per_width),
            "negative": -rng.uniform(0.1, 1.0, per_width),
            "positive": rng.uniform(0.1, 1.0, per_width),
            "mixed": rng.normal(size=per_width),
        }[bias]
    if draw(st.booleans()):
        cnn.char_embedding.weight.data[0] = rng.normal(
            size=cnn.char_embedding.embedding_dim)
    if step is not None:
        quantise(cnn, step)
    chars = draw(st.sampled_from([1, 2, 5, 12]))
    words = draw(st.sampled_from(
        [1, draw(st.integers(2, 40)), BLOCK_WORDS + draw(st.integers(1, 40))]))
    alphabet = draw(st.sampled_from([3, NUM_CHARS]))
    ids = rng.integers(1, alphabet, size=(words, chars))
    lengths = rng.choice([0, 1, chars, *range(1, chars + 1)], size=words)
    ids[np.arange(chars)[None, :] >= lengths[:, None]] = 0
    return cnn, ids


class TestOffTapeKernel:
    """``char_cnn_from_ids`` takes the max over characters before the
    bias and relu, and gathers each block's windows in one index; its
    bytes must equal the recorded kernel's and the tape's."""

    @seed(25)
    @settings(max_examples=80, deadline=None)
    @given(case=off_tape_cases())
    def test_bytes_equal_the_recorded_kernel_and_the_tape(self, case):
        cnn, ids = case
        assert_off_tape_identical(cnn, ids)

    def test_zero_results_keep_the_recorded_sign(self):
        # Character 1 embeds to 0.0 and character 2 to -1.0, so with a
        # zero bias a word's lins are exact zeros and negatives.  The
        # recorded max returns the last character's zero, -0.0 after a
        # negative lin and 0.0 after a zero one; relu(max + bias) would
        # give 0.0 for both words.
        cnn = make_cnn(char_dim=1, filters=1, widths=(1,))
        cnn.char_embedding.weight.data[:] = 0.0
        cnn.char_embedding.weight.data[2] = -1.0
        cnn.convs[0].weight.data[:] = 1.0
        ids = np.array([[1, 2], [2, 1]])
        assert_off_tape_identical(cnn, ids)
        with no_grad():
            out = cnn(ids).data
        assert not out.any()
        assert np.signbit(out).any() and not np.signbit(out).all()

    def test_tied_maxima_from_quantised_weights(self):
        cnn = make_cnn(seed=3, char_dim=3, filters=6)
        quantise(cnn)
        cnn.char_embedding.weight.data[0] = 0.5
        ids = ragged_ids(np.random.default_rng(3), 30, 9) % 4
        assert_off_tape_identical(cnn, ids)
        raw = char_cnn_fused(cnn.char_embedding(ids), cnn.convs[:1]).data
        feat = np.maximum(cnn.convs[0](cnn.char_embedding(ids)).data, 0.0)
        assert ((feat == raw[:, None]).sum(axis=1) > 1).any()

    @pytest.mark.parametrize("ids", [
        np.zeros((4, 6), dtype=np.intp),
        np.full((3, 1), 5),
        np.arange(1, 13).reshape(1, 12),
    ], ids=["all-pad", "one-char", "one-full-word"])
    def test_edge_batches(self, ids):
        cnn = make_cnn(seed=4)
        cnn.char_embedding.weight.data[0] = 0.3
        assert_off_tape_identical(cnn, ids)

    def test_blocks_do_not_change_a_byte(self, monkeypatch):
        cnn = make_cnn(seed=5)
        ids = ragged_ids(np.random.default_rng(5), 2 * BLOCK_WORDS + 3, 7)
        table = cnn.char_embedding.weight.data
        whole = char_cnn_from_ids(ids, table, cnn.convs).tobytes()
        for block in (1, 7, len(ids)):
            monkeypatch.setattr(conv_kernels, "BLOCK_WORDS", block)
            assert char_cnn_from_ids(ids, table, cnn.convs).tobytes() == whole
        monkeypatch.undo()
        assert_off_tape_identical(cnn, ids)

    @pytest.mark.parametrize("grad_on", [False, True], ids=["no_grad", "grad"])
    def test_route_by_tape_state_and_switch(self, monkeypatch, grad_on):
        import repro.nn.conv as conv

        calls = []
        for name in ("char_cnn_from_ids", "char_cnn_fused"):
            kernel = getattr(conv, name)
            monkeypatch.setattr(
                conv, name,
                lambda *a, _k=kernel, _n=name: calls.append(_n) or _k(*a))
        cnn = make_cnn()
        padded = ragged_ids(np.random.default_rng(16), 6, 5)
        padded[0] = 0
        full = np.random.default_rng(17).integers(1, NUM_CHARS, size=(6, 5))
        for ids in (padded, full):
            if grad_on:
                cnn(ids)
            else:
                with no_grad():
                    cnn(ids)
            with recurrent_kernel(False), no_grad():
                cnn(ids)
        expected = "char_cnn_fused" if grad_on else "char_cnn_from_ids"
        assert calls == [expected, expected]


class TestOffTapeRangeCheck:
    """The off-tape route reads the embedding table directly, so it must
    raise ``Embedding.forward``'s ``IndexError`` itself."""

    @pytest.mark.parametrize("bad", [-1, NUM_CHARS, NUM_CHARS + 7])
    @pytest.mark.parametrize("pads", [False, True],
                             ids=["all-rows", "distinct-rows"])
    def test_out_of_range_ids_raise_the_same_error(self, bad, pads):
        ids = ragged_ids(np.random.default_rng(18), 5, 6)
        if not pads:
            ids[:, 0] = 1
        ids[2, 1] = bad
        cnn = make_cnn()
        with pytest.raises(IndexError) as on_tape:
            cnn(ids)
        with no_grad(), pytest.raises(IndexError) as off_tape:
            cnn(ids)
        assert str(off_tape.value) == str(on_tape.value)
        assert "out of range [0, 23)" in str(off_tape.value)
