"""Adjoint kernels of the tensor engine are byte-identical to ``np.add.at``.

The row-gather adjoint (:func:`repro.tensor.backend.scatter_add_rows`),
the basic-index slice adjoint (``Tensor.__getitem__``) and the cached
sparse-matmul transpose replace an unbuffered ``np.add.at`` and a
per-call ``csr.T.tocsr()``.  These tests pin them to those oracles
bit for bit: per kernel with hypothesis-generated inputs (duplicates,
``-0.0``, infinities, NaNs, non-contiguous buffers), and end to end by
training models with the old kernels patched back in.
"""

import hashlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import LogiRecConfig, LogiRecPP
from repro.data import SyntheticConfig, generate_dataset, temporal_split
from repro.models import HGCF, LightGCN, TrainConfig
from repro.tensor import Tensor, gather_rows, set_backend, use_backend
from repro.tensor import backend as be
from repro.tensor import sparse as sparse_mod
from repro.tensor import tensor as tensor_mod


@pytest.fixture(autouse=True)
def _reference_backend():
    set_backend("reference")
    yield
    set_backend("reference")


def _add_at_oracle(grad, index, shape):
    out = np.zeros(shape, dtype=grad.dtype)
    with np.errstate(all="ignore"):
        np.add.at(out, index, grad)
    return out


def _values(dtype):
    """Every float of ``dtype``, specials included."""
    width = 32 if dtype == np.float32 else 64
    return st.one_of(
        st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]),
        st.floats(width=width, allow_nan=True, allow_infinity=True))


@st.composite
def _scatter_case(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n_rows = draw(st.integers(1, 8))
    dim = draw(st.integers(1, 4))
    batch = draw(st.integers(0, 24))
    index = np.asarray(
        draw(st.lists(st.integers(-n_rows, n_rows - 1), min_size=batch,
                      max_size=batch)),
        dtype=draw(st.sampled_from([np.int32, np.int64])))
    layout = draw(st.sampled_from(["c", "strided", "fortran"]))
    cols = 2 * dim if layout == "strided" else dim
    grad = draw(hnp.arrays(dtype, (batch, cols), elements=_values(dtype)))
    if layout == "strided":
        grad = grad[:, ::2]
    elif layout == "fortran":
        grad = np.asfortranarray(grad)
    return grad, index, (n_rows, dim)


class TestScatterAddRows:
    @given(_scatter_case())
    @settings(max_examples=300, deadline=None)
    def test_bytes_equal_add_at(self, case):
        grad, index, shape = case
        expected = _add_at_oracle(grad, index, shape)
        for backend in ("reference", "fast"):
            with use_backend(backend), np.errstate(all="ignore"):
                out = be.scatter_add_rows(grad, index, shape)
            assert out.dtype == grad.dtype
            assert out.tobytes() == expected.tobytes()

    def test_out_of_range_raises(self):
        grad = np.ones((2, 3))
        for bad in ([0, 4], [-5, 0]):
            with pytest.raises(IndexError, match="out of bounds"):
                be.scatter_add_rows(grad, np.array(bad), (4, 3))

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_gather_negative_id_regression(self, backend):
        # csc_matvecs does no bounds checks: an unnormalised -1 used to
        # drop the gradient and corrupt the heap.
        with use_backend(backend):
            table = Tensor(np.arange(12.0).reshape(4, 3),
                           requires_grad=True, dtype=np.float64)
            out = gather_rows(table, np.array([-1, 1, -1]))
            np.testing.assert_array_equal(out.data[0], table.data[3])
            out.backward(np.ones((3, 3), dtype=out.data.dtype))
        expected = np.zeros((4, 3))
        expected[3] = 2.0
        expected[1] = 1.0
        np.testing.assert_array_equal(table.grad, expected)

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_gather_out_of_range_raises(self, backend):
        with use_backend(backend):
            table = Tensor(np.zeros((4, 3)), requires_grad=True,
                           dtype=np.float64)
            with pytest.raises(IndexError):
                gather_rows(table, np.array([4]))


# ----------------------------------------------------------------------
# Tensor.__getitem__ adjoint
# ----------------------------------------------------------------------
@st.composite
def _basic_case(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1,
                                max_size=3)))
    items = []
    dims = list(shape)
    used_ellipsis = False
    while dims and draw(st.booleans()):
        kind = draw(st.sampled_from(["slice", "int", "none", "ellipsis"]))
        if kind == "none":
            items.append(None)
        elif kind == "ellipsis" and not used_ellipsis:
            items.append(Ellipsis)
            used_ellipsis = True
            dims = []  # the ellipsis absorbs every remaining axis
        elif kind == "int":
            n = dims.pop(0)
            items.append(draw(st.integers(-n, n - 1)))
        else:
            n = dims.pop(0)
            start = draw(st.none() | st.integers(-n - 1, n + 1))
            stop = draw(st.none() | st.integers(-n - 1, n + 1))
            step = draw(st.none() | st.sampled_from([-2, -1, 1, 2, 3]))
            items.append(slice(start, stop, step))
    index = items[0] if len(items) == 1 and draw(st.booleans()) \
        else tuple(items)
    x = np.zeros(shape, dtype=dtype)
    grad = draw(hnp.arrays(dtype, x[index].shape,
                           elements=_values(dtype)))
    return x, index, grad


def _getitem_grad(x, index, grad):
    leaf = Tensor(x, requires_grad=True, dtype=x.dtype)
    with np.errstate(all="ignore"):
        leaf[index].backward(grad)
    return leaf.grad


class TestGetitemAdjoint:
    @given(_basic_case())
    @settings(max_examples=300, deadline=None)
    def test_basic_index_bytes_equal_add_at(self, case):
        x, index, grad = case
        assert tensor_mod._is_basic_index(index)
        got = _getitem_grad(x, index, grad)
        assert got.dtype == x.dtype
        assert got.tobytes() == _add_at_oracle(grad, index,
                                               x.shape).tobytes()

    @pytest.mark.parametrize("index", [
        np.array([0, 0, 2]),
        [1, 1],
        (slice(None), np.array([0, 0])),
        (np.array([2, 2]), 1),
    ])
    def test_advanced_index_accumulates_duplicates(self, index):
        x = np.zeros((3, 2))
        grad = np.ones(x[index].shape)
        assert not tensor_mod._is_basic_index(index)
        got = _getitem_grad(x, index, grad)
        np.testing.assert_array_equal(got, _add_at_oracle(grad, index,
                                                          x.shape))
        assert got.max() == 2.0

    @pytest.mark.parametrize("index", [
        np.array([True, False, True]),
        True,
        (np.array([False, True, True]), slice(None)),
    ])
    def test_boolean_index_keeps_add_at(self, index):
        x = np.zeros((3, 2))
        grad = np.arange(x[index].size, dtype=float).reshape(x[index].shape)
        assert not tensor_mod._is_basic_index(index)
        got = _getitem_grad(x, index, grad)
        np.testing.assert_array_equal(got, _add_at_oracle(grad, index,
                                                          x.shape))


# ----------------------------------------------------------------------
# End to end: training is unchanged with the old kernels patched back in
# ----------------------------------------------------------------------
class _PerCallTranspose:
    """The original spmm: ``csr @ x`` and a fresh ``csr.T.tocsr()``."""

    def __init__(self, matrix):
        self.csr = matrix.tocsr()

    def forward(self, dense):
        return np.asarray(self.csr @ dense, dtype=np.float64)

    def backward(self, grad):
        return np.asarray(self.csr.T.tocsr() @ grad, dtype=np.float64)


def _patch_old_kernels(monkeypatch):
    monkeypatch.setattr(be, "scatter_add_rows", _add_at_oracle)
    monkeypatch.setattr(tensor_mod, "_is_basic_index", lambda index: False)
    monkeypatch.setattr(sparse_mod, "_plan_for",
                        lambda matrix, backend: _PerCallTranspose(matrix))


def _build(name, ds):
    if name == "LogiRec++":
        return LogiRecPP(ds.n_users, ds.n_items, ds.n_tags,
                         LogiRecConfig(dim=8, epochs=3, batch_size=128,
                                       lr=0.01, lam=1.0, margin=0.5,
                                       n_negatives=1, n_layers=2, seed=0))
    cls = {"HGCF": HGCF, "LightGCN": LightGCN}[name]
    return cls(ds.n_users, ds.n_items,
               TrainConfig(dim=8, epochs=3, batch_size=128, lr=0.01,
                           margin=0.5, n_negatives=1, seed=0))


def _train_digest(name, ds, split):
    model = _build(name, ds)
    model.fit(ds, split)
    digest = hashlib.sha256()
    for key, value in sorted(model.state_dict().items()):
        digest.update(key.encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    digest.update(np.asarray(model.loss_history, np.float64).tobytes())
    return digest.hexdigest(), len(model.loss_history)


@pytest.fixture(scope="module")
def tiny():
    ds = generate_dataset(SyntheticConfig(n_users=40, n_items=60, depth=3,
                                          branching=3, mean_interactions=10.0,
                                          seed=4))
    return ds, temporal_split(ds)


class TestEndToEndBitIdentity:
    @pytest.mark.parametrize("name", ["LogiRec++", "HGCF", "LightGCN"])
    def test_training_bytes_equal_old_kernels(self, tiny, name,
                                              monkeypatch):
        ds, split = tiny
        shipped, epochs = _train_digest(name, ds, split)
        assert epochs == 3
        with monkeypatch.context() as patch:
            _patch_old_kernels(patch)
            old, _ = _train_digest(name, ds, split)
        assert shipped == old

    def test_patch_reaches_the_kernels(self, monkeypatch):
        """Guard against a vacuous pass: the patched names are the ones
        the engine resolves at call time."""
        calls = []
        _patch_old_kernels(monkeypatch)
        monkeypatch.setattr(be, "scatter_add_rows",
                            lambda *a: calls.append("scatter")
                            or _add_at_oracle(*a))
        table = Tensor(np.ones((3, 2)), requires_grad=True, dtype=np.float64)
        mat = sp.identity(3, format="csr")
        out = sparse_mod.sparse_matmul(mat, gather_rows(table, [0, 2, 2]))
        out.backward(np.ones((3, 2)))
        assert calls == ["scatter"]
        assert not hasattr(mat, sparse_mod._CACHE_ATTR)
