"""Vectorized GF(256) kernels: equivalence with the scalar anchor."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.gf import gf256_vec
from repro.gf.gf256 import GF256, mul_fast

# exc_type=ImportError: skip (not warn) even when a numpy distribution
# is present but unimportable, e.g. the CI scalar-fallback lane.
np = pytest.importorskip("numpy", exc_type=ImportError)


class TestCapabilityFlag:
    def test_flag_true_with_numpy_installed(self):
        assert gf256_vec.HAS_NUMPY is True
        from repro.gf import HAS_NUMPY

        assert HAS_NUMPY is True

    def test_require_numpy_passes(self):
        gf256_vec.require_numpy()

    def test_require_numpy_raises_without_numpy(self, monkeypatch):
        monkeypatch.setattr(gf256_vec, "HAS_NUMPY", False)
        with pytest.raises(ConfigurationError, match="repro\\[fast\\]"):
            gf256_vec.require_numpy()

    def test_kernels_raise_without_numpy(self, monkeypatch):
        monkeypatch.setattr(gf256_vec, "HAS_NUMPY", False)
        with pytest.raises(ConfigurationError):
            gf256_vec.gf_mul_vec([1], [2])
        with pytest.raises(ConfigurationError):
            gf256_vec.gf_matmul([[1]], [[2]])


class TestMulVec:
    def test_full_grid_matches_scalar(self):
        a = np.repeat(np.arange(256, dtype=np.uint8), 256)
        b = np.tile(np.arange(256, dtype=np.uint8), 256)
        out = gf256_vec.gf_mul_vec(a, b)
        expected = np.array(
            [mul_fast(int(x), int(y)) for x, y in zip(a, b)], dtype=np.uint8
        )
        assert np.array_equal(out, expected)

    def test_accepts_bytes_and_lists(self):
        out = gf256_vec.gf_mul_vec(b"\x02\x03", [4, 5])
        assert list(out) == [GF256.mul(2, 4), GF256.mul(3, 5)]

    def test_broadcasting(self):
        out = gf256_vec.gf_mul_vec([[2], [3]], [1, 4])
        assert out.shape == (2, 2)
        assert out[1, 1] == GF256.mul(3, 4)

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            gf256_vec.gf_mul_vec([256], [1])
        with pytest.raises(ConfigurationError):
            gf256_vec.gf_mul_vec([1], [-1])

    def test_rejects_non_integer(self):
        with pytest.raises(ConfigurationError):
            gf256_vec.gf_mul_vec([1.5], [1])


class TestMatmul:
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_matches_scalar_matmul(self, data):
        m = data.draw(st.integers(1, 6))
        k = data.draw(st.integers(1, 8))
        w = data.draw(st.integers(1, 6))
        elem = st.integers(0, 255)
        a = [
            data.draw(st.lists(elem, min_size=k, max_size=k)) for _ in range(m)
        ]
        b = [
            data.draw(st.lists(elem, min_size=w, max_size=w)) for _ in range(k)
        ]
        out = gf256_vec.gf_matmul(a, b)
        for i in range(m):
            for j in range(w):
                want = 0
                for t in range(k):
                    want ^= mul_fast(a[i][t], b[t][j])
                assert out[i, j] == want

    def test_identity(self):
        eye = np.eye(5, dtype=np.uint8)
        b = np.arange(25, dtype=np.uint8).reshape(5, 5)
        assert np.array_equal(gf256_vec.gf_matmul(eye, b), b)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            gf256_vec.gf_matmul(np.zeros((2, 3), dtype=np.uint8),
                                np.zeros((4, 2), dtype=np.uint8))

    def test_rejects_non_2d(self):
        with pytest.raises(ConfigurationError):
            gf256_vec.gf_matmul(np.zeros(3, dtype=np.uint8),
                                np.zeros((3, 1), dtype=np.uint8))

    def test_matvec(self):
        a = np.array([[1, 2], [3, 4]], dtype=np.uint8)
        v = [5, 6]
        out = gf256_vec.gf_matvec(a, v)
        assert out.shape == (2,)
        assert out[0] == mul_fast(1, 5) ^ mul_fast(2, 6)
        assert out[1] == mul_fast(3, 5) ^ mul_fast(4, 6)

    def test_matvec_rejects_matrix_vector(self):
        with pytest.raises(ConfigurationError):
            gf256_vec.gf_matvec([[1]], [[1], [2]])


def _scalar_matmul(a, b):
    """GF(256) dot products with the scalar multiply: the anchor."""
    k = len(b)
    w = len(b[0]) if k else 0
    return [
        [
            _xor_all(mul_fast(row[t], b[t][j]) for t in range(k))
            for j in range(w)
        ]
        for row in a
    ]


def _xor_all(values):
    acc = 0
    for value in values:
        acc ^= value
    return acc


class TestMatmulShapes:
    """The input-row take kernel against the scalar dot products."""

    @pytest.mark.parametrize(
        "m, k, w",
        [
            (1, 5, 7),  # single output row
            (4, 1, 9),  # single input row
            (3, 4, 0),  # no columns
            (32, 223, 40),  # RS(255, 223) parity: parity rows x message
            (32, 255, 16),  # decode pre-screen: syndromes of one chunk
        ],
    )
    def test_matches_scalar_dot_products(self, m, k, w):
        rnd = np.random.default_rng(m * 1000 + k * 10 + w)
        a = rnd.integers(0, 256, (m, k), dtype=np.uint8)
        b = rnd.integers(0, 256, (k, w), dtype=np.uint8)
        out = gf256_vec.gf_matmul(a, b)
        assert out.shape == (m, w)
        assert out.dtype == np.uint8
        assert out.tolist() == _scalar_matmul(a.tolist(), b.tolist())

    def test_rs_parity_matches_scalar_encoder(self, monkeypatch):
        from repro.erasure.reed_solomon import ReedSolomon
        from repro.erasure.striping import BlockStriper

        rs = ReedSolomon(255, 223)
        message = np.random.default_rng(7).integers(
            0, 256, (223, 24), dtype=np.uint8
        )
        parity = gf256_vec.gf_matmul(BlockStriper()._parity_transpose(), message)
        monkeypatch.setattr(gf256_vec, "HAS_NUMPY", False)
        for col in range(message.shape[1]):
            codeword = rs.encode(message[:, col].tobytes())
            assert parity[:, col].tobytes() == codeword[223:]
