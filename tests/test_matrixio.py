import struct

import numpy as np
import pytest

import hcf
from hcf.errors import MatrixFormatError

from helpers import traced_peak


class TestWrite:
    def test_identity_byte_layout(self, tmp_path):
        path = tmp_path / "eye.hcf"
        hcf.write_matrix(np.eye(2, dtype=np.float32), path)
        raw = path.read_bytes()
        assert len(raw) == 28
        assert raw[:4] == b"HCF1"
        assert struct.unpack("<II", raw[4:12]) == (2, 2)
        assert np.frombuffer(raw[12:], dtype="<f4").tolist() == [1.0, 0.0, 0.0, 1.0]

    def test_row_major_order(self, tmp_path):
        path = tmp_path / "rm.hcf"
        hcf.write_matrix(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), path)
        raw = path.read_bytes()
        assert np.frombuffer(raw[12:], dtype="<f4").tolist() == [1, 2, 3, 4, 5, 6]

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(MatrixFormatError):
            hcf.write_matrix(np.ones(5), tmp_path / "x.hcf")
        with pytest.raises(MatrixFormatError):
            hcf.write_matrix(np.ones((2, 2, 2)), tmp_path / "x.hcf")

    def test_rejects_non_finite(self, tmp_path):
        bad = np.array([[1.0, np.nan]])
        with pytest.raises(MatrixFormatError):
            hcf.write_matrix(bad, tmp_path / "x.hcf")
        with pytest.raises(MatrixFormatError):
            hcf.write_matrix(np.array([[np.inf]]), tmp_path / "x.hcf")


class TestRoundTrip:
    def test_float32_bit_exact(self, tmp_path, rng):
        for k in range(100):
            rows = int(rng.integers(1, 12))
            cols = int(rng.integers(1, 12))
            mat = rng.standard_normal((rows, cols)).astype(np.float32)
            path = tmp_path / f"m{k}.hcf"
            hcf.write_matrix(mat, path)
            back = hcf.read_matrix(path)
            assert back.dtype == np.float32
            assert np.array_equal(back, mat)

    def test_float64_narrowed(self, tmp_path):
        mat = np.array([[np.pi, np.e]], dtype=np.float64)
        path = tmp_path / "wide.hcf"
        hcf.write_matrix(mat, path)
        back = hcf.read_matrix(path)
        assert np.array_equal(back, mat.astype(np.float32))

    def test_read_peak_is_its_result(self, tmp_path, rng):
        # the result and its finiteness mask, a quarter of it: the file's
        # bytes beside a copy of them would reach twice the result
        path = tmp_path / "big.hcf"
        hcf.write_matrix(rng.standard_normal((512, 1024)).astype(np.float32), path)
        back, peak = traced_peak(hcf.read_matrix, path)
        assert peak <= 1.3 * back.nbytes

    def test_empty_dimension(self, tmp_path):
        path = tmp_path / "empty.hcf"
        hcf.write_matrix(np.empty((0, 4)), path)
        back = hcf.read_matrix(path)
        assert back.shape == (0, 4)


class TestReadErrors:
    def test_short_file(self, tmp_path):
        path = tmp_path / "short.hcf"
        path.write_bytes(b"HCF1\x02")
        with pytest.raises(MatrixFormatError, match="12-byte header"):
            hcf.read_matrix(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "magic.hcf"
        path.write_bytes(b"NOPE" + struct.pack("<II", 1, 1) + b"\x00" * 4)
        with pytest.raises(MatrixFormatError, match="offset 0"):
            hcf.read_matrix(path)

    def test_truncated_payload_names_byte_counts(self, tmp_path):
        path = tmp_path / "trunc.hcf"
        path.write_bytes(b"HCF1" + struct.pack("<II", 2, 2) + b"\x00" * 8)
        with pytest.raises(MatrixFormatError, match="28 bytes total, file has 20"):
            hcf.read_matrix(path)

    def test_size_is_checked_before_the_payload_is_allocated(self, tmp_path):
        path = tmp_path / "huge.hcf"
        path.write_bytes(b"HCF1" + struct.pack("<II", 2**32 - 1, 2**32 - 1))
        with pytest.raises(MatrixFormatError, match="file has 12$"):
            hcf.read_matrix(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "extra.hcf"
        path.write_bytes(b"HCF1" + struct.pack("<II", 1, 1) + b"\x00" * 8)
        with pytest.raises(MatrixFormatError):
            hcf.read_matrix(path)

    def test_non_finite_payload_rejected(self, tmp_path):
        path = tmp_path / "nan.hcf"
        payload = struct.pack("<f", float("nan"))
        path.write_bytes(b"HCF1" + struct.pack("<II", 1, 1) + payload)
        with pytest.raises(MatrixFormatError, match="non-finite"):
            hcf.read_matrix(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            hcf.read_matrix(tmp_path / "absent.hcf")
