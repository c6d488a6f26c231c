"""JSON wire formats."""

import json
from dataclasses import dataclass

import numpy as np
import pytest

from minsep import serialize
from minsep.bases import phase_point_operators
from minsep.decompositions import SeparableDecomposition
from minsep.schmidt import operator_schmidt
from minsep.states import bell_state, projective_povm, random_density


class TestMatrix:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        decoded = serialize.decode_matrix(serialize.encode_matrix(m))
        np.testing.assert_array_equal(decoded, m)

    def test_missing_key_names_field(self):
        with pytest.raises(serialize.FormatError, match="matrix.entries: missing"):
            serialize.decode_matrix({"rows": 2, "cols": 2})

    def test_bad_entry_names_index(self):
        obj = serialize.encode_matrix(np.eye(2))
        obj["entries"][3] = [1.0]
        with pytest.raises(serialize.FormatError, match=r"entries\[3\]"):
            serialize.decode_matrix(obj)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_entry_names_index(self, value):
        obj = serialize.encode_matrix(np.eye(2))
        obj["entries"][2] = [0.0, value]  # json.load reads NaN and Infinity
        with pytest.raises(serialize.FormatError) as info:
            serialize.decode_matrix(obj, "m")
        assert info.value.field == "m.entries[2]"
        assert str(info.value) == f"m.entries[2]: expected finite numbers, got [0.0, {value}]"


class TestState:
    def test_round_trip(self):
        state = random_density(4, 2, 3)
        decoded = serialize.decode_state(serialize.encode_state(state))
        np.testing.assert_array_equal(decoded.rho, state.rho)
        assert (decoded.dA, decoded.dB) == (2, 3)

    def test_invalid_state_reports_field(self):
        obj = serialize.encode_state(bell_state())
        obj["entries"][0] = [5.0, 0.0]
        with pytest.raises(serialize.FormatError, match="state"):
            serialize.decode_state(obj)


class TestPovm:
    def test_round_trip(self):
        povm = projective_povm("y")
        decoded = serialize.decode_povm(serialize.encode_povm(povm))
        for a, b in zip(decoded.effects, povm.effects):
            np.testing.assert_array_equal(a, b)


class TestDecomposition:
    def test_round_trip_with_meta(self):
        from minsep.crossnorm import DiagonalScaling
        from minsep.decompositions import equal_norm_decomposition

        os = operator_schmidt(bell_state())
        dec = equal_norm_decomposition(os, DiagonalScaling.identity(4), np.eye(4, dtype=complex), 1.0)
        decoded = serialize.decode_decomposition(serialize.encode_decomposition(dec))
        np.testing.assert_allclose(decoded.p, dec.p)
        np.testing.assert_allclose(decoded.reconstruct(), dec.reconstruct(), atol=1e-12)
        assert decoded.meta.kind == "equal-norm"
        np.testing.assert_allclose(decoded.meta.c, dec.meta.c)

    def test_without_meta(self):
        ws = phase_point_operators().ops
        dec = SeparableDecomposition(np.full(4, 0.25), ws, tuple(w.T for w in ws))
        decoded = serialize.decode_decomposition(serialize.encode_decomposition(dec))
        assert decoded.meta is None

    def test_length_mismatch(self):
        obj = {"p": [1.0], "A": [], "B": [], "meta": None}
        with pytest.raises(serialize.FormatError, match="equal length"):
            serialize.decode_decomposition(obj)


class TestMeta:
    @staticmethod
    def encoded():
        from minsep.crossnorm import DiagonalScaling
        from minsep.decompositions import equal_norm_decomposition

        os = operator_schmidt(bell_state())
        dec = equal_norm_decomposition(os, DiagonalScaling.identity(4), np.eye(4, dtype=complex), 1.0)
        return serialize.encode_decomposition(dec)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("s", None),
            ("s", [True, False, True, True]),
            ("s", "abc"),
            ("s", [[1.0, 2.0], [3.0]]),
            ("s", []),
            ("kind", 5),
            ("c", {"a": 1}),
            ("R", [-1.0, 1.0, 1.0, 1.0]),
            ("R", [1.0, None, 1.0, 1.0]),
        ],
    )
    def test_malformed_entry_names_its_key(self, key, value):
        obj = self.encoded()
        obj["meta"][key] = value
        with pytest.raises(serialize.FormatError) as info:
            serialize.decode_decomposition(obj)
        assert info.value.field == f"decomposition.meta.{key}"

    @pytest.mark.parametrize(
        "shape, drop, message",
        [
            ((1, 4), None, "shape (1, 4) does not match len(s) = 4"),
            ((4, 3), None, "shape (4, 3) does not match len(c) = 4"),
            ((4, 3), "s", "shape (4, 3) does not match len(c) = 4"),
            ((3, 4), "c", "shape (3, 4) does not match len(s) = 4"),
        ],
    )
    def test_u_must_match_s_and_c(self, shape, drop, message):
        obj = self.encoded()
        obj["meta"]["U"] = serialize.encode_matrix(np.eye(*shape))
        obj["meta"].pop(drop, None)
        with pytest.raises(serialize.FormatError) as info:
            serialize.decode_decomposition(obj)
        assert str(info.value) == f"decomposition.meta.U: {message}"

    def test_u_is_free_without_s_and_c(self):
        obj = self.encoded()
        obj["meta"]["U"] = serialize.encode_matrix(np.eye(2, 3))
        del obj["meta"]["s"], obj["meta"]["c"]
        assert serialize.decode_decomposition(obj).meta.U.shape == (2, 3)

    def test_meta_must_be_an_object(self):
        obj = self.encoded()
        obj["meta"] = [1.0]
        with pytest.raises(serialize.FormatError, match="decomposition.meta: expected an object"):
            serialize.decode_decomposition(obj)


@dataclass(frozen=True)
class _Record:
    flag: np.bool_
    count: int
    value: float
    missing: None
    pair: tuple
    table: np.ndarray


class TestPlain:
    def test_record_becomes_json_values(self):
        record = _Record(np.bool_(True), 3, 0.25, None, (np.int64(1), 2.5), np.arange(6.0).reshape(2, 3))
        out = serialize.plain(record)
        assert out == {
            "flag": True, "count": 3, "value": 0.25, "missing": None,
            "pair": [1, 2.5], "table": [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]],
        }
        assert type(out["flag"]) is bool and type(out["pair"][0]) is int
        assert all(type(x) is float for row in out["table"] for x in row)
        assert json.loads(serialize.dumps(out)) == out

    def test_tuple_of_records(self):
        record = _Record(np.bool_(False), 0, 1.0, None, (), np.zeros((0, 2)))
        assert serialize.plain((record,))[0]["table"] == []


class TestDumps:
    def test_sorted_and_newline_terminated(self):
        text = serialize.dumps({"b": 1, "a": [0.5]})
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")

    def test_byte_identical(self):
        obj = serialize.encode_state(random_density(7, 2, 2))
        assert serialize.dumps(obj) == serialize.dumps(obj)
