"""JSON wire formats shared by the library and the command line tool.

Complex numbers are encoded as two-element arrays [re, im].  A matrix is
``{"rows": n, "cols": m, "entries": [[re, im], ...]}`` with entries in
row-major order; a bipartite state additionally carries "dA" and "dB".
Decoding errors name the offending field.

Two bounds keep every input inside what the dense fits can hold.  A local
dimension runs from 1 to ``MAX_DIM``, the scope the package is built and tested
for: a deletion test at d = 8 already stacks 64 QR factorisations of
64 x 64 matrices per side.  No number a file holds exceeds
``MAX_MAGNITUDE`` in size: the deepest product the fits take, the squared
residual of sum_k p_k A_k tensor B_k, is of sixth degree in them, so it
stays far below the largest double (about 1.8e308).
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .crossnorm import DiagonalScaling
from .decompositions import DecompositionMeta, SeparableDecomposition
from .schmidt import OperatorSchmidt
from .states import BipartiteState, Povm

MAX_DIM = 8
MAX_MAGNITUDE = 1e30


class FormatError(ValueError):
    """Malformed JSON input; ``field`` names the offending location."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def _require(obj, key, field):
    if not isinstance(obj, dict):
        raise FormatError(field, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise FormatError(f"{field}.{key}", "missing")
    return obj[key]


def _built(field: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, its ValueError raised again as a FormatError naming ``field``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise FormatError(field, str(exc)) from exc


def is_number(x, kind=(int, float)) -> bool:
    """Whether a JSON value is a ``kind`` number, not a true/false (Python bools are ints)."""
    return isinstance(x, kind) and not isinstance(x, bool)


def local_dim(d: int, field: str) -> int:
    """The local dimension ``d``; below 1 or above ``MAX_DIM``, a FormatError naming ``field``."""
    if d < 1:
        raise FormatError(field, f"local dimension must be at least 1, got {d}")
    if d > MAX_DIM:
        raise FormatError(field, f"local dimension must be at most {MAX_DIM}, got {d}")
    return d


def _oversized(x) -> bool:
    """A finite number above ``MAX_MAGNITUDE`` in size, an integer no double holds included."""
    return MAX_MAGNITUDE < abs(x) < math.inf


def encode_matrix(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "entries": [[float(z.real), float(z.imag)] for z in m.reshape(-1)],
    }


def decode_matrix(obj, field: str = "matrix") -> np.ndarray:
    rows = _require(obj, "rows", field)
    cols = _require(obj, "cols", field)
    entries = _require(obj, "entries", field)
    if not is_number(rows, int) or not is_number(cols, int) or rows < 1 or cols < 1:
        raise FormatError(f"{field}.rows", "rows and cols must be positive integers")
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise FormatError(
            f"{field}.entries",
            f"expected {rows * cols} entries, got {len(entries) if isinstance(entries, list) else 'non-list'}",
        )
    out = np.empty(rows * cols, dtype=complex)
    for i, pair in enumerate(entries):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(is_number(x) for x in pair)
        ):
            raise FormatError(f"{field}.entries[{i}]", "expected [re, im]")
        if _oversized(pair[0]) or _oversized(pair[1]):
            raise FormatError(f"{field}.entries[{i}]", f"expected magnitudes at most {MAX_MAGNITUDE:g}, got {pair}")
        out[i] = complex(pair[0], pair[1])
    if not np.isfinite(out).all():  # json.load reads NaN, Infinity and -Infinity
        i = np.argmin(np.isfinite(out))
        raise FormatError(f"{field}.entries[{i}]", f"expected finite numbers, got {entries[i]}")
    return out.reshape(rows, cols)


def encode_state(state: BipartiteState) -> dict:
    out = encode_matrix(state.rho)
    out["dA"] = state.dA
    out["dB"] = state.dB
    return out


def decode_state(obj, field: str = "state") -> BipartiteState:
    dA = _require(obj, "dA", field)
    dB = _require(obj, "dB", field)
    if not is_number(dA, int) or not is_number(dB, int):
        raise FormatError(f"{field}.dA", "dA and dB must be integers")
    local_dim(dA, f"{field}.dA")
    local_dim(dB, f"{field}.dB")
    return _built(field, BipartiteState, dA, dB, decode_matrix(obj, field))


def encode_schmidt(os: OperatorSchmidt) -> dict:
    return {
        "s": [float(v) for v in os.s],
        "X": [encode_matrix(x) for x in os.X],
        "Y": [encode_matrix(y) for y in os.Y],
        "lambda_total": float(os.lambda_total),
        "hermitian": list(os.hermitian),
    }


def encode_povm(povm: Povm) -> dict:
    return {"dim": povm.dim, "effects": [encode_matrix(e) for e in povm.effects]}


def decode_povm(obj, field: str = "povm") -> Povm:
    dim = _require(obj, "dim", field)
    effects = _require(obj, "effects", field)
    if not is_number(dim, int):
        raise FormatError(f"{field}.dim", "must be an integer")
    local_dim(dim, f"{field}.dim")
    if not isinstance(effects, list) or not effects:
        raise FormatError(f"{field}.effects", "expected a nonempty list of matrices")
    mats = [decode_matrix(e, f"{field}.effects[{i}]") for i, e in enumerate(effects)]
    return _built(field, Povm, dim, tuple(mats))


def encode_meta(meta: DecompositionMeta | None) -> dict | None:
    if meta is None:
        return None
    out = {"kind": meta.kind}
    if meta.s is not None:
        out["s"] = [float(v) for v in meta.s]
    if meta.scaling is not None:
        out["R"] = [float(v) for v in meta.scaling.r]
    if meta.U is not None:
        out["U"] = encode_matrix(meta.U)
    if meta.c is not None:
        out["c"] = [float(v) for v in meta.c]
    return out


def _numbers(obj, field: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj or not all(is_number(x) for x in obj):
        raise FormatError(field, "expected a nonempty list of numbers")
    big = [x for x in obj if _oversized(x)]
    if big:
        raise FormatError(field, f"expected magnitudes at most {MAX_MAGNITUDE:g}, got {big[0]}")
    out = np.asarray(obj, dtype=float)
    if not np.isfinite(out).all():  # json.load reads NaN, Infinity and -Infinity
        raise FormatError(field, f"expected finite numbers, got {obj[np.argmin(np.isfinite(out))]}")
    return out


def decode_scaling(obj, field: str = "R") -> DiagonalScaling:
    return _built(field, DiagonalScaling, _numbers(obj, field))


def decode_meta(obj, field: str = "meta") -> DecompositionMeta | None:
    if obj is None:
        return None
    kind = _require(obj, "kind", field)
    if not isinstance(kind, str):
        raise FormatError(f"{field}.kind", "must be a string")
    s = _numbers(obj["s"], f"{field}.s") if "s" in obj else None
    scaling = decode_scaling(obj["R"], f"{field}.R") if "R" in obj else None
    u = decode_matrix(obj["U"], f"{field}.U") if "U" in obj else None
    c = _numbers(obj["c"], f"{field}.c") if "c" in obj else None
    for axis, name, v in ((0, "s", s), (1, "c", c)):  # U is D x N, s has D entries and c has N
        if u is not None and v is not None and u.shape[axis] != len(v):
            raise FormatError(f"{field}.U", f"shape {u.shape} does not match len({name}) = {len(v)}")
    return DecompositionMeta(kind=kind, s=s, scaling=scaling, U=u, c=c)


def encode_decomposition(dec: SeparableDecomposition) -> dict:
    return {
        "p": [float(v) for v in dec.p],
        "A": [encode_matrix(a) for a in dec.A],
        "B": [encode_matrix(b) for b in dec.B],
        "meta": encode_meta(dec.meta),
    }


def decode_decomposition(obj, field: str = "decomposition") -> SeparableDecomposition:
    p = _numbers(_require(obj, "p", field), f"{field}.p")
    terms_a = _require(obj, "A", field)
    terms_b = _require(obj, "B", field)
    if not isinstance(terms_a, list) or not isinstance(terms_b, list):
        raise FormatError(f"{field}.A", "A and B must be lists of matrices")
    if len(terms_a) != len(p) or len(terms_b) != len(p):
        raise FormatError(f"{field}.A", "A, B and p must have equal length")
    mats_a = [decode_matrix(a, f"{field}.A[{k}]") for k, a in enumerate(terms_a)]
    mats_b = [decode_matrix(b, f"{field}.B[{k}]") for k, b in enumerate(terms_b)]
    local_dim(len(mats_a[0]), f"{field}.A[0].rows")  # the family check holds the others to it
    local_dim(len(mats_b[0]), f"{field}.B[0].rows")
    meta = decode_meta(obj.get("meta"), f"{field}.meta")
    return _built(field, SeparableDecomposition, p, tuple(mats_a), tuple(mats_b), meta=meta)


# Decompositions, Schmidt forms and their meta hold complex matrices and keep
# the {"rows", "cols", "entries"} format above.
def plain(obj):
    """A library record as JSON values: a dataclass becomes the dict of its
    fields, tuples, lists and arrays become lists, numpy scalars Python numbers."""
    if dataclasses.is_dataclass(obj):
        return {f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (tuple, list, np.ndarray)):
        return [plain(x) for x in obj]
    return obj.item() if isinstance(obj, np.generic) else obj


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline.

    Identical inputs produce byte-identical output.
    """
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def load_json(path: str, field: str = "input"):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise FormatError(field, f"file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(field, f"invalid JSON in {path}: {exc}") from exc
