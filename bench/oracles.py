"""Per-operation oracles.

Each oracle takes the exit code and the bytes of the ``--out`` file and
returns None when both are what the construction of the input implies, or a
one-line reason otherwise.  They use only the standard library and plain
numpy, never flatdetect itself.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np


def _load(data: bytes):
    try:
        return json.loads(data), None
    except ValueError as exc:
        return None, f"output is not JSON: {exc}"


def _frac(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def _unwrap_report(obj: dict, report: bool, bm):
    """The detection part of a `report` or `detect run` output, or a reason."""
    if not report:
        return obj, None
    if obj.get("kind") != "report":
        return None, f"kind {obj.get('kind')!r} is not 'report'"
    det = obj.get("detection")
    if det is None:
        return None, "report has no detection section"
    if obj.get("verdict") != det.get("verdict"):
        return None, "report verdict differs from its detection verdict"
    if bm is not None:
        f, index = bm
        g = index * (f - 1) + 1
        expect = {"free_rank": f, "index": index, "subgroup_rank": g,
                  "h2_lower_bound": max(0, g - 2 * f), "excluded": g > 2 * f}
        if obj.get("obstruction") != expect:
            return None, f"obstruction {obj.get('obstruction')} != {expect}"
    elif "obstruction" in obj:
        return None, "unrequested obstruction section"
    return det, None


def zn_report(code: int, data: bytes, *, n: int, scales, report: bool, bm) -> str | None:
    """Exact report against a rank-n free abelian group (or a product of two).

    The matrix must be a signed permutation of size 2^n.  For a family
    induced along diag(d_1..d_n) of index m (``scales = (m, d)``), the entry
    of class z_S has absolute value m / prod_{i in S} d_i instead of 1.
    """
    if code != 0:
        return f"exit {code}, expected 0"
    obj, err = _load(data)
    if err:
        return err
    det, err = _unwrap_report(obj, report, bm)
    if err:
        return err
    if det.get("verdict") != "FD-certified" or det.get("mode") != "exact":
        return f"verdict {det.get('verdict')!r} mode {det.get('mode')!r}"
    if det.get("undetected_classes") != [] or not all(det.get("detected", [False])):
        return "some class undetected"
    size = 2**n
    matrix = [[_frac(e) for e in row] for row in det["matrix"]]
    if len(matrix) != size or any(len(row) != size for row in matrix):
        return f"matrix is not {size} x {size}"
    cols = [0] * size
    for label, row in zip(det["rows"], matrix):
        hits = [(j, e) for j, e in enumerate(row) if e != 0]
        if len(hits) != 1:
            return f"row {label} has {len(hits)} nonzero entries"
        j, e = hits[0]
        cols[j] += 1
        want = 1
        if scales is not None:
            index, diag = scales
            want = Fraction(index)
            if label != "pt":
                for z in label.split("^"):
                    want /= diag[int(z[1:]) - 1]
        if abs(e) != want:
            return f"row {label}: entry {e}, expected +-{want}"
    if cols != [1] * size:
        return "columns are not hit exactly once"
    return None


def free_report(code: int, data: bytes, *, k: int, omitted, report: bool, bm) -> str | None:
    """Exact report against free(k) for extended rank-1 families covering
    every generator except ``omitted`` (0-based, or None)."""
    want_code = 0 if omitted is None else 5
    if code != want_code:
        return f"exit {code}, expected {want_code}"
    obj, err = _load(data)
    if err:
        return err
    det, err = _unwrap_report(obj, report, bm)
    if err:
        return err
    undetected = [] if omitted is None else [f"z{omitted + 1}"]
    verdict = "FD-certified" if omitted is None else "undetected"
    if det.get("verdict") != verdict or det.get("undetected_classes") != undetected:
        return (f"verdict {det.get('verdict')!r} undetected "
                f"{det.get('undetected_classes')}, expected {verdict!r} {undetected}")
    if len(det["matrix"]) != k + 1:
        return f"{len(det['matrix'])} rows, expected {k + 1}"
    return None


def family_record(code: int, data: bytes, *, fiber: int) -> str | None:
    if code != 0:
        return f"exit {code}, expected 0"
    obj, err = _load(data)
    if err:
        return err
    if obj.get("kind") != "family" or obj.get("fiber_dims") != [fiber]:
        return f"kind {obj.get('kind')!r} fiber_dims {obj.get('fiber_dims')}, expected [{fiber}]"
    return None


def windings(code: int, data: bytes, *, expected) -> str | None:
    if code != 0:
        return f"exit {code}, expected 0"
    obj, err = _load(data)
    if err:
        return err
    want = [[list(row) for row in expected]]
    if obj.get("windings") != want:
        return f"windings {obj.get('windings')}, expected {want}"
    return None


def numeric_report(code: int, data: bytes, *, fiber: int, b_windings) -> str | None:
    """Numeric report for classes (pt, b): rank column, then one loop column
    per parameter axis."""
    if code != 0:
        return f"exit {code}, expected 0"
    obj, err = _load(data)
    if err:
        return err
    if obj.get("verdict") != "FD-certified" or obj.get("mode") != "numeric":
        return f"verdict {obj.get('verdict')!r} mode {obj.get('mode')!r}"
    zeros = [0] * len(b_windings)
    want = [[fiber, *zeros], [0, *b_windings]]
    got = [[_frac(e) for e in row] for row in obj.get("matrix", [])]
    if got != want:
        return f"matrix {obj.get('matrix')}, expected {want}"
    return None


def rep_point(code: int, data: bytes, *, group, dim: int, tol: float) -> str | None:
    """Recheck a solved point with plain numpy: exit 0 needs relator defect
    <= tol; exit 4 (non-convergence) needs the reported defect above tol.
    Either way the matrices must be unitary and the reported defect must be
    the one recomputed from them."""
    gens, relators = group
    obj, err = _load(data)
    if err:
        return err
    try:
        mats = {
            g: np.array([[complex(re, im) for re, im in row] for row in obj["matrices"][g]])
            for g in gens
        }
    except (KeyError, TypeError, ValueError) as exc:
        return f"bad matrices: {exc}"
    eye = np.eye(dim)
    if any(m.shape != (dim, dim) for m in mats.values()):
        return f"matrices are not {dim} x {dim}"
    unitarity = max(float(np.linalg.norm(m.conj().T @ m - eye)) for m in mats.values())
    if unitarity > 1e-9:
        return f"unitarity defect {unitarity:.3g}"
    defect = 0.0
    for rel in relators:
        w = eye.astype(complex)
        for g, s in rel:
            w = w @ (mats[g] if s == 1 else mats[g].conj().T)
        defect += float(np.linalg.norm(w - eye) ** 2)
    if abs(defect - obj.get("defect", -1.0)) > 1e-12 + 1e-6 * defect:
        return f"reported defect {obj.get('defect')} != recomputed {defect}"
    if code == 0 and obj.get("converged") is True and defect <= tol:
        return None
    if code == 4 and obj.get("converged") is False and defect > tol:
        return None
    return f"exit {code} converged {obj.get('converged')} defect {defect:.3g} (tol {tol})"
