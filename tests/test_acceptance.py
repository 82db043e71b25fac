"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import flatdetect as fd
from flatdetect.charforms import MultiForm


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} ({name}): PASS")


# ---------------------------------------------------------------------------
# 1: constant curvature of the character line bundle and its Chern number
# ---------------------------------------------------------------------------


def test_criterion_1_poincare_curvature():
    with criterion(1, "poincare curvature"):
        t0 = time.perf_counter()
        conn = fd.poincare_connection(64)
        F = fd.numerical_curvature(conn)[0, 1]
        max_dev = float(np.max(np.abs(F - 2j * np.pi)))
        n, residual = fd.chern_number(conn)
        elapsed = time.perf_counter() - t0
        assert max_dev <= 1e-9, max_dev
        assert abs(n) == 1
        assert residual <= 1e-6
        assert elapsed < 1.0, elapsed


# ---------------------------------------------------------------------------
# 2: exact FD certificate for Z^n, n = 1..4
# ---------------------------------------------------------------------------


def _is_signed_permutation(matrix):
    n = len(matrix)
    for row in matrix:
        nz = [e for e in row if e != 0]
        if len(nz) != 1 or abs(nz[0]) != 1:
            return False
    return all(sum(1 for e in col if e != 0) == 1 for col in zip(*matrix))


def test_criterion_2_zn_certificates():
    with criterion(2, "Z^n FD certificates"):
        for n in range(1, 5):
            t0 = time.perf_counter()
            fam = fd.character_family_Zn(n, 4)
            rep = fd.detection_matrix(fd.FreeAbelian(n), [fam])
            elapsed = time.perf_counter() - t0
            assert rep.verdict == "FD-certified", n
            assert len(rep.matrix) == 2**n
            assert _is_signed_permutation(rep.matrix), n
            assert all(
                isinstance(e, Fraction) for row in rep.matrix for e in row
            )
            assert elapsed < 1.0, (n, elapsed)


# ---------------------------------------------------------------------------
# 3: tensor multiplicativity, exact and pointwise
# ---------------------------------------------------------------------------


def _naive_product(a_records, b_records):
    """Independent exterior product oracle on serialized records."""
    key = lambda l: (0 if l[0] == "z" else 1, int(l[1:]))
    out = {}
    for la, na, da in a_records:
        for lb, nb, db in b_records:
            labels = list(la) + list(lb)
            if len(set(labels)) != len(labels):
                continue
            sign = 1
            arr = labels[:]
            for i in range(len(arr)):
                for j in range(len(arr) - 1 - i):
                    if key(arr[j]) > key(arr[j + 1]):
                        arr[j], arr[j + 1] = arr[j + 1], arr[j]
                        sign = -sign
            mono = tuple((l[0], int(l[1:])) for l in arr)
            out[mono] = out.get(mono, Fraction(0)) + sign * Fraction(na, da) * Fraction(
                nb, db
            )
    return {m: c for m, c in out.items() if c}


def _grid_rows(res):
    """Every point of a grid with per-axis resolutions ``res`` as a row of
    coordinates j / r, left-major."""
    return list(itertools.product(*([j / r for j in range(r)] for r in res)))


def _random_structured_family(rng):
    f = fd.character_family_Zn(rng.randint(1, 2), rng.choice([2, 4]))
    if rng.random() < 0.4:
        f = fd.direct_sum(f, f)
    return f


def test_criterion_3_tensor_multiplicativity():
    with criterion(3, "tensor multiplicativity"):
        rng = random.Random(2024)
        points_checked = 0
        for _ in range(50):
            f = _random_structured_family(rng)
            g = _random_structured_family(rng)
            t = fd.tensor_families(f, g)
            shifted = g.chern[0].shift(
                z_offset=f.base_dim, x_offset=f.space.component_x_dim(0)
            )
            # exact identity against the independent product oracle
            expected = _naive_product(
                f.chern[0].to_records(), shifted.to_records()
            )
            got = {m: c for m, c in t.chern[0].terms()}
            assert got == expected

            # pointwise Kronecker trace identity, 20 samples per pair
            pts = _grid_rows(t.space.components[0])
            dl = f.space.component_x_dim(0)
            for i in range(20):
                row = pts[(i * 7) % len(pts)]
                A = f.evaluate(row[:dl]).matrices[0]
                B = g.evaluate(row[dl:]).matrices[0]
                assert (
                    abs(np.trace(np.kron(A, B)) - np.trace(A) * np.trace(B))
                    <= 1e-10
                )
                points_checked += 1
        assert points_checked >= 1000, points_checked


# ---------------------------------------------------------------------------
# 4: induction character identity on both structured covers
# ---------------------------------------------------------------------------


def _reduced_words_up_to(n_gens, max_len):
    words = [fd.Word(())]
    letters = [(g, s) for g in range(n_gens) for s in (1, -1)]
    for L in range(1, max_len + 1):
        for combo in itertools.product(letters, repeat=L):
            # no letter next to its inverse; a letter may repeat (a a = a^2)
            if all(a != (b[0], -b[1]) for a, b in zip(combo, combo[1:])):
                words.append(fd.Word(tuple(combo)))
    return words


def test_criterion_4_induction_character_identity():
    with criterion(4, "induction character identity"):
        cases = [
            (fd.character_family_Zn(1, 32), fd.circle_cover(2)),
            (fd.character_family_Zn(2, 8), fd.KleinBottleCover()),
        ]
        for fam, cover in cases:
            ind = fd.induce_family(fam, cover)
            words = _reduced_words_up_to(len(cover.ambient.generators), 4)
            pts = _grid_rows(fam.space.components[0])
            step = max(1, len(pts) // 32)
            sampled = pts[::step][:32]
            assert len(sampled) >= 32 or len(pts) < 32
            for pt in sampled:
                rho = fam.evaluate(pt)
                ind_rep = ind.evaluate(pt)
                for w in words:
                    lhs = np.trace(fd.evaluate_word(w, ind_rep))
                    rhs = 0.0
                    for t in cover.cosets:
                        h = cover.rewrite(
                            fd.free_reduce(t.inverse() * w * t)
                        )
                        if h is not None:
                            rhs += np.trace(fd.evaluate_word(h, rho))
                    assert abs(lhs - rhs) <= 1e-8, (w, pt)


# ---------------------------------------------------------------------------
# 5: transfer scaling on circle and torus covers
# ---------------------------------------------------------------------------


def test_criterion_5_transfer_scaling():
    with criterion(5, "transfer scaling"):
        circle_fam = fd.character_family_Zn(1, 8)
        for k in (2, 3, 5):
            cover = fd.circle_cover(k, circle_fam.group)
            assert fd.transfer_scaling_check(circle_fam, k, cover=cover)
        torus_fam = fd.character_family_Zn(2, 4)
        cover = fd.SublatticeCover(
            torus_fam.group,
            [[2, 0], [0, 1]],
            [fd.Word(()), fd.Word(((0, 1),))],
        )
        assert fd.transfer_scaling_check(torus_fam, 2, cover=cover)


# ---------------------------------------------------------------------------
# 6: free-group detection through extended families
# ---------------------------------------------------------------------------


def test_criterion_6_free_group_detection():
    with criterion(6, "free-group detection"):
        F2 = fd.free_group(2, ("a", "b"))
        fa = fd.extend_free_product(fd.character_family_Zn(1, 8, ("a",)), F2)
        fb = fd.extend_free_product(fd.character_family_Zn(1, 8, ("b",)), F2)
        rep = fd.detection_matrix(fd.Free(2), [fd.disjoint_union(fa, fb)])
        assert rep.verdict == "FD-certified"
        rows = {lbl: row for lbl, row in zip(rep.row_labels, rep.matrix)}
        a_cols = [i for i, c in enumerate(rep.col_labels) if ".c0." in c]
        b_cols = [i for i, c in enumerate(rep.col_labels) if ".c1." in c]
        assert any(rows["z1"][i] != 0 for i in a_cols)
        assert any(rows["z2"][i] != 0 for i in b_cols)
        # cross terms vanish exactly: the trivial side pairs to zero on
        # the other factor's reduced classes
        assert all(rows["z1"][i] == 0 for i in b_cols)
        assert all(rows["z2"][i] == 0 for i in a_cols)


# ---------------------------------------------------------------------------
# 7: crystallographic (Klein-bottle) detection via the winding pairing
# ---------------------------------------------------------------------------


def test_criterion_7_klein_bottle_detection():
    with criterion(7, "Klein-bottle detection"):
        t0 = time.perf_counter()
        fam = fd.induce_family(fd.character_family_Zn(2, 32), fd.KleinBottleCover())
        descriptor = fd.FiniteIndexSuper(
            fd.FreeAbelian(2), 2, "klein", (("pt",), ("b",))
        )
        rep = fd.numeric_detection_report(descriptor, fam)
        elapsed = time.perf_counter() - t0
        b_row = rep.matrix[rep.row_labels.index("b")]
        values = [int(e) for e in b_row if e != 0]
        assert values, "surviving class not detected"
        assert all(abs(v) >= 1 for v in values)
        assert rep.verdict == "FD-certified"
        assert elapsed < 5.0, elapsed


# ---------------------------------------------------------------------------
# 8: winding numbers of the index pairing surrogate
# ---------------------------------------------------------------------------


def test_criterion_8_winding_pairing():
    with criterion(8, "winding pairing"):
        ts = np.linspace(0.0, 1.0, 257)
        for k in range(-3, 4):
            loop = [np.array([[np.exp(2j * np.pi * k * t)]]) for t in ts]
            assert fd.winding_number(loop) == k
        rng = np.random.default_rng(88)
        for _ in range(100):
            k1, k2 = rng.integers(-3, 4, size=2)
            blocks = [
                np.diag(
                    [np.exp(2j * np.pi * k1 * t), np.exp(2j * np.pi * k2 * t)]
                )
                for t in ts
            ]
            assert fd.winding_number(blocks) == k1 + k2


# ---------------------------------------------------------------------------
# 9: Euler-characteristic obstruction arithmetic
# ---------------------------------------------------------------------------


def test_criterion_9_obstruction_arithmetic():
    with criterion(9, "obstruction arithmetic"):
        pairs = [(f, c) for f in range(2, 7) for c in range(2, 6)]
        assert len(pairs) == 20
        for f, c in pairs:
            g, bound, excluded = fd.bm_obstruction(f, c)
            assert g == c * (f - 1) + 1  # independent arithmetic
            assert bound == max(0, g - 2 * f)
            assert excluded == (g > 2 * f)


# ---------------------------------------------------------------------------
# 10: Betti-number inequality for representation spaces of free groups
# ---------------------------------------------------------------------------


def test_criterion_10_betti_inequality():
    with criterion(10, "Betti inequality"):
        for m in range(1, 5):
            for n in range(1, 5):
                lhs, rhs, holds = fd.betti_inequality_check(m, n)
                assert holds
                assert lhs == 2 ** (n * m)
                assert rhs == 1 + m
                # Poincare polynomial oracle evaluated at t = 1
                poly_total = 1
                for i in range(1, n + 1):
                    poly_total *= 2  # each factor (1 + t^{2i-1}) sums to 2
                assert lhs == poly_total**m


# ---------------------------------------------------------------------------
# 11: optimizer soundness on the three benchmark groups
# ---------------------------------------------------------------------------


def test_criterion_11_optimizer_soundness():
    with criterion(11, "optimizer soundness"):
        groups = [
            fd.free_abelian(2),
            fd.klein_bottle(),
            fd.surface_group(2),
        ]
        for G in groups:
            for seed in range(5):
                t0 = time.perf_counter()
                res = fd.solve_representation(
                    G, 2, fd.SolveConfig(seed=seed, tolerance=1e-8)
                )
                elapsed = time.perf_counter() - t0
                assert res.converged, (G.generators, seed, res.defect)
                assert res.defect <= 1e-8
                assert res.max_unitarity_defect <= 1e-10
                assert elapsed < 5.0, (G.generators, seed, elapsed)


# ---------------------------------------------------------------------------
# 12: exact slant-product identities
# ---------------------------------------------------------------------------


def _random_form(rng, zmax, xmax, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        zpart = (
            tuple(("z", i) for i in sorted(rng.sample(range(1, zmax + 1), rng.randint(0, zmax))))
            if zmax
            else ()
        )
        xpart = (
            tuple(("x", i) for i in sorted(rng.sample(range(1, xmax + 1), rng.randint(0, xmax))))
            if xmax
            else ()
        )
        terms[zpart + xpart] = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    return MultiForm(terms)


def test_criterion_12_slant_identities():
    with criterion(12, "slant identities"):
        rng = random.Random(1212)
        for _ in range(200):
            ch = _random_form(rng, zmax=3, xmax=4)
            factor = _random_form(rng, zmax=0, xmax=6)
            mono = tuple(sorted(rng.sample([1, 2, 3], rng.randint(0, 3))))
            keep = sorted(rng.sample([1, 2, 3, 4, 5, 6], rng.randint(0, 6)))

            # module property: contracting an external product against a class
            # on the first factor equals the factor times the contraction
            assert (ch * factor).contract_z(mono) == ch.contract_z(mono) * factor

            # naturality: restriction to a parameter sub-torus commutes with
            # contraction
            assert (
                ch.contract_z(mono).restrict_x(keep)
                == ch.restrict_x(keep).contract_z(mono)
            )
