"""Acceptance gate: ten numbered criteria, one summary line each.

Every test prints ``criterion N: PASS/FAIL ...`` so the run can be
audited at a glance.  Criteria 3 and 4 contain reference magnitudes this
implementation cannot reproduce despite exact internal oracles (the
machinery is validated independently in the per-module suites); those
tests fail honestly rather than loosening their stated tolerances.
"""

import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from entconvex.angular import _racah, cg
from entconvex.benchmarks import evaluate_table
from entconvex.criterion import random_projector_probe
from entconvex.lgmodes import LGMode
from entconvex.sweep import angular_pair, criterion_vs_observation, entropy_curve, lg_pair, spherium_pair
from oracles import block_density, coupled_reduced_density_exact, energy_expectation, radial_residual

SLOW = os.environ.get("ENTCONVEX_SLOW", "") not in ("", "0")


def _report(n, ok, detail=""):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'}{' - ' + detail if detail else ''}")
    assert ok, detail


def _row_summary(result):
    worst = max(max(r.value_errors.values()) for r in result.rows)
    flags = []
    if not all(r.values_agree for r in result.rows):
        flags.append(f"worst magnitude error {worst:.2e} > tol")
    if not all(r.qc_agree for r in result.rows):
        flags.append("Q_c mismatch")
    if not all(r.convexity_agree for r in result.rows if r.convexity_agree is not None):
        flags.append("convexity mismatch")
    return worst, "; ".join(flags) if flags else f"worst magnitude error {worst:.2e}"


def test_criterion_1_exact_endpoint_matrices():
    t0 = time.time()
    expected = [
        Fraction(5, 42), Fraction(5, 21), Fraction(2, 7),
        Fraction(5, 21), Fraction(5, 42), Fraction(0), Fraction(0),
    ]
    rho1 = coupled_reduced_density_exact(3, 2, 2, 1)
    rho0 = coupled_reduced_density_exact(3, 2, 2, 0)
    ok = [rho1[i][i] for i in range(7)] == expected
    ok = ok and [rho0[i][i] for i in range(7)] == expected[::-1]
    ok = ok and all(rho1[i][j] == 0 for i in range(7) for j in range(7) if i != j)
    elapsed = time.time() - t0
    _report(1, ok and elapsed < 1.0, f"rational endpoints exact, {elapsed:.3f}s")


def test_criterion_2_angular_reference_table():
    t0 = time.time()
    res = evaluate_table(5, value_tol=1e-3)
    base_ok = abs(res.log_base - math.e) < 1e-12
    # closed form anchoring the natural-log choice
    closed = (Fraction(2, 7) - Fraction(5, 42)) * math.log(Fraction(7, 2)) + Fraction(5, 21) * math.log(
        Fraction(21, 5)
    )
    anchor_ok = abs(closed - 0.550) < 1e-3 and abs(closed / math.log(2.0) - 0.794) < 1e-3
    row2 = res.rows[1]
    anchor_ok = anchor_ok and abs(row2.report.s_ns - closed) < 1e-3
    qc_ok = [r.report.qc for r in res.rows] == [1, 1, -1, -1, -1, 0]
    conv_ok = all(r.convexity_agree for r in res.rows)
    elapsed = time.time() - t0
    worst, detail = _row_summary(res)
    ok = res.agree and base_ok and anchor_ok and qc_ok and conv_ok and elapsed < 10.0
    _report(2, ok, f"{detail}, natural log, closed form {float(closed):.3f} nats, {elapsed:.1f}s")


def test_criterion_3_decoupled_oscillator_table():
    from entconvex.oscillator import _coefficient_tensor_cached

    _coefficient_tensor_cached.cache_clear()  # force a cold cache
    t0 = time.time()
    res = evaluate_table(1, value_tol=5e-3)
    elapsed = time.time() - t0
    _coefficient_tensor_cached.cache_clear()
    worst, detail = _row_summary(res)
    qc_ok = all(r.qc_agree for r in res.rows)
    conv_ok = all(r.convexity_agree for r in res.rows)
    ok = res.agree and qc_ok and conv_ok and elapsed < 60.0
    _report(
        3, ok,
        f"{detail}; Q_c {'all match' if qc_ok else 'MISMATCH'}, "
        f"convexity labels {'all match' if conv_ok else 'MISMATCH'}, cold {elapsed:.1f}s",
    )


def test_criterion_4_coupled_oscillator_table():
    from entconvex.oscillator import OscState, _coefficient_tensor_cached

    _coefficient_tensor_cached.cache_clear()
    t0 = time.time()
    res = evaluate_table(2, value_tol=5e-3)
    cold = time.time() - t0
    t0 = time.time()
    res_warm = evaluate_table(2, value_tol=5e-3)
    warm = time.time() - t0
    energies_ok = all(
        abs(energy_expectation(OscState(n, m, 0, 0, 0.7)) - OscState(n, m, 0, 0, 0.7).energy) < 1e-4
        for n, m in [(1, -1), (1, 1), (2, -1), (2, 1), (0, -2), (0, 2), (1, -2), (1, 2)]
    )
    _coefficient_tensor_cached.cache_clear()
    worst, detail = _row_summary(res)
    ok = (
        res.agree and res_warm.agree and energies_ok
        and abs(res.log_base - 2.0) < 1e-12 and cold < 300.0 and warm < 10.0
    )
    _report(
        4, ok,
        f"{detail}; energies {'within 1e-4' if energies_ok else 'OFF'}, "
        f"base {res.log_base:g}, cold {cold:.1f}s, warm {warm:.1f}s",
    )


def test_criterion_5_spherium_table():
    t0 = time.time()
    res = evaluate_table(3, value_tol=5e-3)
    elapsed = time.time() - t0
    worst, detail = _row_summary(res)
    ok = res.agree and abs(res.log_base - 2.0) < 1e-12 and elapsed < 60.0
    _report(5, ok, f"{detail}, base {res.log_base:g}, {elapsed:.1f}s")


def test_criterion_6_lg_table_and_scan():
    from entconvex.sweep import classify_convexity

    t0 = time.time()
    res = evaluate_table(4, value_tol=5e-3)
    qc_ok = all(r.report.qc == 1 for r in res.rows)
    # extended scan of the claimed property: no superposition of two
    # distinct vortex modes has a concave entropy curve
    modes = [LGMode(l, m) for l in range(5) for m in range(-4, 5) if m != 0]
    concave, total = [], 0
    for i, m0 in enumerate(modes):
        if m0.m < 0:
            continue
        for m1 in modes[i + 1:]:
            total += 1
            pair = lg_pair(m0, m1)
            lab = classify_convexity(entropy_curve(pair, grid_size=13), pair.chord_tol)
            if lab.label == "concave":
                concave.append((m0, m1))
    elapsed = time.time() - t0
    worst, detail = _row_summary(res)
    scan_detail = (
        f"no concave pair over l,|m|<=4"
        if not concave
        else f"{len(concave)}/{total} scanned pairs concave, e.g. "
        f"LG({concave[0][0].l},{concave[0][0].m})/LG({concave[0][1].l},{concave[0][1].m}) "
        "(confirmed by an independent Schmidt-decomposition oracle; the "
        "no-concavity argument relies on both modes occupying the same "
        "one-coordinate subspace, which fails for widely separated orders)"
    )
    ok = res.agree and qc_ok and not concave and elapsed < 120.0
    _report(6, ok, f"{detail}; all table Q_c=+1; {scan_detail}, {elapsed:.1f}s")


@pytest.mark.parametrize("lmax", [6] + ([12] if SLOW else []))
def test_criterion_7_angular_agreement(lmax):
    checked = asserted = 0
    misses = []
    for l in range(1, lmax + 1):
        for L in range(1, 2 * l + 1):
            rec = criterion_vs_observation(angular_pair(l, L, L))
            checked += 1
            if rec.asserted:
                asserted += 1
                if not rec.agree:
                    misses.append((l, L, rec))
    detail = f"l<={lmax}: {asserted - len(misses)}/{asserted} asserted pairs agree"
    for l, L, rec in misses:
        # how far the miss is from flipping, on both sides
        curve = entropy_curve(angular_pair(l, L, L))
        lowest = float(np.min(np.asarray(curve.entropies) - curve.chord()))
        detail += (
            f"; mispredicted (l, L=M) = ({l}, {L}): Q_c margin S_R - S_NS "
            f"{round(rec.report.s_r - rec.report.s_ns, 4)} bits, curve {rec.observed.label}, "
            f"at most {round(rec.observed.max_deviation, 4)} bits from the chord, "
            f"S - chord >= {round(lowest, 4)} bits"
        )
    if not SLOW:
        detail += " (l<=12 behind ENTCONVEX_SLOW=1)"
    _report(7, not misses, detail)


def _single_ops(j):
    dim = 2 * j + 1
    ms = np.array([j - i for i in range(dim)], dtype=float)
    jp = np.zeros((dim, dim))
    for i in range(1, dim):
        m = ms[i]
        jp[i - 1, i] = math.sqrt(j * (j + 1) - m * (m + 1))
    return np.diag(ms), jp, jp.T


def _oracle_vector(l1, l2, L, M):
    z1, p1, m1 = _single_ops(l1)
    z2, p2, m2 = _single_ops(l2)
    i1, i2 = np.eye(2 * l1 + 1), np.eye(2 * l2 + 1)
    lz = np.kron(z1, i2) + np.kron(i1, z2)
    lp = np.kron(p1, i2) + np.kron(i1, p2)
    lm = np.kron(m1, i2) + np.kron(i1, m2)
    sector = [k for k in range(lz.shape[0]) if abs(lz[k, k] - L) < 1e-9]
    _, sv, vh = np.linalg.svd(lp[:, sector])
    v = np.zeros(lz.shape[0])
    v[sector] = vh[-1].real
    lead = min(k for k in sector if abs(v[k]) > 1e-12)
    if v[lead] < 0:
        v = -v
    for _ in range(L - M):
        v = lm @ v
        v /= np.linalg.norm(v)
    return v


def test_criterion_8_oracle_equivalence():
    # brute-force product-space trace-out for l <= 2
    worst = 0.0
    for l in (1, 2):
        for L in range(0, 2 * l + 1):
            for M in range(0, L + 1):
                for alpha in (0.0, 0.5, 1.0):
                    psi = math.sqrt(alpha) * _oracle_vector(l, l, L, M)
                    psi = psi + math.sqrt(1.0 - alpha) * _oracle_vector(l, l, L, -M)
                    psi /= np.linalg.norm(psi)
                    amp = psi.reshape(2 * l + 1, 2 * l + 1)
                    pair = angular_pair(l, L, M)
                    got = (pair.builder(alpha) if alpha != 0.5 else block_density(pair, alpha)).entries
                    worst = max(worst, float(np.max(np.abs(got - amp @ amp.conj().T))))
    assert worst < 1e-12
    # exact CG normalization and float cross-L orthogonality, l1, l2 <= 12;
    # the exact squares are the integer quotients that `cg` rounds, tied
    # bitwise to the Fraction oracle by test_angular's oracle test
    cross_worst = 0.0
    for l1 in range(13):
        for l2 in range(l1, 13):
            for M in range(-(l1 + l2), l1 + l2 + 1):
                ls = list(range(max(abs(l1 - l2), abs(M)), l1 + l2 + 1))
                for i, L in enumerate(ls):
                    total = Fraction(0)
                    for m1 in range(-l1, l1 + 1):
                        if abs(M - m1) <= l2:
                            _, num, den = _racah(l1, m1, l2, M - m1, L, M)
                            total += Fraction(num, den)
                    assert total == Fraction(1), (l1, l2, L, M)
                    for Lp in ls[i + 1:]:
                        s = sum(
                            cg(l1, m1, l2, M - m1, L, M) * cg(l1, m1, l2, M - m1, Lp, M)
                            for m1 in range(-l1, l1 + 1)
                            if abs(M - m1) <= l2
                        )
                        cross_worst = max(cross_worst, abs(s))
    ok = cross_worst < 1e-12
    _report(8, ok, f"trace-out worst {worst:.1e}, cross-L worst {cross_worst:.1e}")


def test_criterion_9_probe_property():
    worst_gap = 0.0
    for L in range(1, 7):
        pair = angular_pair(3, L, L)
        rho0, rho1 = pair.builder(1.0), pair.builder(0.0)
        rec = random_projector_probe(rho0, rho1, samples=10_000, seed=42)
        assert rec.min_value >= rec.bound - 1e-9, f"L={L}"
        worst_gap = max(worst_gap, rec.bound - rec.min_value)
    # unbiased sampling closes the gap in small dimension
    pair = angular_pair(1, 1, 1)
    rho0, rho1 = pair.builder(1.0), pair.builder(0.0)
    haar = random_projector_probe(rho0, rho1, samples=100_000, seed=42, mode="haar")
    gap = abs(haar.min_value - haar.bound)
    ok = gap < 0.02
    _report(9, ok, f"biased worst deficit {worst_gap:.1e}, dim-3 haar gap {gap:.4f}")


def test_criterion_10_structural_invariants():
    from entconvex.oscillator import OscBasisSpec, OscState
    from entconvex.sweep import oscillator_pair

    checks = []
    # endpoint consistency + alpha-mirror symmetry on one pair per model
    pairs = [
        angular_pair(3, 2, 2),
        oscillator_pair(OscState(0, 1, 0, 0, 0.0), OscState(0, -1, 0, 0, 0.0), OscBasisSpec(8, 24)),
        spherium_pair(1, lmax=12),
        lg_pair(LGMode(1, 1), LGMode(1, -1)),
    ]
    for pair in pairs:
        curve = entropy_curve(pair, grid_size=9)  # endpoint invariant enforced
        s = np.array(curve.entropies)
        checks.append(np.max(np.abs(s - s[::-1])) < 1e-8)
        rho = block_density(pair, 0.5)
        checks.append(abs(rho.trace() - 1.0) < 1e-10)
        checks.append(np.max(np.abs(rho.entries - rho.entries.conj().T)) < 1e-12)
        # +/-M endpoints isospectral
        a, b = pair.builder(1.0).entries, pair.builder(0.0).entries
        checks.append(np.max(np.abs(np.linalg.eigvalsh(a) - np.linalg.eigvalsh(b))) < 1e-8)
    # reduced radial equation on the spherium correlation factor
    r = np.linspace(1e-3, 2.0 * math.sqrt(6.0), 4001)
    checks.append(radial_residual(r) <= 1e-10)
    # cut-size convergence
    from entconvex.spectra import eigendecompose, von_neumann_entropy

    lg_vals = [
        von_neumann_entropy(
            eigendecompose(block_density(lg_pair(LGMode(2, 2), LGMode(2, -2), n_basis=nb), 0.5))
        )
        for nb in (32, 36)
    ]
    checks.append(abs(lg_vals[0] - lg_vals[1]) < 1e-4)
    sp_vals = [
        von_neumann_entropy(eigendecompose(block_density(spherium_pair(1, lmax=lmax), 0.5)))
        for lmax in (16, 20)
    ]
    checks.append(abs(sp_vals[0] - sp_vals[1]) < 1e-4)
    _report(10, all(checks), f"{sum(checks)}/{len(checks)} invariant checks hold")
