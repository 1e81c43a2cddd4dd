"""Acceptance suite: one test per published target, each printing a
single pass/fail line (run with ``pytest -s`` to see them).

Targets cover the ideal 0.25 peak, the three lossy-cavity figure values,
the plateau/decay shape, closed-form vs enumeration equivalence, collapsed
state fidelities, gate algebra, scattering identities, and series behavior.
"""

import math
import time

from reference import to_state_vector

from ecpsim import (
    BasisKet,
    CavityParams,
    DenominatorConvention,
    DetectorLabel,
    OutcomeClass,
    ProtocolConfig,
    StateVector,
    SweepSpec,
    WCoefficients,
    alice_round,
    enumerate_tree,
    p1_round,
    p1_total,
    p2_round,
    p2_simplified,
    p2_total,
    practical_p1,
    practical_p2,
    practical_total,
    prepare_w_state,
    pt_one_round,
    run_protocol,
    scatter_coefficients,
    simplex_grid,
    sweep,
)
from ecpsim.cavity import (
    Direction,
    Polarization,
    SpinLabel,
    apply_ebs_gate,
    hwp45,
    ideal_interaction,
)
from ecpsim.cli import main as cli_main
from ecpsim.hilbert import PhotonLabel

EQUAL = WCoefficients.symmetric()
ALPHA2 = 1.0 / math.sqrt(3.0)
ALPHA1_LIMIT = math.sqrt(2.0 / 3.0)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {number} ({name}): {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_ideal_peak():
    start = time.perf_counter()
    tree = run_protocol(EQUAL, ProtocolConfig())
    analytic_ok = abs(tree.total_success_probability - 0.25) <= 1e-12

    mc = run_protocol(EQUAL, ProtocolConfig(mode="mc", n_shots=1_000_000, rng_seed=2024))
    mc_ok = abs(mc.total_success_probability - 0.25) <= 0.002
    elapsed = time.perf_counter() - start
    report(
        1,
        "ideal peak",
        analytic_ok and mc_ok and elapsed < 5.0,
        f"tree={tree.total_success_probability:.15f} mc={mc.total_success_probability:.5f} t={elapsed:.2f}s",
    )


def test_criterion_2_lossy_peak_low_leakage():
    start = time.perf_counter()
    cavity = CavityParams(kappa=1.0, kappa_s=0.1, g=0.5, gamma=0.1)
    points = sweep(SweepSpec(cavity=cavity))
    best = max(points, key=lambda p: p.p_practical)
    step = (0.8105 - 0.01) / 199
    elapsed = time.perf_counter() - start
    value_ok = 0.16 <= best.p_practical <= 0.20
    location_ok = abs(best.alpha1 - ALPHA2) <= step + 1e-12
    report(
        2,
        "lossy peak, kappa_s = 0.1 kappa",
        value_ok and location_ok and elapsed < 1.0,
        f"max={best.p_practical:.6f} at a1={best.alpha1:.6f} t={elapsed:.2f}s",
    )


def test_criterion_3_lossy_high_leakage_triple():
    start = time.perf_counter()
    cavity = CavityParams(kappa=1.0, kappa_s=0.5, g=0.5, gamma=0.1)
    points = sweep(SweepSpec(cavity=cavity))
    p1_max = max(p.p1_practical for p in points)
    plateau = [p.p2_practical for p in points if p.alpha1 <= 0.3]
    p_max = max(p.p_practical for p in points)
    elapsed = time.perf_counter() - start
    ok = (
        0.37 <= p1_max <= 0.41
        and all(0.41 <= v <= 0.45 for v in plateau)
        and 0.15 <= p_max <= 0.18
        and elapsed < 1.0
    )
    report(
        3,
        "lossy triple, kappa_s = 0.5 kappa",
        ok,
        f"p1'={p1_max:.4f} p2'∈[{min(plateau):.4f},{max(plateau):.4f}] p'={p_max:.4f} t={elapsed:.2f}s",
    )


def test_criterion_4_plateau_and_decay():
    flat_ok = True
    for i in range(1, 120):
        a1 = 0.6 * i / 120
        a3 = math.sqrt(1.0 - a1 * a1 - ALPHA2 * ALPHA2)
        p2 = p2_round(1, WCoefficients(a1, ALPHA2, a3))
        flat_ok = flat_ok and abs(p2 - 0.5) <= 0.05 * 0.5

    decay_ok = True
    previous = None
    for i in range(121):
        a1 = 0.6 + (ALPHA1_LIMIT - 0.6) * i / 121  # stays below the endpoint
        a3 = math.sqrt(max(0.0, 1.0 - a1 * a1 - ALPHA2 * ALPHA2))
        p2 = p2_round(1, WCoefficients(a1, ALPHA2, a3))
        if previous is not None:
            decay_ok = decay_ok and p2 < previous
        previous = p2
    report(4, "plateau and decay shape", flat_ok and decay_ok)


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    code = cli_main(["verify", "--grid", "10", "--depth", "4,4", "--tol", "1e-10"])
    elapsed = time.perf_counter() - start
    report(
        5,
        "closed forms match enumeration on 100-point grid",
        code == 0 and elapsed < 30.0,
        f"exit={code} t={elapsed:.1f}s",
    )


def test_criterion_6_state_fidelities():
    w_max = to_state_vector(prepare_w_state(EQUAL))
    ok = True
    for c in simplex_grid(4):
        root = enumerate_tree(c, 2, 2)
        for node in root.walk():
            if node.path and node.path[-1] is DetectorLabel.D5:
                ok = ok and to_state_vector(node.state).fidelity(w_max) >= 1.0 - 1e-12
        outcomes = alice_round(prepare_w_state(c), c)
        a1, a2, a3 = c
        for o in outcomes:
            if o.detector is DetectorLabel.D3:
                expected = WCoefficients.normalized(a2, a2, a3)
            elif o.detector is DetectorLabel.D1:
                expected = WCoefficients.normalized(a1 * a1, a2 * a2, a2 * a3)
            else:
                continue
            got = o.post_coefficients
            ok = ok and all(abs(g - e) <= 1e-12 for g, e in zip(got, expected))
            fidelity = to_state_vector(o.post_state).fidelity(
                to_state_vector(prepare_w_state(expected))
            )
            ok = ok and fidelity >= 1.0 - 1e-12
    report(6, "collapsed state fidelities", ok)


def test_criterion_7_gate_invariants():
    import numpy as np

    kets = [
        BasisKet(PhotonLabel(pol, direction), (spin,))
        for pol in (Polarization.R, Polarization.L)
        for direction in (Direction.PLUS_Z, Direction.MINUS_Z)
        for spin in (SpinLabel.UP, SpinLabel.DOWN)
    ]
    images = []
    ok = True
    for ket in kets:
        image, sign = ideal_interaction(ket, 0)
        images.append(image)
        ok = ok and sign in (-1, 1)
        again, sign2 = ideal_interaction(image, 0)
        ok = ok and again == ket and sign * sign2 == 1
    ok = ok and len(set(images)) == 8  # bijection on the basis

    rng = np.random.default_rng(7)
    for _ in range(50):
        amps_a = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps_b = rng.normal(size=8) + 1j * rng.normal(size=8)
        sa = StateVector({k: a for k, a in zip(kets, amps_a)})
        sb = StateVector({k: b for k, b in zip(kets, amps_b)})
        ok = ok and abs(apply_ebs_gate(sa, 0).norm() - sa.norm()) <= 1e-12 * sa.norm()
        before = sa.inner_product(sb)
        after = hwp45(sa).inner_product(hwp45(sb))
        ok = ok and abs(before - after) <= 1e-12 * max(1.0, abs(before))
    report(7, "gate is a signed permutation; wave plate is unitary", ok)


def test_criterion_8_algebraic_identities():
    import numpy as np

    rng = np.random.default_rng(123)
    ok = True
    for _ in range(1000):
        params = CavityParams(
            kappa=1.0,
            kappa_s=float(rng.uniform(0, 3)),
            g=float(rng.uniform(0, 3)),
            gamma=float(rng.uniform(0.01, 3)),
        )
        omega = float(rng.uniform(-2, 2))
        convention = (
            DenominatorConvention.VERBATIM if rng.random() < 0.5 else DenominatorConvention.CORRECTED
        )
        sc = scatter_coefficients(params._replace(convention=convention), omega=omega)
        ok = ok and abs(sc.r - sc.t - 1.0) <= 1e-15
        ok = ok and abs(sc.r0 - sc.t0 - 1.0) <= 1e-15

        u, v = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
        c = WCoefficients.normalized(
            math.sqrt(u), math.sqrt((1 - u) * v), math.sqrt((1 - u) * (1 - v))
        )
        product = practical_p1(c, sc) * practical_p2(c, sc)
        combined = (
            pt_one_round(c) * sc.transmitted_signal_fraction * sc.reflected_signal_fraction
        )
        ok = ok and abs(practical_total(c, sc) - product) <= 1e-15
        ok = ok and abs(practical_total(c, sc) - combined) <= 1e-15

    for i in range(1, 500):
        a1 = ALPHA1_LIMIT * i / 500
        a3 = math.sqrt(max(0.0, 2.0 / 3.0 - a1 * a1))
        general = p2_round(1, WCoefficients(a1, ALPHA2, a3))
        ok = ok and abs(p2_simplified(a1) - general) <= 1e-14
    report(8, "scattering and probability identities", ok)


def test_criterion_9_series_convergence():
    ok = True
    for c in simplex_grid(5):
        for round_fn, total_fn in ((p1_round, p1_total), (p2_round, p2_total)):
            acc, prev = 0.0, 0.0
            for k in range(1, 65):
                acc += round_fn(k, c)
                ok = ok and acc >= prev
                prev = acc
            ok = ok and acc <= 1.0 + 1e-12
            ok = ok and total_fn(c) == acc
    report(9, "series are monotone, bounded, and each total sums all 64 rounds", ok)
