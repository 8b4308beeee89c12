"""Acceptance suite: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line per
criterion. The forgetting-benchmark criteria share one set of prepared seeds
via module-scoped fixtures, so the whole suite stays within its time budget.
"""

import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from rtune.benchmark import desk_config, prepare_benchmark, scored_arms
from rtune.cli import main as cli_main
from rtune.forecaster import Forecaster, init_forecaster
from rtune.reference import (batch_objective, distill_loss, grad_total,
                             soften, soften_jacobian)
from rtune.replay import replay_count_for_fraction
from rtune.tuner import r_tune
from rtune.wavelet import build_db4_bank, rwt_decompose, rwt_reconstruct

SEEDS = (0, 1, 2, 3, 4)
ARMS = ("frozen", "ft", "lwf", "replay-only", "r-tuning")
# the North star's table on SEEDS, as desk_table() writes it
DESK_TABLE = Path(__file__).with_name("desk_table.json")


@contextmanager
def criterion(num, description):
    try:
        yield
    except Exception:
        print(f"[criterion {num}] {description}: FAIL")
        raise
    print(f"[criterion {num}] {description}: PASS")


@pytest.fixture(scope="module")
def setups():
    return {seed: prepare_benchmark(seed) for seed in SEEDS}


def seed_reports(setups, arms):
    """Each seed's reports of `arms`, functions (seed, setup) -> (method,
    cfg), trained on the prepared `setups` by scored_arms; each has the bits
    of its solo run_arm."""
    reports = {}
    for seed, outcomes in scored_arms(SEEDS, setups.__getitem__, arms):
        for outcome in outcomes:
            if isinstance(outcome, Exception):
                raise outcome
        reports[seed] = [report for _, report in outcomes]
    return reports


def desk_arm_reports(setups):
    """Each seed's report per arm of ARMS at its desk_config."""
    reports = seed_reports(setups, [lambda seed, _, m=m: (m, desk_config(seed))
                                    for m in ARMS])
    return {seed: dict(zip(ARMS, reps)) for seed, reps in reports.items()}


@pytest.fixture(scope="module")
def arm_reports(setups):
    return desk_arm_reports(setups)


def desk_table(arm_reports):
    """`arm_reports` as DESK_TABLE holds them: per seed and arm, the old- and
    new-task MAE and MSE written with repr, and the selected epoch."""
    return {str(seed): {method: {
        "old_mae": repr(report.old_metrics.mae),
        "old_mse": repr(report.old_metrics.mse),
        "new_mae": repr(report.new_metrics.mae),
        "new_mse": repr(report.new_metrics.mse),
        "selected_epoch": report.selected_epoch,
    } for method, report in arms.items()} for seed, arms in arm_reports.items()}


def seed_mean(reports, method, metric, side="old"):
    return float(np.mean([
        getattr(getattr(reports[s][method], f"{side}_metrics"), metric)
        for s in SEEDS]))


def test_criterion_1_filter_identities():
    with criterion(1, "db4 filter identities at 1e-12"):
        bank = build_db4_bank()
        s3, s2 = np.sqrt(3.0), np.sqrt(2.0)
        closed = np.array([1 + s3, 3 + s3, 3 - s3, 1 - s3]) / (4 * s2)
        assert np.max(np.abs(bank.dec_lo - closed)) < 1e-12
        assert abs(bank.dec_lo.sum() - s2) < 1e-12
        assert abs(bank.dec_hi.sum()) < 1e-12
        assert abs((bank.dec_lo ** 2).sum() - 1.0) < 1e-12
        for k in range(4):
            assert abs(bank.dec_hi[k] - (-1) ** k * bank.dec_lo[3 - k]) < 1e-12


def test_criterion_2_rwt_properties():
    with criterion(2, "RWT linearity, shift covariance, round trip vs matrix oracle"):
        rng = np.random.default_rng(0)

        # linearity at 1e-10
        x, y = rng.normal(size=48), rng.normal(size=48)
        a, b = 1.7, -0.4
        dx, dy = rwt_decompose(x, 2), rwt_decompose(y, 2)
        dz = rwt_decompose(a * x + b * y, 2)
        assert np.max(np.abs(dz.approx - (a * dx.approx + b * dy.approx))) < 1e-10
        for lz, lx, ly in zip(dz.details, dx.details, dy.details):
            assert np.max(np.abs(lz - (a * lx + b * ly))) < 1e-10

        # exact shift covariance
        sig = rng.normal(size=32)
        d0, d1 = rwt_decompose(sig, 2), rwt_decompose(np.roll(sig, 5), 2)
        assert np.array_equal(d1.approx, np.roll(d0.approx, 5))
        for l1, l0 in zip(d1.details, d0.details):
            assert np.array_equal(l1, np.roll(l0, 5))

        # zero details on constants
        const = rwt_decompose(np.full(32, 2.2), 3)
        for lvl in const.details:
            assert np.max(np.abs(lvl)) < 1e-12

        # length-8 single-level matrix oracle pins the halved-adjoint inverse
        bank = build_db4_bank()
        g = np.zeros((8, 8))
        h = np.zeros((8, 8))
        for n in range(8):
            for k in range(4):
                g[n, (n - k) % 8] += bank.dec_lo[k]
                h[n, (n - k) % 8] += bank.dec_hi[k]
        assert np.max(np.abs(0.5 * (g.T @ g + h.T @ h) - np.eye(8))) < 1e-12
        for _ in range(20):
            sig8 = rng.normal(size=8)
            rec = rwt_reconstruct(rwt_decompose(sig8, 1), 1.0, 1)
            assert np.linalg.norm(rec - sig8) / np.linalg.norm(sig8) <= 1e-8

        # multi-level round trip at the same bound
        for levels in (1, 2, 3):
            sig = rng.normal(size=64)
            rec = rwt_reconstruct(rwt_decompose(sig, levels), 1.0, levels)
            assert np.linalg.norm(rec - sig) / np.linalg.norm(sig) <= 1e-8


def test_criterion_3_softmax_machinery():
    with criterion(3, "soften normalization, Jacobian vs closed form and FD"):
        rng = np.random.default_rng(1)
        step = 1e-5
        for _ in range(100):
            c = int(rng.integers(2, 9))
            logits = rng.normal(scale=3.0, size=c)
            tau = float(rng.uniform(0.3, 8.0))
            p = soften(logits, tau).probs
            assert abs(p.sum() - 1.0) < 1e-12

            jac = soften_jacobian(logits, tau)
            closed = (np.diag(p) - np.outer(p, p)) / tau
            assert np.max(np.abs(jac - closed)) < 1e-12

            fd = np.zeros((c, c))
            for m in range(c):
                up = logits.copy(); up[m] += step
                dn = logits.copy(); dn[m] -= step
                fd[:, m] = (soften(up, tau).probs - soften(dn, tau).probs) / (2 * step)
            err = np.abs(jac - fd) / np.maximum(np.abs(fd), 1e-4)
            assert np.max(err) < 1e-6

        # temperature identity J(tau*z, tau) = J(z, 1) / tau
        for tau in (2.0, 3.0, 6.0, 10.0):
            z = rng.normal(size=6)
            assert np.allclose(soften_jacobian(tau * z, tau),
                               soften_jacobian(z, 1.0) / tau, atol=1e-12)


def test_criterion_4_gradient_correctness():
    with criterion(4, "analytic gradient vs central finite differences"):
        settings = [(3.0, 0.2, 1e-4), (3.0, 0.0, 1e-4), (3.0, 0.2, 0.0),
                    (3.0, 0.0, 0.0)]
        step = 1e-5
        for tau, lam, beta in settings:
            for seed in range(100):
                rng = np.random.default_rng(seed)
                m_new = init_forecaster(6, 3, 4, seed=seed)
                m_new.theta += 0.1 * rng.normal(size=m_new.theta.size)
                m_old = init_forecaster(6, 3, 4, seed=seed + 10_000)
                x = rng.normal(size=(5, 6))
                y = rng.normal(size=(5, 3))
                analytic = grad_total(m_new, m_old, x, y, tau, lam, beta)
                fd = np.zeros_like(analytic)
                for i in range(analytic.size):
                    up = m_new.theta.copy(); up[i] += step
                    dn = m_new.theta.copy(); dn[i] -= step
                    probe_up = Forecaster(6, 3, 4, up)
                    probe_dn = Forecaster(6, 3, 4, dn)
                    fd[i] = (batch_objective(probe_up, m_old, x, y, tau, lam, beta)
                             - batch_objective(probe_dn, m_old, x, y, tau, lam, beta)
                             ) / (2 * step)
                gap = np.abs(analytic - fd)
                tol = np.maximum(1e-4 * np.maximum(np.abs(analytic), np.abs(fd)),
                                 1e-8)
                assert np.all(gap <= tol), (
                    f"(tau={tau}, lam={lam}, beta={beta}) seed {seed}: "
                    f"max gap {gap.max():.3e}")


def test_criterion_5_distillation_identities():
    with criterion(5, "distillation entropy, Gibbs inequality, uniform value"):
        # uniform case is exactly ln C
        for c in (2, 4, 8):
            y = np.full(c, 0.3)
            assert abs(distill_loss(y, y, 3.0) - np.log(c)) < 1e-12

        rng = np.random.default_rng(2)
        for _ in range(100):
            y = rng.normal(scale=2.0, size=int(rng.integers(2, 10)))
            tau = float(rng.uniform(0.5, 6.0))
            p = soften(y, tau).probs
            entropy = float(-(p * np.log(p)).sum())
            assert abs(distill_loss(y, y, tau) - entropy) < 1e-10
            perturbed = y + rng.normal(scale=0.8, size=y.size)
            assert distill_loss(y, perturbed, tau) >= entropy - 1e-12


def test_criterion_6_forgetting_benchmark(arm_reports):
    with criterion(6, "two-task benchmark: adaptation, retention, parity"):
        # (a) FT adapts strongly while forgetting
        frozen_new = seed_mean(arm_reports, "frozen", "mae", "new")
        ft_new = seed_mean(arm_reports, "ft", "mae", "new")
        improvement = (frozen_new - ft_new) / frozen_new * 100.0
        assert improvement >= 30.0, f"FT new-task gain {improvement:.1f}% < 30%"
        assert seed_mean(arm_reports, "ft", "mse") > seed_mean(
            arm_reports, "frozen", "mse"), "FT did not degrade old-task MSE"

        # (b) replay tuning strictly beats FT on old-task retention
        assert seed_mean(arm_reports, "r-tuning", "mae") < seed_mean(
            arm_reports, "ft", "mae")
        assert seed_mean(arm_reports, "r-tuning", "mse") < seed_mean(
            arm_reports, "ft", "mse")

        # (c) without giving up the new task (within 10% of FT)
        rt_new = seed_mean(arm_reports, "r-tuning", "mae", "new")
        assert rt_new <= 1.10 * ft_new, (
            f"r-tuning new-task MAE {rt_new:.4f} vs ft {ft_new:.4f}")


def test_criterion_7_replay_ratio_sweep(setups):
    with criterion(7, "replay-ratio sweep direction and plateau"):
        ratios = (1.0, 5.0, 10.0)
        vals = {ratio: [] for ratio in ratios}
        arms = [lambda seed, setup, ratio=ratio: (
                    "r-tuning", desk_config(seed, replay_n=replay_count_for_fraction(
                        ratio, len(setup.new_train), 1)))
                for ratio in ratios]
        for reports in seed_reports(setups, arms).values():
            for ratio, rep in zip(ratios, reports):
                vals[ratio].append(rep.old_metrics.mae)
        ratio_means = {ratio: float(np.mean(vals[ratio])) for ratio in ratios}
        assert ratio_means[5.0] <= ratio_means[1.0], ratio_means
        early = abs(ratio_means[1.0] - ratio_means[5.0])
        late = abs(ratio_means[10.0] - ratio_means[5.0])
        assert late < early, f"no plateau: {ratio_means}"


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "byte-identical report and checkpoint under reruns"):
        # library level: bit-identical parameters
        from rtune.data import make_windows
        from rtune.tuner import TuneConfig
        series = np.sin(2 * np.pi * np.arange(60.0) / 16.0)
        data = make_windows(series, 8, 4)
        frozen = init_forecaster(8, 4, 6, seed=0)
        cfg = TuneConfig(replay_n=4, epochs=4, batch_size=8, seed=0,
                         validation_fraction=0.2)
        m1, r1 = r_tune(frozen, data, cfg)
        m2, r2 = r_tune(frozen, data, cfg)
        assert np.array_equal(m1.theta, m2.theta)
        assert json.dumps(r1.to_dict(), sort_keys=True) == json.dumps(
            r2.to_dict(), sort_keys=True)

        # CLI level: byte-identical files
        config = dict(benchmark=True, input_width=16, horizon=4, hidden_width=8,
                      benchmark_old_length=800, benchmark_new_length=1200,
                      pretrain_epochs=3, epochs=2, replay_n=8, seeds=[0],
                      method="r-tuning", output_dir=str(tmp_path / "runs"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert cli_main(["tune", "--config", str(cfg_path)]) == 0
        report_path = next((tmp_path / "runs").rglob("report.json"))
        ckpt_path = report_path.parent / "model.ckpt"
        first = (report_path.read_bytes(), ckpt_path.read_bytes())
        assert cli_main(["tune", "--config", str(cfg_path)]) == 0
        assert (report_path.read_bytes(), ckpt_path.read_bytes()) == first


def test_criterion_9_ablation_ordering(arm_reports):
    with criterion(9, "ablation arms keep the monotone retention ordering"):
        chain = ("ft", "lwf", "replay-only", "r-tuning")
        for metric in ("mae", "mse"):
            means = [seed_mean(arm_reports, m, metric) for m in chain]
            for worse, better in zip(means, means[1:]):
                assert worse >= better, (metric, means)

        # soft criterion: the per-seed chain may break in at most one seed
        for metric in ("mae", "mse"):
            holds = 0
            for s in SEEDS:
                vals = [getattr(arm_reports[s][m].old_metrics, metric)
                        for m in chain]
                holds += all(a >= b for a, b in zip(vals, vals[1:]))
            assert holds >= 4, f"old {metric} chain holds only {holds}/5 seeds"


def test_desk_table_pinned(arm_reports):
    # every number of the table within rounding of the committed file, on
    # any BLAS kernel, and every selected epoch exactly; a change that means
    # to move the table rewrites the file (run this module as a script)
    got, pinned = desk_table(arm_reports), json.loads(DESK_TABLE.read_text())
    assert {seed: list(arms) for seed, arms in got.items()} == {
        seed: list(arms) for seed, arms in pinned.items()}
    for seed, arms in pinned.items():
        for method, want in arms.items():
            have = got[seed][method]
            assert have["selected_epoch"] == want["selected_epoch"], (
                seed, method)
            for key in ("old_mae", "old_mse", "new_mae", "new_mse"):
                assert float(have[key]) == pytest.approx(
                    float(want[key]), rel=1e-12, abs=0), (seed, method, key)


if __name__ == "__main__":  # PYTHONPATH=src python tests/test_acceptance.py
    DESK_TABLE.write_text(json.dumps(desk_table(desk_arm_reports(
        {seed: prepare_benchmark(seed) for seed in SEEDS})), indent=1) + "\n")
