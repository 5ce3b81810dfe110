"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The end-to-end determinism criterion builds a 300-column x 2000-day corpus
and runs the full CLI twice, so the module takes several minutes in total.
"""

import json
import math
import time
from contextlib import contextmanager
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from cryptodiv.cli import main
from cryptodiv.data import Scenario
from cryptodiv.experiments import PipelineConfig, ShapleySettings, run_scenario
from cryptodiv.fra import FraConfig, fra_reduce
from cryptodiv.importance import mdi, pfi, shapley_exact, shapley_sampled
from cryptodiv.index import IndexParams, McapSnapshot, calibrate_power, crypto100, index_value
from cryptodiv.indicators import bollinger, ema, rsi, sma
from cryptodiv.models import (EnsembleParams, ModelKind, fit_forest, fit_gbt, fit_model,
                              grid_search_cv, mse)
from cryptodiv.seeding import substream

from synthetic import diversity_corpus, write_corpus, write_run_config
from test_fra import planted_config, planted_dataset
from test_indicators import bollinger_naive, ema_naive, rsi_naive, sma_naive


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({description}): FAIL")
        raise
    elapsed = time.time() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s")
    print(f"ACCEPTANCE {number} ({description}): PASS [{elapsed:.1f}s]")


def test_criterion_1_index_correctness():
    with criterion(1, "index correctness", 1.0):
        caps = {f"A{i}": 1e10 / 100 for i in range(100)}
        value = crypto100(McapSnapshot(date(2020, 1, 1), caps), IndexParams(100, 7))
        assert value == pytest.approx(1000.0, rel=1e-9)

        oracle = 1e12 / 12.0 ** 7  # independent arithmetic: log10(1e12) = 12
        assert index_value(1e12, 7) == pytest.approx(oracle, rel=1e-12)

        grid = np.logspace(8, 13, 100)
        values = [index_value(s, 7) for s in grid]
        assert all(b > a for a, b in zip(values, values[1:]))


def test_criterion_2_power_calibration():
    with criterion(2, "power calibration", 10.0):
        recovered = 0
        trials = 0
        start = date(2021, 1, 1)
        for planted in (5, 6, 7, 8, 9):
            for trial in range(5):
                rng = np.random.default_rng(1000 * planted + trial)
                sums = {start + timedelta(days=i): float(10 ** rng.uniform(9, 12))
                        for i in range(45)}
                reference = {d: s / math.log10(s) ** planted for d, s in sums.items()}
                result = calibrate_power(sums, reference, (5, 6, 7, 8, 9))
                trials += 1
                recovered += result.power == planted
        assert trials == 25 and recovered == 25


def test_criterion_3_indicator_oracles():
    with criterion(3, "indicator oracles", 5.0):
        for trial in range(50):
            rng = np.random.default_rng(trial)
            n = int(rng.integers(40, 150))
            x = rng.normal(loc=100, scale=15, size=n)
            window = int(rng.integers(2, 21))
            assert np.allclose(sma(x, window), sma_naive(x, window),
                               atol=1e-9, equal_nan=True)
            assert np.allclose(ema(x, window), ema_naive(x, window),
                               atol=1e-9, equal_nan=True)
            assert np.allclose(rsi(x, window), rsi_naive(x, window),
                               atol=1e-9, equal_nan=True)
            for got, want in zip(bollinger(x, window, 2.0),
                                 bollinger_naive(x, window, 2.0)):
                assert np.allclose(got, want, atol=1e-9, equal_nan=True)

        # exact extreme cases
        x = np.arange(1.0, 30.0)
        assert np.array_equal(ema(x, 1), x)
        assert np.all(rsi(x, 14)[14:] == 100.0)
        assert np.all(rsi(x[::-1].copy(), 14)[14:] == 0.0)
        mid, up, lo = bollinger(np.full(25, 3.0), 10, 2.0)
        assert np.array_equal(mid[9:], up[9:]) and np.array_equal(mid[9:], lo[9:])


def test_criterion_4_model_sanity():
    with criterion(4, "model sanity", 60.0):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(150, 4))
        y = rng.normal(size=150)
        memorizer = fit_forest(X, y, EnsembleParams(n_estimators=1, max_depth=150,
                                                    bootstrap=False), seed=0)
        assert np.allclose(memorizer.predict(X), y, atol=1e-12)

        X1 = np.linspace(0, 4, 300).reshape(-1, 1)
        y1 = np.sin(2 * X1[:, 0]) + 0.05 * rng.normal(size=300)
        gbt = fit_gbt(X1, y1, EnsembleParams(kind=ModelKind.GRADIENT_BOOST,
                                             n_estimators=200, max_depth=3,
                                             learning_rate=0.1, bootstrap=False), seed=1)
        assert len(gbt.training_mse) == 200
        assert all(a >= b for a, b in zip(gbt.training_mse, gbt.training_mse[1:]))

        Xg = rng.normal(size=(200, 4))
        yg = Xg[:, 0] - 0.5 * Xg[:, 1] + rng.normal(scale=0.3, size=200)
        grid = [
            EnsembleParams(n_estimators=5, max_depth=2),
            EnsembleParams(n_estimators=5, max_depth=6),
            EnsembleParams(kind=ModelKind.GRADIENT_BOOST, n_estimators=10, max_depth=2,
                           learning_rate=0.1, bootstrap=False),
            EnsembleParams(n_estimators=2, max_depth=4, features_per_split=0.5),
        ]
        k, seed = 5, 42
        result = grid_search_cv(Xg, yg, grid, k=k, seed=seed)
        n = len(yg)
        bounds = [round(i * n / k) for i in range(k + 1)]
        oracle_means = []
        for ci, params in enumerate(grid):
            scores = []
            for fi in range(k):
                lo, hi = bounds[fi], bounds[fi + 1]
                train = [r for r in range(n) if r < lo or r >= hi]
                fit_seed = int(substream(seed, "cv", ci, fi).integers(0, 2 ** 63 - 1))
                model = fit_model(Xg[train], yg[train], params, fit_seed)
                pred = model.predict(Xg[lo:hi])
                scores.append(float(np.mean((yg[lo:hi] - pred) ** 2)))
            oracle_means.append(float(np.mean(scores)))
        assert result.mean_mses == oracle_means  # exact agreement
        assert result.best_index == int(np.argmin(oracle_means))


def test_criterion_5_importance_axioms():
    with criterion(5, "importance axioms", 120.0):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(250, 6))
        y = X[:, 0] + 2 * np.abs(X[:, 1]) - X[:, 2] + rng.normal(scale=0.1, size=250)
        model = fit_forest(X, y, EnsembleParams(n_estimators=12, max_depth=5), seed=2)

        report = mdi(model)
        assert sum(report.scores.values()) == pytest.approx(1.0, abs=1e-9)

        # a model that provably never reads features 1 and 2
        Xs = rng.normal(size=(300, 3))
        Xs[:, 0] = np.where(Xs[:, 0] > 0, Xs[:, 0] + 4, Xs[:, 0] - 4)
        ys = (Xs[:, 0] > 0).astype(float)
        step = fit_forest(Xs, ys, EnsembleParams(n_estimators=5, max_depth=5), seed=0)
        tree_blocks = np.split(step.nodes.feature, step.nodes.roots[1:])
        assert all(set(block[block >= 0].tolist()) <= {0} for block in tree_blocks)
        pfi_report = pfi(step, Xs, ys, repeats=3, seed=1)
        assert pfi_report.scores["f1"] == 0.0 and pfi_report.scores["f2"] == 0.0

        X_bg, X_ex = X[:40], X[60:66]
        exact = shapley_exact(model, X_bg, X_ex)
        totals = exact.attributions.sum(axis=1)
        assert np.allclose(totals, model.predict(X_ex) - exact.base_value, atol=1e-9)

        # null player: a feature the model never splits on attributes exactly 0
        null_exact = shapley_exact(step, Xs[:30], Xs[40:46])
        assert np.all(null_exact.attributions[:, 1] == 0.0)
        assert np.all(null_exact.attributions[:, 2] == 0.0)

        sampled = shapley_sampled(model, X_bg, X_ex, n_permutations=2000, seed=5)
        bound = 3.0 * sampled.stderr + 1e-12
        assert np.all(np.abs(sampled.attributions - exact.attributions) <= bound)


def test_criterion_6_fra_planted_relevance():
    with criterion(6, "feature reduction planted relevance", 300.0):
        successes = 0
        for seed in range(20):
            ds = planted_dataset(seed)
            out = fra_reduce(ds, planted_config(), seed)
            assert len(out.iterations) <= 200
            assert not out.forced_stop
            removed = out.removed
            assert len(removed) == len(set(removed))
            assert set(removed) | set(out.survivors) == set(ds.feature_names)
            assert set(removed) & set(out.survivors) == set()
            informative = sum(1 for f in out.survivors if f.startswith("signal"))
            successes += informative >= 7
        assert successes >= 18  # >= 90% of 20 seeds


def test_criterion_7_diversity_improvement():
    with criterion(7, "diversity improvement", 600.0):
        assert (2.0 - 1.0) / 1.0 * 100.0 == 100.0  # MSE ratio 2 -> 100%

        config_template = dict(
            target_metric="idx",
            indicator_sources=(),
            holdout_fraction=0.2,
            shapley=ShapleySettings(n_permutations=10, background_rows=20, explain_rows=8),
        )
        fra = FraConfig(
            target_count=10, top_k_union=10,
            rf_params=EnsembleParams(n_estimators=40, max_depth=8, features_per_split=1 / 3),
            gbt_params=EnsembleParams(kind=ModelKind.GRADIENT_BOOST, n_estimators=25,
                                      max_depth=3, learning_rate=0.1, bootstrap=False),
            pfi_repeats=1)
        wins = 0
        for seed in range(20):
            corpus = diversity_corpus(seed=seed, n_days=600)
            config = PipelineConfig(fra=fra, seed=seed, **config_template)
            result = run_scenario(corpus, Scenario(date(2019, 1, 1), 7), config)
            diverse = result.improvement.mse_diverse
            ok = all(diverse < m for m in result.improvement.mse_by_category.values())
            ok = ok and all(v > 0 for v in result.improvement.improvement_by_category.values())
            wins += ok
        assert wins >= 19  # >= 95% of 20 seeds


BIG_RUN = {}


def test_criterion_8_end_to_end_determinism(tmp_path_factory):
    with criterion(8, "end-to-end determinism", 600.0):
        tmp = tmp_path_factory.mktemp("e2e")
        manifest = write_corpus(tmp / "corpus", seed=0, n_days=2000,
                                start=date(2016, 9, 1), late_start_count=64)
        config = write_run_config(tmp / "config.json", manifest, tmp / "out_a", seed=7,
                                  windows=(1, 7, 30, 90, 180))
        assert main(["run", "--config", str(config)]) == 0
        assert main(["run", "--config", str(config), "--out", str(tmp / "out_b")]) == 0

        def tree(root: Path):
            return {str(p.relative_to(root)): p.read_bytes()
                    for p in sorted(root.rglob("*")) if p.is_file()}

        a, b = tree(tmp / "out_a"), tree(tmp / "out_b")
        assert a.keys() == b.keys()
        assert all(a[k] == b[k] for k in a)
        assert len([k for k in a if k.startswith("scenarios/")]) == 10
        BIG_RUN["out"] = tmp / "out_a"


def test_criterion_9_schema_reproduction():
    with criterion(9, "table schema reproduction", 30.0):
        out = BIG_RUN.get("out")
        assert out is not None, "criterion 8 must run first"

        fv = (out / "tables" / "feature_vectors.csv").read_text().splitlines()
        assert fv[0] == "scenario,n_features"
        labels = [line.split(",")[0] for line in fv[1:]]
        assert labels == [f"{y}_{w}" for y in (2017, 2019) for w in (1, 7, 30, 90, 180)]
        assert all(int(line.split(",")[1]) > 0 for line in fv[1:])

        top = (out / "tables" / "top_features.csv").read_text().splitlines()
        assert top[0] == "set,horizon,rank,feature,importance"
        rows = [line.split(",") for line in top[1:]]
        combos = {(r[0], r[1]) for r in rows}
        assert combos == {(s, h) for s in ("2017", "2019")
                          for h in ("short_term", "long_term")}
        for combo in combos:
            ranks = [int(r[2]) for r in rows if (r[0], r[1]) == combo]
            assert ranks == [1, 2, 3, 4, 5]

        unique = (out / "tables" / "unique_features.csv").read_text().splitlines()
        assert unique[0] == "set,horizon,rank,feature,importance"
        urows = [line.split(",") for line in unique[1:]]
        for combo in {(r[0], r[1]) for r in urows}:
            ranks = [int(r[2]) for r in urows if (r[0], r[1]) == combo]
            assert ranks == list(range(1, len(ranks) + 1))
            assert len(ranks) <= 20

        by_window = (out / "tables" / "improvement_by_window.csv").read_text().splitlines()
        assert by_window[0] == "window,2017,2019"
        assert [line.split(",")[0] for line in by_window[1:]] == ["1", "7", "30", "90", "180"]

        by_cat = (out / "tables" / "improvement_by_category.csv").read_text().splitlines()
        assert by_cat[0] == "category,2017,2019"
        cells = {line.split(",")[0]: line.split(",")[1:] for line in by_cat[1:]}
        usdc = cells["On-chain Metrics (USDC)"]
        assert usdc[0] == "-"      # no USDC candidates existed in the 2017-style set
        assert usdc[1] != "-"      # but the 2019-style set has them
        for label, (c2017, c2019) in cells.items():
            if label != "On-chain Metrics (USDC)":
                assert c2017 != "-" and c2019 != "-"
