import numpy as np
import pytest

from cryptodiv.data import Category, Dataset
from cryptodiv.experiments import PipelineConfig
from cryptodiv.indicators import augment_corpus, bollinger, ema, rsi, sma

from conftest import assert_close


# ---------------------------------------------------------------------------
# naive direct-definition oracles
# ---------------------------------------------------------------------------

def sma_naive(x, n):
    out = np.full(len(x), np.nan)
    for t in range(n - 1, len(x)):
        out[t] = sum(x[t - n + 1:t + 1]) / n
    return out


def ema_naive(x, n):
    out = np.full(len(x), np.nan)
    if len(x) < n:
        return out
    alpha = 2.0 / (n + 1.0)
    level = sum(x[:n]) / n
    out[n - 1] = level
    for t in range(n, len(x)):
        level = alpha * x[t] + (1 - alpha) * level
        out[t] = level
    return out


def rsi_naive(x, n):
    out = np.full(len(x), np.nan)
    if len(x) <= n:
        return out
    gains = [max(x[t] - x[t - 1], 0.0) for t in range(1, len(x))]
    losses = [max(x[t - 1] - x[t], 0.0) for t in range(1, len(x))]
    avg_gain = sum(gains[:n]) / n
    avg_loss = sum(losses[:n]) / n

    def value(g, l):
        if l == 0.0:
            return 100.0 if g > 0 else 50.0
        return 100.0 - 100.0 / (1.0 + g / l)

    out[n] = value(avg_gain, avg_loss)
    for t in range(n, len(gains)):
        avg_gain = (avg_gain * (n - 1) + gains[t]) / n
        avg_loss = (avg_loss * (n - 1) + losses[t]) / n
        out[t + 1] = value(avg_gain, avg_loss)
    return out


def bollinger_naive(x, n, k):
    mid = np.full(len(x), np.nan)
    upper = np.full(len(x), np.nan)
    lower = np.full(len(x), np.nan)
    for t in range(n - 1, len(x)):
        window = x[t - n + 1:t + 1]
        mu = sum(window) / n
        sd = (sum((v - mu) ** 2 for v in window) / n) ** 0.5
        mid[t], upper[t], lower[t] = mu, mu + k * sd, mu - k * sd
    return mid, upper, lower


# ---------------------------------------------------------------------------
# oracle agreement on random series
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("trial", range(10))
def test_indicators_match_oracles(trial):
    rng = np.random.default_rng(trial)
    n = int(rng.integers(30, 120))
    x = rng.normal(loc=50, scale=10, size=n)
    for window in (2, 5, 14):
        assert_close(sma(x, window), sma_naive(x, window), tol=1e-9)
        assert_close(ema(x, window), ema_naive(x, window), tol=1e-9)
        assert_close(rsi(x, window), rsi_naive(x, window), tol=1e-9)
        mid, up, lo = bollinger(x, max(window, 2), 2.0)
        nmid, nup, nlo = bollinger_naive(x, max(window, 2), 2.0)
        assert_close(mid, nmid, tol=1e-9)
        assert_close(up, nup, tol=1e-9)
        assert_close(lo, nlo, tol=1e-9)


# ---------------------------------------------------------------------------
# closed-form examples
# ---------------------------------------------------------------------------

def test_sma_hand_arithmetic():
    assert_close(sma(np.array([1.0, 2, 3, 4]), 2), [np.nan, 1.5, 2.5, 3.5])


def test_sma_constant_and_identity():
    assert_close(sma(np.full(10, 3.25), 4)[3:], np.full(7, 3.25), tol=1e-12)
    x = np.arange(5.0)
    assert np.array_equal(sma(x, 1), x)


def test_ema_window_one_is_identity():
    x = np.array([4.0, 1.0, 7.0])
    assert np.array_equal(ema(x, 1), x)


def test_ema_constant():
    assert_close(ema(np.full(8, 2.5), 3)[2:], np.full(6, 2.5), tol=1e-12)


def test_ema_recurrence_unrolled():
    # n=2: alpha=2/3, seed (1+2)/2=1.5, then 2/3*3+1/3*1.5=2.5, 2/3*4+1/3*2.5=3.5
    out = ema(np.array([1.0, 2, 3, 4]), 2)
    assert_close(out, [np.nan, 1.5, 2.5, 3.5])


def test_rsi_extremes():
    up = np.arange(1.0, 40.0)
    down = up[::-1].copy()
    assert np.all(rsi(up, 14)[14:] == 100.0)
    assert np.all(rsi(down, 14)[14:] == 0.0)


def test_rsi_flat_series_is_50():
    assert np.all(rsi(np.full(30, 5.0), 14)[14:] == 50.0)


def test_rsi_bounds():
    rng = np.random.default_rng(3)
    values = rsi(rng.normal(size=200).cumsum() + 100, 14)
    valid = values[~np.isnan(values)]
    assert np.all((valid >= 0) & (valid <= 100))


def test_bollinger_zero_variance():
    mid, up, lo = bollinger(np.full(10, 7.0), 5, 2.0)
    assert_close(mid[4:], up[4:], tol=1e-12)
    assert_close(mid[4:], lo[4:], tol=1e-12)


def test_bollinger_k_zero():
    x = np.random.default_rng(0).normal(size=30)
    mid, up, lo = bollinger(x, 5, 1e-300)  # k must stay positive; effectively zero
    assert_close(up, mid, tol=1e-12)
    assert_close(lo, mid, tol=1e-12)


def test_bollinger_alternating_closed_form():
    x = np.array([0.0, 2.0] * 5)
    mid, up, lo = bollinger(x, 2, 2.0)
    # every window is {0,2}: mean 1, population stddev 1, bands 1 +- 2
    assert_close(mid[1:], np.ones(9), tol=1e-12)
    assert_close(up[1:], np.full(9, 3.0), tol=1e-12)
    assert_close(lo[1:], np.full(9, -1.0), tol=1e-12)


def test_bollinger_band_ordering():
    rng = np.random.default_rng(5)
    x = rng.normal(size=100)
    mid, up, lo = bollinger(x, 20, 2.0)
    ok = ~np.isnan(mid)
    assert np.all(up[ok] >= mid[ok]) and np.all(mid[ok] >= lo[ok])


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

def test_sma_shift_equivariance():
    rng = np.random.default_rng(11)
    x = rng.normal(size=80)
    n = 7
    shifted = sma(x[5:], n)
    full = sma(x, n)
    assert_close(shifted[n - 1:], full[5 + n - 1:], tol=1e-9)


def test_ema_shift_equivariance_far_from_seed():
    # the SMA seed decays geometrically, so equivariance holds away from it
    rng = np.random.default_rng(12)
    x = rng.normal(size=200)
    n = 5
    shifted = ema(x[3:], n)
    full = ema(x, n)
    assert_close(shifted[-50:], full[-50:], tol=1e-6)


def test_sma_ema_linearity():
    rng = np.random.default_rng(13)
    x = rng.normal(size=60)
    a, b = 2.5, -1.25
    for op in (lambda v: sma(v, 6), lambda v: ema(v, 6)):
        assert_close(op(a * x + b), a * op(x) + b, tol=1e-9)


def test_ema_converges_geometrically():
    n = 5
    alpha = 2.0 / (n + 1.0)
    x = np.concatenate([np.full(n, 10.0), np.full(60, 4.0)])
    out = ema(x, n)
    errors = np.abs(out[n:] - 4.0)[:20]  # later steps lose precision to cancellation
    ratios = errors[1:] / errors[:-1]
    assert_close(ratios, np.full(len(ratios), 1 - alpha), tol=1e-9)


# ---------------------------------------------------------------------------
# the battery and window checks
# ---------------------------------------------------------------------------

def _corpus(day, n, close):
    volume = np.linspace(1.0, 2.0, n)
    return Dataset(tuple(day(i) for i in range(n)), {"close-price": close, "volume": volume},
                   {"close-price": Category.MARKET, "volume": Category.MARKET})


def test_apply_spec_names(day):
    n = 40
    close = np.arange(n, dtype=float) % 7 + 1.0
    close[:3] = np.nan   # history begins on day 3
    corpus = _corpus(day, n, close)
    out = augment_corpus(corpus, ["close-price", "volume"], [5, 20])
    added = set(out.feature_names) - set(corpus.feature_names)
    assert added == {f"{kind}{w}_{src}" for kind in ("SMA", "EMA") for w in (5, 20)
                     for src in ("close-price", "volume")}
    assert {out.categories[name] for name in added} == {Category.TECHNICAL}
    for name, indicator, window in (("SMA5_close-price", sma, 5), ("EMA20_close-price", ema, 20)):
        col = out.features[name]
        assert np.isnan(col[:3]).all()
        assert np.array_equal(col[3:], indicator(close[3:], window), equal_nan=True)
    with pytest.raises(ValueError, match="'SMA5_volume' collides"):
        augment_corpus(out, ["volume"], [5])


def test_default_battery_contents(day):
    n = 250
    corpus = _corpus(day, n, np.arange(n, dtype=float) % 7 + 1.0)
    pipeline = PipelineConfig()
    out = augment_corpus(corpus, pipeline.indicator_sources, pipeline.indicator_windows)
    added = set(out.feature_names) - set(corpus.feature_names)
    assert "SMA100_close-price" in added
    assert "EMA200_volume" in added
    # market-cap is not in the corpus, so it adds nothing
    assert not any(name.endswith("_market-cap") for name in added)
    assert len(added) == 2 * 7 * 2   # two kinds, seven windows, two present sources


@pytest.mark.parametrize("indicator, window", [(sma, 0), (ema, 0), (rsi, 0), (bollinger, 1)],
                         ids=["sma", "ema", "rsi", "bollinger"])
def test_indicator_window_validation(indicator, window):
    with pytest.raises(ValueError, match=f"window must be >= {window + 1}, got {window}"):
        indicator(np.arange(10.0), window)
