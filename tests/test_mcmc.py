import math
import tracemalloc

import numpy as np
import pytest

from adjointgp import (
    ChainConfig,
    ChainResult,
    GaussianTarget,
    NumericalError,
    chain_diagnostics,
    chain_to_csv,
    gaussian_log_target,
    posterior_q,
    rw_mh,
    tune_proposal_scale,
)
from adjointgp.mcmc import (
    CSV_CHUNK_ROWS,
    MOMENT_CHUNK_ROWS,
    _draw_indices,
)
from oracles import (chain_to_csv_every_value, dense_chain, filled_trace_text, read_trace,
                     rw_mh_full_target, tune_through_rw_mh)


def _std_normal_target(dim):
    return gaussian_log_target(np.zeros((0, dim)), np.zeros(0), 1.0)


# ---------------------------------------------------------------------------
# configuration


def test_chain_config_validation():
    ChainConfig(steps=10, burn_in=0, proposal_scale=0.5)
    with pytest.raises(ValueError):
        ChainConfig(steps=0)
    with pytest.raises(ValueError):
        ChainConfig(steps=10, burn_in=10)
    with pytest.raises(ValueError):
        ChainConfig(steps=10, proposal_scale=0.0)
    with pytest.raises(ValueError):
        ChainConfig(steps=10, batch_size=0)


# ---------------------------------------------------------------------------
# sampler correctness


def test_rw_mh_samples_standard_normal():
    cfg = ChainConfig(steps=50000, burn_in=2000, proposal_scale=2.4, seed=0)
    result = rw_mh(_std_normal_target(1), np.zeros(1), cfg)
    kept = dense_chain(result, cfg.burn_in)[:, 0]
    ess = chain_diagnostics(kept).ess
    se = kept.std(ddof=1) / math.sqrt(ess[0])
    assert abs(kept.mean()) < 3 * se
    np.testing.assert_allclose(kept.var(ddof=1), 1.0, rtol=0.10)


def test_rw_mh_matches_conjugate_posterior():
    rng = np.random.default_rng(42)
    design = rng.standard_normal((20, 3))
    z = rng.standard_normal(20)
    sigma = 0.5
    exact = posterior_q(design, z, sigma=sigma)
    target = gaussian_log_target(design, z, sigma)
    scale = tune_proposal_scale(target, exact.mean, seed=1)
    cfg = ChainConfig(steps=60000, burn_in=5000, proposal_scale=scale, seed=2)
    result = rw_mh(target, exact.mean, cfg)
    kept = dense_chain(result, cfg.burn_in)
    ess = chain_diagnostics(kept).ess
    sd = kept.std(axis=0, ddof=1)
    se = sd / np.sqrt(ess)
    assert (np.abs(kept.mean(axis=0) - exact.mean) < 3 * se).all()
    np.testing.assert_allclose(sd, np.sqrt(np.diag(exact.cov)), rtol=0.10)


def test_rw_mh_is_reproducible():
    cfg = ChainConfig(steps=200, proposal_scale=1.0, seed=7)
    a = rw_mh(_std_normal_target(2), np.zeros(2), cfg)
    b = rw_mh(_std_normal_target(2), np.zeros(2), cfg)
    assert (dense_chain(a) == dense_chain(b)).all()
    assert (a.accepted_flags == b.accepted_flags).all()


def test_tiny_proposal_accepts_almost_everything():
    cfg = ChainConfig(steps=2000, proposal_scale=1e-6, seed=3)
    result = rw_mh(_std_normal_target(2), np.zeros(2), cfg)
    assert result.acceptance_rate > 0.99


def test_rw_mh_aborts_when_nothing_is_accepted():
    # posterior sd about 1e-3 against proposals of 1e3
    tight = gaussian_log_target(np.eye(2), np.zeros(2), 1e-3)
    cfg = ChainConfig(steps=5000, proposal_scale=1e3, seed=4)
    with pytest.raises(NumericalError, match="no proposals accepted"):
        rw_mh(tight, np.zeros(2), cfg)


def test_rw_mh_rejects_bad_start():
    cfg = ChainConfig(steps=10, proposal_scale=1.0)
    with pytest.raises(ValueError, match="start"):
        rw_mh(_std_normal_target(2), np.array([np.inf, 0.0]), cfg)
    with pytest.raises(ValueError, match="start"):
        rw_mh(_std_normal_target(2), np.zeros(3), cfg)


def test_rw_mh_takes_only_gaussian_targets():
    cfg = ChainConfig(steps=10, proposal_scale=1.0)
    with pytest.raises(TypeError):
        rw_mh(lambda q: -0.5 * float(q @ q), np.zeros(2), cfg)


@pytest.mark.parametrize("steps", [2000, 9000])  # one block; three blocks
def test_rw_mh_matches_full_target_reference(steps):
    rng = np.random.default_rng(31)
    design = rng.standard_normal((20, 12))
    z = rng.standard_normal(20)
    target = gaussian_log_target(design, z, 0.5)
    start = np.full(12, -0.0)  # each coordinate stays -0.0 until it moves
    cfg = ChainConfig(steps=steps, proposal_scale=0.05, seed=32)
    result = rw_mh(target, start, cfg)
    chain, flags = rw_mh_full_target(target, start, cfg)
    assert 0.1 < result.acceptance_rate < 0.9
    np.testing.assert_array_equal(result.accepted_flags, flags)
    assert (dense_chain(result).view(np.int64) == chain.view(np.int64)).all()
    np.testing.assert_array_equal(result.log_targets[np.cumsum(flags)],
                                  [target(q) for q in chain])
    assert result.drift < 1e-9


@pytest.mark.parametrize("dim,batch", [(12, 5), (12, 12), (7, 1)])
def test_index_draws_are_distinct_and_uniform(dim, batch):
    draws = 20000
    idx = _draw_indices(np.random.default_rng(33), dim, batch, draws)
    assert idx.shape == (draws, batch)
    assert ((idx >= 0) & (idx < dim)).all()
    assert (np.diff(np.sort(idx, axis=1), axis=1) > 0).all()
    freq = np.bincount(idx.ravel(), minlength=dim) / draws
    np.testing.assert_allclose(freq, batch / dim, atol=0.02)


def test_gaussian_log_target_value_and_validation():
    design = np.array([[1.0, 0.0], [0.0, 2.0]])
    z = np.array([1.0, 1.0])
    target = gaussian_log_target(design, z, 0.5)
    q = np.array([0.5, 0.25])
    resid = z - design @ q
    expected = -resid @ resid / (2 * 0.25) - 0.5 * q @ q
    np.testing.assert_allclose(target(q), expected, rtol=1e-14)
    np.testing.assert_allclose(target.P, design.T @ design / 0.25 + np.eye(2), rtol=1e-14)
    np.testing.assert_allclose(target(q) - target(np.zeros(2)),
                               -0.5 * q @ target.P @ q + target.b @ q, rtol=1e-12)
    with pytest.raises(ValueError):
        gaussian_log_target(design, z, 0.0)
    with pytest.raises(ValueError):
        gaussian_log_target(design, z[:1], 0.5)


# ---------------------------------------------------------------------------
# tuning


def test_tuned_scale_lands_in_acceptance_band():
    scale = tune_proposal_scale(_std_normal_target(3), np.zeros(3), seed=5)
    cfg = ChainConfig(steps=4000, proposal_scale=scale, seed=6)
    rate = rw_mh(_std_normal_target(3), np.zeros(3), cfg).acceptance_rate
    assert 0.20 <= rate <= 0.45


def test_tune_rejects_a_positional_batch_size():
    with pytest.raises(TypeError):
        tune_proposal_scale(_std_normal_target(3), np.zeros(3), 3)


def test_batch_wider_than_the_target_is_clamped_in_sampler_and_tuner():
    target, start = _std_normal_target(3), np.zeros(3)
    assert ChainConfig(steps=10).batch_size == 5
    wide = rw_mh(target, start, ChainConfig(steps=300, proposal_scale=1.0, seed=4))
    full = rw_mh(target, start, ChainConfig(steps=300, proposal_scale=1.0, seed=4, batch_size=3))
    np.testing.assert_array_equal(dense_chain(wide), dense_chain(full))
    # the first probe's scale follows the clamped batch, as the probes do
    assert (tune_proposal_scale(target, start, seed=5, batch_size=5)
            == tune_proposal_scale(target, start, seed=5, batch_size=3))


@pytest.mark.parametrize("rows,dim,batch", [(20, 12, 5), (0, 2, 1)])  # shrinks; grows
def test_tune_evaluates_the_target_only_to_check_each_probe_start(monkeypatch, rows, dim, batch):
    rng = np.random.default_rng(34)
    target = gaussian_log_target(rng.standard_normal((rows, dim)), rng.standard_normal(rows), 0.5)
    start = np.zeros(dim)
    scale, probes = tune_through_rw_mh(target, start, seed=5, batch_size=batch)
    assert probes > 1
    calls = []
    call = GaussianTarget.__call__
    monkeypatch.setattr(GaussianTarget, "__call__",
                        lambda self, q: calls.append(np.shape(q)) or call(self, q))
    assert tune_proposal_scale(target, start, seed=5, batch_size=batch).hex() == scale.hex()
    assert calls == [(dim,)] * probes


# ---------------------------------------------------------------------------
# diagnostics


def _dense_rhat(draws):
    """Split R-hat of (N, dim) draws by its definition."""
    half = len(draws) // 2
    halves = np.stack([draws[:half], draws[half:2 * half]])
    within = halves.var(axis=1, ddof=1).mean(axis=0)
    between = half * halves.mean(axis=1).var(axis=0, ddof=1)
    return np.sqrt(((half - 1) / half * within + between / half) / within)


def _dense_batch_means_ess(draws):
    """Batch-means ESS of (N, dim) draws by its definition."""
    n = len(draws)
    b = math.isqrt(n)
    used = draws[:b * (n // b)]
    batch_means = used.reshape(b, n // b, -1).mean(axis=1)
    return np.minimum(len(used) * used.var(axis=0, ddof=1)
                      / (n // b * batch_means.var(axis=0, ddof=1)), n)


# run lengths of held chains; with N draws, b = isqrt(N) batches of N // b
_CUTS = {
    # N = 22: the half split (11) inside batch [10, 15) and inside run [9, 12),
    # so draw 10 is a group of one; draws 20 and 21 are past the batches
    "split-in-run": [3, 2, 4, 3, 1, 2, 4, 3],
    # N = 22: the half split at a run end, again a group of one
    "split-at-run-end": [2, 3, 6, 1, 1, 4, 5],
    # N = 17: the last draw is past both halves, in a row of its own
    "odd-tail-row": [3, 5, 2, 6, 1],
    # N = 23: the half split one draw past a batch edge, inside a run
    "odd-split-in-run": [4, 5, 4, 2, 7, 1],
}


@pytest.mark.parametrize("holds", [*_CUTS.values(), "long"], ids=[*_CUTS, "long"])
def test_grouped_statistics_equal_their_dense_definitions(holds):
    rng = np.random.default_rng(35)
    if holds == "long":  # several MOMENT_CHUNK_ROWS of runs
        holds = rng.integers(1, 5, size=3 * MOMENT_CHUNK_ROWS + 7)
    holds = np.asarray(holds)
    ends = np.cumsum(holds)
    n, half = int(ends[-1]), int(ends[-1]) // 2
    b = math.isqrt(n)
    used = b * (n // b)
    assert b * b != n and used < n
    moving = rng.standard_normal((holds.size, 3)) * 3.0 + [0.0, 1e3, -5.0]
    # a coordinate that never moves; where the half split falls at a run end,
    # one constant on each half but apart; where the last draw sits past both
    # halves in a row of its own, one that moves only there
    still = np.full(holds.size, 0.1)
    apart = [np.where(ends <= half, 0.0, 1.0)] if half in ends else []
    tail = [np.where(ends < n, 2.0, 3.0)] if ends[-2] == 2 * half < n else []
    states = np.column_stack([moving, still, *apart, *tail])
    dense = np.repeat(states, holds, axis=0)

    flags = np.zeros(n, dtype=bool)
    flags[ends[:-1]] = True
    result = ChainResult(ChainConfig(steps=n), states, np.zeros(holds.size), flags)
    diag = chain_diagnostics(*result.runs())
    np.testing.assert_allclose(diag.mean, dense.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(diag.var, dense.var(axis=0, ddof=1), rtol=1e-12, atol=1e-20)
    live = [0, 1, 2] + [4] * len(apart)
    np.testing.assert_allclose(diag.ess[live], _dense_batch_means_ess(dense[:, live]), rtol=1e-12)
    assert diag.degenerate.tolist() == [False] * 3 + [True] + [False] * (len(apart) + len(tail))
    # the tail draw is past the batches too: their means agree, the chain moved
    assert diag.ess[3] == 0.0 and diag.ess[4 + len(apart):].tolist() == [float(used)] * len(tail)
    np.testing.assert_allclose(diag.rhat[:3], _dense_rhat(dense[:, :3]), rtol=1e-12)
    assert diag.rhat[3:].tolist() == [1.0] + [np.inf] * len(apart) + [1.0] * len(tail)
    assert diag.converged is False


def test_batch_means_ess_near_n_for_iid_draws():
    rng = np.random.default_rng(8)
    draws = rng.standard_normal((20000, 3))
    diag = chain_diagnostics(draws)
    assert not diag.degenerate.any()
    assert (diag.ess > 0.8 * 20000).all()
    assert (diag.ess <= 20000).all()


def test_batch_means_ess_flags_constant_chain():
    # 0.1 included: a mean of its copies is not 0.1, so a variance reads
    # rounding noise for a coordinate that never moved
    for value in (1.0, 0.1):
        draws = np.full((100, 2), value)
        diag = chain_diagnostics(draws)
        assert diag.degenerate.all()
        assert (diag.ess == 0.0).all()
        diag = chain_diagnostics(draws[:3], np.array([40, 1, 59]))
        assert diag.degenerate.all() and (diag.ess == 0.0).all()
    for held in ((np.zeros((3, 1)),), (np.zeros((2, 1)), np.array([1, 2]))):
        with pytest.raises(ValueError, match="at least 4 draws"):
            chain_diagnostics(*held)


def test_autocorrelated_chain_has_reduced_ess():
    rng = np.random.default_rng(9)
    n, rho = 40000, 0.95
    x = np.empty(n)
    x[0] = 0.0
    noise = rng.standard_normal(n)
    for t in range(1, n):
        x[t] = rho * x[t - 1] + noise[t]
    ess = chain_diagnostics(x).ess
    # AR(1) factor (1-rho)/(1+rho) ~ 1/39 of the nominal size
    assert ess[0] < 0.1 * n


def test_split_rhat_near_one_for_iid_draws():
    rng = np.random.default_rng(10)
    rhat = chain_diagnostics(rng.standard_normal((20000, 4))).rhat
    np.testing.assert_allclose(rhat, 1.0, atol=0.02)


def test_split_rhat_flags_two_regime_chain():
    rng = np.random.default_rng(11)
    drift = np.concatenate([np.zeros(5000), 5.0 * np.ones(5000)])
    draws = (drift + 0.1 * rng.standard_normal(10000))[:, None]
    assert chain_diagnostics(draws).rhat[0] > 2.0


def test_split_rhat_constant_coordinate_is_one():
    # 0.1 included: its half means are not 0.1, so the within-half variance
    # reads rounding noise for a coordinate that never moved
    for value in (1.0, 0.1):
        draws = np.column_stack([np.full(100, value), np.linspace(0, 1, 100)])
        assert chain_diagnostics(draws).rhat[0] == 1.0
        assert chain_diagnostics(draws[:3], np.array([47, 5, 48])).rhat[0] == 1.0


def test_split_rhat_is_infinite_for_halves_constant_apart():
    # each half never moves but the two sit at different values: no
    # within-half spread to compare with, so R-hat is unbounded, not 1
    draws = np.column_stack([np.repeat([0.0, 1.0], 500), np.linspace(0, 1, 1000)])
    for diag in (chain_diagnostics(draws),
                 chain_diagnostics(draws[[0, 500, 999]], np.array([500, 499, 1]))):
        assert diag.rhat[0] == np.inf and np.isfinite(diag.rhat[1])
        assert not diag.converged


def test_chain_moments_match_numpy_without_copying_the_chain():
    # chain lengths below, at and off a multiple of the chunk, one column
    # (which numpy sums pairwise) included: the mean and variance agree with
    # numpy's to rounding
    rng = np.random.default_rng(12)
    c = MOMENT_CHUNK_ROWS
    for n in (4, c - 1, c, c + 1, 3 * c, 5 * c + 17, 16000):
        for dim in (1, 2, 7, 100):
            draws = rng.standard_normal((n, dim)) * 3.0 + rng.standard_normal(dim) * 1e3
            diag = chain_diagnostics(draws)
            np.testing.assert_allclose(diag.mean, draws.mean(axis=0), rtol=1e-12, err_msg=(n, dim))
            np.testing.assert_allclose(diag.var, draws.var(axis=0, ddof=1), rtol=1e-12,
                                       err_msg=(n, dim))
    # a 16000 x 100 chain, the kept draws of the ode-bundle mcmc: the peak
    # stays well under the 12.8 MB that one chain-sized temporary would take
    draws = rng.standard_normal((16000, 100))
    tracemalloc.start()
    try:
        chain_diagnostics(draws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < draws.nbytes / 4


def _held_chain(seed, states, dim, longest):
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((states, dim)) * 3.0 + rng.standard_normal(dim) * 1e3
    holds = rng.integers(1, longest + 1, size=states)
    return draws, holds, np.repeat(draws, holds, axis=0)


@pytest.mark.parametrize("states,longest", [(40, 5), (700, 40), (3 * MOMENT_CHUNK_ROWS + 5, 9)])
def test_held_statistics_equal_the_dense_ones(states, longest):
    draws, holds, dense = _held_chain(states, states, 3, longest)
    n = dense.shape[0]
    ends = np.cumsum(holds)
    batch_len = n // math.isqrt(n)
    # some run crosses a batch edge, and one crosses the half split
    assert (ends // batch_len != (ends - holds) // batch_len).any()
    assert ((ends - holds < n // 2) & (ends > n // 2)).any()
    fields = ("mean", "var", "ess", "degenerate", "rhat")
    held, flat = chain_diagnostics(draws, holds), chain_diagnostics(dense)
    for name in fields:
        np.testing.assert_allclose(getattr(held, name), getattr(flat, name), rtol=1e-12)
    rows, ones = chain_diagnostics(draws), chain_diagnostics(draws, np.ones(states, dtype=int))
    for name in fields:
        np.testing.assert_array_equal(getattr(rows, name), getattr(ones, name))


def test_chain_diagnostics_read_the_held_states():
    cfg = ChainConfig(steps=6000, burn_in=700, proposal_scale=2.4, seed=13, batch_size=2)
    result = rw_mh(_std_normal_target(3), np.zeros(3), cfg)
    states, holds = result.runs(cfg.burn_in)
    kept = dense_chain(result, cfg.burn_in)
    np.testing.assert_array_equal(np.repeat(states, holds, axis=0), kept)
    held, dense = chain_diagnostics(states, holds), chain_diagnostics(kept)
    for name in ("ess", "rhat"):
        np.testing.assert_allclose(getattr(held, name), getattr(dense, name), rtol=1e-12)
    assert held.converged == dense.converged


def test_chain_diagnostics_verdicts():
    cfg = ChainConfig(steps=20000, burn_in=1000, proposal_scale=2.4, seed=13)
    result = rw_mh(_std_normal_target(2), np.zeros(2), cfg)
    diag = chain_diagnostics(*result.runs(cfg.burn_in))
    assert diag.converged
    assert (diag.rhat <= 1.05).all()
    assert not diag.degenerate.any()
    stuck = chain_diagnostics(np.ones((200, 1)))
    assert not stuck.converged
    assert stuck.degenerate.all()


# ---------------------------------------------------------------------------
# persistence


def test_chain_to_csv_round_trip(tmp_path):
    cfg = ChainConfig(steps=50, proposal_scale=1.0, seed=14)
    result = rw_mh(_std_normal_target(2), np.zeros(2), cfg)
    path = tmp_path / "trace.csv"
    chain_to_csv(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,q0,q1,log_target,accepted"
    assert len(lines) == 51
    chain, log_targets, accepted = read_trace(path)
    np.testing.assert_array_equal(chain, dense_chain(result))
    np.testing.assert_array_equal(log_targets, _step_log_targets(result))
    np.testing.assert_array_equal(accepted, result.accepted_flags)


def _step_log_targets(result):
    return result.log_targets[np.cumsum(result.accepted_flags)]


def _check_compact_trace(result, path, oracle_path):
    """The trace filled forward is the every-value oracle byte for byte, and
    a value field is empty exactly where its bits repeat the row above.  A
    rejected step holds the state above, so it is a line of commas."""
    chain_to_csv(result, path)
    chain_to_csv_every_value(result, oracle_path)
    assert filled_trace_text(path).encode() == oracle_path.read_bytes()
    chain = dense_chain(result)
    steps, dim = chain.shape
    values = np.column_stack([chain, _step_log_targets(result)]).view(np.int64)
    lines = path.read_text().splitlines(keepends=True)[1:]
    assert len(lines) == steps
    assert "" not in lines[0].split(",")
    for t in range(1, steps):
        fields = lines[t].split(",")
        assert fields[0] == str(t) and fields[-1] == f"{int(result.accepted_flags[t])}\n"
        empty = [field == "" for field in fields[1:-1]]
        assert empty == (values[t] == values[t - 1]).tolist(), t
        if not result.accepted_flags[t]:
            assert lines[t] == f"{t}," + "," * dim + ",0\n"
    return lines


@pytest.mark.parametrize("batch", [1, 5])
def test_chain_to_csv_matches_every_value_oracle(tmp_path, batch):
    start = np.array([-0.0, 0.5, -1.25, 0.0, 2.0, 1e-300, -3.5, 7.0, 0.1, -0.2, 3.0, 1.0])
    cfg = ChainConfig(steps=300, proposal_scale=1.2, seed=23, batch_size=batch)
    result = rw_mh(_std_normal_target(start.size), start, cfg)
    assert 5 <= result.accepted < cfg.steps  # rejected steps repeat their state
    # the first four accepts after row 0, of states k..k+3
    t1, t2, t3, t4 = (np.flatnonzero(result.accepted_flags[1:])[:4] + 1).tolist()
    k = np.count_nonzero(result.accepted_flags[:t1 + 1])
    states = result.states.copy()
    # equal values with different bits must be written anew
    states[k - 1:k + 4, 0] = [-0.0, -0.0, 0.0, 0.0, -0.0]
    result = ChainResult(cfg, states, result.log_targets, result.accepted_flags)
    lines = _check_compact_trace(result, tmp_path / "trace.csv", tmp_path / "oracle.csv")
    expected = (tmp_path / "oracle.csv").read_bytes()
    assert f"\n{t1},-0.0,".encode() in expected and f"\n{t2},0.0,".encode() in expected
    assert lines[t1].startswith(f"{t1},,") and lines[t2].startswith(f"{t2},0.0,")
    assert lines[t3].startswith(f"{t3},,") and lines[t4].startswith(f"{t4},-0.0,")


@pytest.mark.parametrize("steps", [1, 2, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1,
                                   CSV_CHUNK_ROWS + 2, 3 * CSV_CHUNK_ROWS + 5])
def test_chain_to_csv_on_chunk_edges(tmp_path, steps):
    cfg = ChainConfig(steps=steps, proposal_scale=1.0, seed=31)
    result = rw_mh(_std_normal_target(3), np.array([0.25, -0.0, 1.5]), cfg)
    lines = _check_compact_trace(result, tmp_path / "trace.csv", tmp_path / "oracle.csv")
    assert lines[-1].startswith(f"{steps - 1},")


def test_chain_to_csv_moves_every_coordinate_at_full_batch(tmp_path):
    dim = 4
    cfg = ChainConfig(steps=400, proposal_scale=0.8, seed=5, batch_size=dim)
    result = rw_mh(_std_normal_target(dim), np.zeros(dim), cfg)
    assert 0 < result.accepted < cfg.steps
    lines = _check_compact_trace(result, tmp_path / "trace.csv", tmp_path / "oracle.csv")
    for t in np.flatnonzero(result.accepted_flags[1:]) + 1:
        assert "" not in lines[t].split(","), t


def test_chain_to_csv_leaves_an_unchanged_log_target_empty_on_an_accept(tmp_path):
    cfg = ChainConfig(steps=60, proposal_scale=1.0, seed=14)
    result = rw_mh(_std_normal_target(2), np.zeros(2), cfg)
    t = np.flatnonzero(result.accepted_flags[1:])[0] + 1
    k = np.count_nonzero(result.accepted_flags[:t + 1])
    # the state accepted at t has the log target of the state above
    log_targets = result.log_targets.copy()
    log_targets[k] = log_targets[k - 1]
    result = ChainResult(cfg, result.states, log_targets, result.accepted_flags)
    lines = _check_compact_trace(result, tmp_path / "trace.csv", tmp_path / "oracle.csv")
    assert lines[t].endswith(",,1\n") and lines[t] != f"{t},,,,1\n"
    np.testing.assert_array_equal(read_trace(tmp_path / "trace.csv")[1],
                                  _step_log_targets(result))


def test_chain_to_csv_holds_no_chain_sized_copy(tmp_path):
    # the ode-bundle chain's shape: 20000 steps of 100 coordinates, batch 5;
    # the peak stays well under the 16 MB of one chain-sized temporary
    cfg = ChainConfig(steps=20000, proposal_scale=0.5, seed=9)
    result = rw_mh(_std_normal_target(100), np.zeros(100), cfg)
    tracemalloc.start()
    try:
        chain_to_csv(result, tmp_path / "trace.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cfg.steps * 100 * 8 / 4


def test_rw_mh_holds_no_steps_by_dim_array():
    # the ode-bundle chain's shape at its acceptance: 20000 steps of 100
    # coordinates, about 0.3 accepted; the peak stays under half of the 16 MB
    # dense chain
    cfg = ChainConfig(steps=20000, proposal_scale=1.0, seed=9)
    target = _std_normal_target(100)
    tracemalloc.start()
    try:
        result = rw_mh(target, np.zeros(100), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.25 < result.acceptance_rate < 0.35
    assert result.states.shape == (result.accepted + 1, 100)
    assert peak < cfg.steps * 100 * 8 / 2
