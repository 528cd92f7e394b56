import dataclasses
import json
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import load_finite, scalar_only
from mfctrl import dpp
from mfctrl.fixtures import list_fixtures, load_fixture
from mfctrl.lq import (
    AffinePolicy,
    LQModel,
    explicit_control_coefficients,
    mean_variance_model,
    optimal_policy,
    solve_riccati,
)
from mfctrl.measure import DiscreteMeasure
from mfctrl.moments import exact_cost
from mfctrl import particles
from mfctrl.particles import (
    _AHEAD,
    _BLOCK,
    _CHUNK,
    _STREAM_INIT_COMPONENT,
    _STREAM_INIT_DISCRETE,
    _STREAM_KERNEL,
    _STREAM_STAGE_NOISE,
    normals,
    simulate,
    uniforms,
)
from mfctrl.verify import random_lq_model
from particles_reference import simulate_finite as reference_simulate_finite
from particles_reference import simulate_lq as reference_simulate
from test_lq import scalar_lq

PARITY_RTOL = 1e-12


class TestStreams:
    def test_uniforms_deterministic_and_in_unit_interval(self):
        u1 = uniforms(42, 3, 1000)
        u2 = uniforms(42, 3, 1000)
        assert np.array_equal(u1, u2)
        assert u1.min() > 0.0 and u1.max() < 1.0

    def test_streams_are_distinct(self):
        assert not np.array_equal(uniforms(42, 0, 100), uniforms(42, 1, 100))
        assert not np.array_equal(uniforms(42, 0, 100), uniforms(43, 0, 100))

    def test_prefix_stability(self):
        # a longer draw starts with the shorter draw: particle i keeps its sample
        long = normals(7, 5, 2000)
        short = normals(7, 5, 500)
        assert np.array_equal(long[:500], short)

    def test_normals_are_standard(self):
        z = normals(0, 0, 200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_default_start_is_the_plain_philox_stream(self):
        raw = np.random.Philox(key=np.array([42, 3], dtype=np.uint64)).random_raw(1001)
        expected = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        assert np.array_equal(uniforms(42, 3, 1001), expected)
        assert np.array_equal(uniforms(42, 3, 1001, start=0), expected)

    @pytest.mark.parametrize("n", [5, _BLOCK - 1, _BLOCK, 2 * _BLOCK + 7])
    def test_blocks_are_slices_of_the_full_draw(self, n):
        # the last block is ragged unless n is a multiple of the block
        for draw in (uniforms, normals):
            full = draw(11, 4, n)
            for start in range(0, n, _BLOCK):
                size = min(_BLOCK, n - start)
                assert np.array_equal(draw(11, 4, size, start=start),
                                      full[start:start + size])
            start = 4 * (n // 8)   # any multiple of 4 starts a slice, not just block starts
            assert np.array_equal(draw(11, 4, n - start, start=start), full[start:])

    @pytest.mark.parametrize("start", [1, 2, 3, 6, _BLOCK + 1, -4])
    def test_start_must_be_a_nonnegative_multiple_of_four(self, start):
        for draw in (uniforms, normals):
            with pytest.raises(ValueError, match="multiple of 4"):
                draw(1, 0, 10, start=start)


class TestLQSimulation:
    def test_seed_determinism_bitwise(self):
        model = mean_variance_model(1.0, 0.5, 1.0, 1.0, 2, 1.0)
        policy = optimal_policy(model, solve_riccati(model))
        a = simulate(model, policy, 5000, seed=9, keep_clouds=True)
        b = simulate(model, policy, 5000, seed=9, keep_clouds=True)
        assert a.estimate == b.estimate
        assert a.std_error == b.std_error
        for ca, cb in zip(a.clouds, b.clouds):
            assert np.array_equal(ca.positions, cb.positions)

    def test_clouds_kept_only_on_request(self):
        model = mean_variance_model(1.0, 0.5, 1.0, 1.0, 2, 1.0)
        policy = optimal_policy(model, solve_riccati(model))
        assert simulate(model, policy, 100, seed=9).clouds is None
        kept = simulate(model, policy, 100, seed=9, keep_clouds=True).clouds
        assert [c.stage for c in kept] == [0, 1, 2]

    def test_zero_noise_dirac_start_is_deterministic(self):
        model = scalar_lq(n=2, B=1.0, C=1.0, R=1.0, QT=1.0, x0=0.8)
        policy = AffinePolicy(np.full((2, 1, 1), -0.3), np.zeros((2, 1, 1)),
                              np.full((2, 1), 0.1))
        sim = simulate(model, policy, 500, seed=4)
        assert sim.std_error == pytest.approx(0.0, abs=1e-14)
        assert sim.estimate == pytest.approx(exact_cost(model, policy), abs=1e-12)

    def test_estimate_within_four_standard_errors(self):
        model = mean_variance_model(1.0, 0.5, 1.0, 1.0, 2, 1.0)
        policy = optimal_policy(model, solve_riccati(model))
        exact = exact_cost(model, policy)
        sim = simulate(model, policy, 100_000, seed=31)
        assert abs(sim.estimate - exact) <= 4 * sim.std_error

    def test_perturbed_policy_also_agrees(self):
        rng = np.random.default_rng(14)
        model = random_lq_model(rng, 2, 2, 3)
        base = optimal_policy(model, solve_riccati(model))
        direction = AffinePolicy(rng.normal(size=base.gain_state.shape),
                                 rng.normal(size=base.gain_mean.shape),
                                 rng.normal(size=base.offset.shape))
        policy = base.perturbed(direction, 0.1)
        sim = simulate(model, policy, 50_000, seed=5)
        assert abs(sim.estimate - exact_cost(model, policy)) <= 4 * sim.std_error

    def test_oracle_law_closure_matches_exact_means(self):
        model = mean_variance_model(1.0, 0.5, 1.0, 1.0, 3, 1.0)
        policy = optimal_policy(model, solve_riccati(model))
        sim = simulate(model, policy, 30_000, seed=6, closure="oracle-law")
        assert abs(sim.estimate - exact_cost(model, policy)) <= 4 * sim.std_error

    def test_cloud_mean_tracks_optimal_mean_flow(self):
        model = mean_variance_model(1.0, 0.5, 1.0, 1.0, 3, 1.0)
        sol = solve_riccati(model)
        policy = optimal_policy(model, sol)
        controls = explicit_control_coefficients(model, sol, policy)
        sim = simulate(model, policy, 50_000, seed=12)
        for k in range(model.horizon + 1):
            tol = 4 * np.sqrt(sim.stage_variances[k]) / np.sqrt(sim.n_particles)
            assert np.all(np.abs(sim.stage_means[k] - controls.state_means[k])
                          <= tol + 1e-12)

    def test_gaussian_initial_law_sampling(self):
        model = random_lq_model(np.random.default_rng(23), 2, 1, 2)
        policy = AffinePolicy.zero(2, 2, 1)
        sim = simulate(model, policy, 200_000, seed=8, keep_clouds=True)
        cloud = sim.clouds[0].positions
        assert np.allclose(cloud.mean(axis=0), model.initial_mean, atol=0.02)
        assert np.allclose(np.cov(cloud.T), model.initial_cov, atol=0.02)

    def test_rejects_bad_inputs(self):
        model = mean_variance_model(1.0, 0.5, 1.0, 1.0, 2, 1.0)
        policy = optimal_policy(model, solve_riccati(model))
        with pytest.raises(ValueError, match="particle"):
            simulate(model, policy, 0, seed=1)
        with pytest.raises(ValueError, match="seed"):
            simulate(model, policy, 10, seed=-3)
        with pytest.raises(ValueError, match="closure"):
            simulate(model, policy, 10, seed=1, closure="magic")
        with pytest.raises(TypeError, match="AffinePolicy"):
            simulate(model, "not a policy", 10, seed=1)


def _assert_parity(actual, desired):
    """Within ``PARITY_RTOL`` of ``desired``, relative to its largest entry at least."""
    desired = np.asarray(desired, dtype=float)
    np.testing.assert_allclose(actual, desired, rtol=PARITY_RTOL,
                               atol=PARITY_RTOL * np.abs(desired).max())


def _assert_matches_reference(model, policy, n, closure, keep_clouds=False):
    sim = simulate(model, policy, n, seed=17, closure=closure, keep_clouds=keep_clouds)
    ref = reference_simulate(model, policy, n, 17, closure, keep_clouds)
    for name in ("estimate", "std_error", "stage_means", "stage_variances"):
        if n > 1 or name != "std_error":
            _assert_parity(getattr(sim, name), getattr(ref, name))
    for cloud, ref_cloud in zip(sim.clouds or (), ref.clouds or ()):
        assert cloud.positions.shape == (n, model.state_dim) and cloud.stage == ref_cloud.stage
        _assert_parity(cloud.positions, ref_cloud.positions)
    return sim


def _multivariate():
    return LQModel.from_json(load_fixture("lq_multivariate.json")["model"])


def _discrete_start(model, rng):
    """``model`` started from a three-atom law instead of its Gaussian one."""
    mu = DiscreteMeasure(rng.normal(size=(3, model.state_dim)), [0.5, 0.3, 0.2])
    return dataclasses.replace(model, initial_mean=mu.mean(), initial_cov=mu.covariance(),
                               initial_measure=mu)


def _parity_models():
    rng = np.random.default_rng(77)
    models = {"mean-variance": mean_variance_model(1.0, 0.5, 1.0, 1.0, 3, 1.0),
              "multivariate": _multivariate(),
              "multivariate-discrete": _discrete_start(_multivariate(), rng)}
    for d, m in [(1, 1), (1, 3), (2, 2), (3, 1), (3, 3)]:
        models[f"random-d{d}-m{m}"] = random_lq_model(rng, d, m, 3)
    models["random-d3-m2-discrete"] = _discrete_start(random_lq_model(rng, 3, 2, 2), rng)
    return models


PARITY_MODELS = _parity_models()


class TestReferenceParity:
    """The blocked ``(d, N)`` pass against the per-term reference simulator."""

    @pytest.mark.parametrize("name", sorted(PARITY_MODELS))
    @pytest.mark.parametrize("closure", ["empirical", "oracle-law"])
    def test_models_across_one_block_boundary(self, name, closure):
        model = PARITY_MODELS[name]
        policy = optimal_policy(model, solve_riccati(model))
        _assert_matches_reference(model, policy, _BLOCK + 5, closure)

    @pytest.mark.parametrize("n", [1, 2, _CHUNK + 5, _BLOCK - 1, _BLOCK, _BLOCK + _CHUNK + 3,
                                   3 * _BLOCK + 7])
    @pytest.mark.parametrize("closure", ["empirical", "oracle-law"])
    def test_block_sizes_with_kept_clouds(self, n, closure):
        model = PARITY_MODELS["multivariate"]
        policy = optimal_policy(model, solve_riccati(model))
        sim = _assert_matches_reference(model, policy, n, closure, keep_clouds=True)
        if n == 1:
            assert np.isnan(sim.std_error)
            assert not sim.stage_variances.any()

    def test_same_seed_reruns_are_bit_identical(self):
        model = PARITY_MODELS["random-d3-m3"]
        policy = optimal_policy(model, solve_riccati(model))
        a, b = (simulate(model, policy, 3 * _BLOCK + 7, seed=4) for _ in range(2))
        assert (a.estimate, a.std_error) == (b.estimate, b.std_error)
        assert np.array_equal(a.stage_means, b.stage_means)
        assert np.array_equal(a.stage_variances, b.stage_variances)


def _in_order(pool, fn, calls):
    """``particles._ahead`` without the pool: every draw on the calling thread."""
    return (fn(*args) for args in calls)


# per pass: the draw function it runs through ``particles._ahead`` and the base
# of its per-stage streams
PIPELINES = {"lq": ("normals", _STREAM_STAGE_NOISE), "finite": ("uniforms", _STREAM_KERNEL)}


def _pipelined(kind, n, **kwargs):
    """The model of pass ``kind`` and one ``simulate`` of it with seed 2."""
    if kind == "lq":
        model = PARITY_MODELS["multivariate"]
        return model, simulate(model, optimal_policy(model, solve_riccati(model)), n, 2,
                               **kwargs)
    model, mu0, policy = _finite_case("finite_mean_reverting.json")
    return model, simulate(model, policy, n, 2, initial_law=mu0, **kwargs)


def _pipelined_blocks(kind, model, n):
    """``(stream, start)`` of every block pass ``kind`` draws, sorted."""
    first = ([_STREAM_INIT_COMPONENT + j for j in range(model.state_dim)] if kind == "lq"
             else [_STREAM_INIT_DISCRETE])
    streams = first + [PIPELINES[kind][1] + k for k in range(model.horizon)]
    return sorted((stream, start) for stream in streams for start in range(0, n, _BLOCK))


def _spy(monkeypatch, kind, worker_delay=0.0, failing=None):
    """Record ``(thread, stream, start)`` of each draw of pass ``kind``; a draw
    off the calling thread first sleeps ``worker_delay`` s, and ``failing``
    maps ``(stream, start)`` to the message of the error its draw raises."""
    name = PIPELINES[kind][0]
    real, caller, drawn = getattr(particles, name), threading.current_thread(), []

    def draw(seed, stream, count, *, start=0):
        thread = threading.current_thread()
        if thread is not caller:
            time.sleep(worker_delay)
        drawn.append((thread, stream, start))
        if failing and (stream, start) in failing:
            raise RuntimeError(failing[stream, start])
        return real(seed, stream, count, start=start)

    monkeypatch.setattr(particles, name, draw)
    return drawn


def _assert_runs_equal(piped, serial, horizon):
    assert json.dumps(piped.to_json()) == json.dumps(serial.to_json())
    assert len(piped.clouds) == len(serial.clouds) == horizon + 1
    for a, b in zip(piped.clouds, serial.clouds):
        assert np.array_equal(a.positions, b.positions)


class TestPipelinedPass:
    """Both passes draw through ``particles._ahead``: one worker thread draws
    ahead, and a caller whose block is not done draws a queued block itself.
    Whichever thread draws a block, a pass must equal a serial run of the same
    code, draw every block once and leave no thread behind."""

    @pytest.mark.parametrize("n", [1, 3, _CHUNK - 1, _CHUNK + 5, _BLOCK + 7, 3 * _BLOCK + 7])
    @pytest.mark.parametrize("closure", ["empirical", "oracle-law"])
    @pytest.mark.parametrize("name", ["multivariate", "multivariate-discrete"])
    def test_equals_a_serial_run(self, monkeypatch, name, n, closure):
        model = PARITY_MODELS[name]
        policy = optimal_policy(model, solve_riccati(model))
        runs = [simulate(model, policy, n, seed=6, closure=closure, keep_clouds=True)]
        monkeypatch.setattr(particles, "_ahead", _in_order)
        runs.append(simulate(model, policy, n, seed=6, closure=closure, keep_clouds=True))
        _assert_runs_equal(*runs, model.horizon)

    @pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK + 7, 3 * _BLOCK + 7])
    @pytest.mark.parametrize("closure", ["empirical", "oracle-law"])
    @pytest.mark.parametrize("name", ["finite_mean_reverting.json", "fo_kernel_coupled.json"])
    def test_finite_pass_equals_a_serial_run(self, monkeypatch, name, n, closure):
        model, mu0, policy = _finite_case(name)
        runs = [simulate(model, policy, n, seed=6, closure=closure, keep_clouds=True,
                         initial_law=mu0)]
        monkeypatch.setattr(particles, "_ahead", _in_order)
        runs.append(simulate(model, policy, n, seed=6, closure=closure, keep_clouds=True,
                             initial_law=mu0))
        _assert_runs_equal(*runs, model.horizon)

    @pytest.mark.parametrize("kind", sorted(PIPELINES))
    def test_a_slow_worker_shares_the_draws_with_the_caller(self, monkeypatch, kind):
        n = 3 * _BLOCK + 7
        drawn = _spy(monkeypatch, kind, worker_delay=0.005)
        model, piped = _pipelined(kind, n, keep_clouds=True)
        caller = threading.current_thread()
        assert any(thread is caller for thread, _, _ in drawn)
        assert any(thread is not caller for thread, _, _ in drawn)
        monkeypatch.undo()
        monkeypatch.setattr(particles, "_ahead", _in_order)
        _assert_runs_equal(piped, _pipelined(kind, n, keep_clouds=True)[1], model.horizon)

    @pytest.mark.parametrize("worker_delay", [0.0, 0.005])
    @pytest.mark.parametrize("kind", sorted(PIPELINES))
    def test_each_block_is_drawn_once(self, monkeypatch, kind, worker_delay):
        n = 3 * _BLOCK + 7
        drawn = _spy(monkeypatch, kind, worker_delay)
        model, _ = _pipelined(kind, n)
        assert sorted((stream, start) for _, stream, start in drawn) == \
            _pipelined_blocks(kind, model, n)

    def test_chunked_products_equal_one_product(self):
        rng = np.random.default_rng(5)
        for rows, d, n in [(10, 3, _BLOCK), (7, 2, _CHUNK + 5), (4, 1, 3), (3, 3, 2 * _CHUNK)]:
            a, b = rng.standard_normal((rows, d)), rng.standard_normal((d, n))
            assert np.array_equal(particles._matmul(a, b, np.empty((rows, n))), a @ b)

    @pytest.mark.parametrize("kind", sorted(PIPELINES))
    def test_no_thread_outlives_a_call(self, monkeypatch, kind):
        n, before = 3 * _BLOCK + 7, threading.active_count()
        drawn = _spy(monkeypatch, kind)
        _pipelined(kind, n)
        assert threading.active_count() == before
        # every draw ran on the calling thread or on one worker
        assert len({thread for thread, _, _ in drawn} - {threading.current_thread()}) == 1

        base = PIPELINES[kind][1]
        _spy(monkeypatch, kind, failing={(base + 1, _BLOCK): "second stage, second block"})
        with pytest.raises(RuntimeError, match="second stage, second block"):
            _pipelined(kind, n)
        assert threading.active_count() == before

    def test_a_draw_run_by_the_caller_fails_in_its_turn(self):
        # the worker holds call 0 until the caller, waiting for it, has run call 2
        caller, release, on_caller = threading.current_thread(), threading.Event(), {}

        def fn(i):
            on_caller[i] = threading.current_thread() is caller
            if not on_caller[i]:
                release.wait(10)
            if i == 2:
                release.set()
                raise RuntimeError("call 2")
            return i

        with ThreadPoolExecutor(1) as pool:
            results = particles._ahead(pool, fn, [(i,) for i in range(4)])
            assert [next(results), next(results)] == [0, 1]
            with pytest.raises(RuntimeError, match="call 2"):
                next(results)
        assert on_caller[2] and not on_caller[0]


def test_memory_is_the_cloud_plus_one_chunk_product():
    # the per-term passes of particles_reference peak at about 32 MB here: five (N, d)
    # temporaries on top of the cloud.  A pass holding a whole block's product, or
    # reducing a copy of the costs, peaks near 10 MB over the cloud and the costs
    d, n = 3, 200_000
    model = random_lq_model(np.random.default_rng(3), d, 2, 5)
    policy = optimal_policy(model, solve_riccati(model))
    simulate(model, policy, 10, seed=1)   # first-call allocations stay out of the count
    # one chunk's matrix product, and blocks: d rows of the fold's deviations, the draw
    # in use and the _AHEAD + 1 queued draws, each of two blocks while it is drawn
    allowance = ((3 * d + 1) * _CHUNK + (d + 1 + 2 * (_AHEAD + 1)) * _BLOCK) * 8
    for closure in ("empirical", "oracle-law"):
        tracemalloc.start()
        try:
            simulate(model, policy, n, seed=1, closure=closure)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (d + 1) * n * 8 + allowance, (closure, peak)


class TestFiniteSimulation:
    def test_oracle_law_matches_rollforward_cost(self):
        model, mu0 = load_finite("finite_mean_reverting.json")
        policy = model.tabular_policy([1, 0, 1])
        cost, _ = dpp.rollforward(model, mu0, [policy] * model.horizon)
        sim = simulate(model, policy, 20_000, seed=3, closure="oracle-law",
                       initial_law=mu0)
        assert abs(sim.estimate - cost) <= 4 * sim.std_error

    def test_empirical_closure_close_to_mean_field_cost(self):
        model, mu0 = load_finite("finite_mean_reverting.json")
        policy = model.tabular_policy([0, 1, 1])
        cost, _ = dpp.rollforward(model, mu0, [policy] * model.horizon)
        sim = simulate(model, policy, 40_000, seed=13, initial_law=mu0)
        assert abs(sim.estimate - cost) <= 4 * sim.std_error

    def test_seed_determinism(self):
        model, mu0 = load_finite("finite_mean_clamp.json")
        policy = model.tabular_policy([0, 0])
        a = simulate(model, policy, 5000, seed=2, initial_law=mu0)
        b = simulate(model, policy, 5000, seed=2, initial_law=mu0)
        assert a.estimate == b.estimate
        assert np.array_equal(a.stage_means, b.stage_means)

    def test_requires_initial_law(self):
        model, _ = load_finite("finite_mean_clamp.json")
        with pytest.raises(ValueError, match="initial law"):
            simulate(model, model.tabular_policy([0, 0]), 100, seed=1)

    def test_requires_tabular_policy(self):
        model, mu0 = load_finite("finite_mean_clamp.json")
        with pytest.raises(TypeError, match="TabularMap"):
            simulate(model, AffinePolicy.zero(2, 1, 1), 100, seed=1, initial_law=mu0)


FINITE_FIXTURES = sorted(name for name in list_fixtures() if name.startswith(("finite_", "fo_")))


def _finite_case(name):
    model, mu0 = load_finite(name)
    return model, mu0, model.tabular_policy(np.arange(model.n_states) % model.n_actions)


class TestFiniteReferenceParity:
    """The per-stage batched pass against the per-state reference simulator."""

    @pytest.mark.parametrize("n", [2, _BLOCK + 5, 3 * _BLOCK + 7])
    @pytest.mark.parametrize("closure", ["empirical", "oracle-law"])
    @pytest.mark.parametrize("name", FINITE_FIXTURES)
    def test_fixtures(self, name, closure, n):
        model, mu0, policy = _finite_case(name)
        sim = simulate(model, policy, n, seed=5, closure=closure, keep_clouds=True,
                       initial_law=mu0)
        ref = reference_simulate_finite(model, policy, n, 5, closure, True, mu0)
        # a kernel CDF off by one ulp could move a draw; count the particles it moved
        moved = sum(np.count_nonzero(np.any(c.positions != r.positions, axis=1))
                    for c, r in zip(sim.clouds, ref.clouds))
        assert moved == 0
        assert sim.estimate == ref.estimate
        assert np.array_equal(sim.stage_means, ref.stage_means)
        assert abs(sim.std_error - ref.std_error) <= np.spacing(ref.std_error)
        np.testing.assert_allclose(sim.stage_variances, ref.stage_variances, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("closure", ["empirical", "oracle-law"])
    @pytest.mark.parametrize("name", FINITE_FIXTURES)
    def test_scalar_adapter_simulates_alike(self, name, closure):
        model, mu0, policy = _finite_case(name)
        a, b = (simulate(m, policy, _BLOCK + 5, seed=5, closure=closure, initial_law=mu0)
                for m in (model, scalar_only(model)))
        assert a.to_json() == b.to_json()

    @pytest.mark.parametrize("closure", ["empirical", "oracle-law"])
    def test_same_seed_reruns_are_bit_identical(self, closure):
        model, mu0, policy = _finite_case("finite_mean_reverting.json")
        a, b = (simulate(model, policy, 3 * _BLOCK + 7, seed=4, closure=closure,
                         initial_law=mu0).to_json() for _ in range(2))
        assert a == b


def test_finite_pass_memory_is_indices_costs_and_block_scratch():
    # no (N, d) positions unless clouds are kept: this pass peaks at 5.0 MB here, the per-state
    # reference in particles_reference at 13.0 MB
    model, mu0, policy = _finite_case("finite_mean_reverting.json")
    n = 200_000
    simulate(model, policy, 10, seed=1, initial_law=mu0)
    allowance = 4 * model.n_states * _BLOCK * 8
    for closure in ("empirical", "oracle-law"):
        tracemalloc.start()
        try:
            simulate(model, policy, n, seed=1, closure=closure, initial_law=mu0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * n * 8 + allowance, (closure, peak)


def test_chaos_convergence_no_error_growth():
    # the scaled error sqrt(N) * |estimate - exact| stays bounded across N
    model = mean_variance_model(1.0, 0.5, 1.0, 1.0, 2, 1.0)
    policy = optimal_policy(model, solve_riccati(model))
    exact = exact_cost(model, policy)
    sizes = [100, 1000, 10_000, 100_000]
    rms = []
    for n in sizes:
        errs = [simulate(model, policy, n, seed=s).estimate - exact
                for s in range(12)]
        rms.append(float(np.sqrt(np.mean(np.square(errs)))))
    scaled = np.sqrt(sizes) * np.array(rms)
    assert scaled.max() / scaled.min() < 3.0
