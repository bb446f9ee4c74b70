import dataclasses
import math
import zlib

import numpy as np
import pytest

from dunkl_lab import _engine, build_type_b, rng, verify
from dunkl_lab.errors import InvalidArgumentError

# Seeds of the reproducibility contract: the extremes of one and two uint32
# words, one longer than SeedSequence's pool of four words, seeds verify
# derives, and the benchmark's per-call seeds.
SEEDS = [0, 1, 2**32 - 1, 2**32 + 5, 2**130 + 7,
         verify.derived_seed(1, "bessel-radial"), verify.derived_seed(7, "bias"),
         verify.derived_seed(20170406, "harmonic-pi"),
         zlib.crc32(b"1:1"), zlib.crc32(b"4:4")]

PATHS = np.array([0, 1, 2, 63, 64, 4095, 4096, 16383])
# Every key shape the engine and the lift use, with the path index as an array.
SHAPES = [(rng.DIFFUSION, PATHS), (rng.RETRY, PATHS), (rng.CLOCK, PATHS, 0),
          (rng.CLOCK, PATHS, 1), (rng.FLIP, 1, PATHS), (rng.FLIP, 4, PATHS),
          (rng.CHECK, 3)]


def _reference(seed, key):
    return np.random.SeedSequence(seed, spawn_key=key).generate_state(3, np.uint64)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "-".join(
    "p" if isinstance(k, np.ndarray) else str(k) for k in s))
def test_keys_equal_seed_sequence(seed, shape):
    got = rng.keys(seed, *shape)
    n = max((len(k) for k in shape if isinstance(k, np.ndarray)), default=0)
    if not n:
        assert np.array_equal(got, _reference(seed, shape))
        return
    assert got.shape == (n, 3) and got.dtype == np.uint64
    for p in range(n):
        key = tuple(int(k[p]) if isinstance(k, np.ndarray) else k for k in shape)
        assert np.array_equal(got[p], _reference(seed, key)), key
        assert np.array_equal(rng.keys(seed, *key), got[p])


def test_keys_reject_out_of_range():
    for bad in ((-1, 0), (1, -1), (1, 2**32), (1, 0, np.array([0, 2**32])),
                (1, 0, np.array([-1]))):
        with pytest.raises((ValueError, OverflowError)):
            rng.keys(*bad)


@pytest.mark.parametrize("bad", [(1, rng.FLIP, np.array([1.5])), (1, rng.FLIP, 1.5),
                                 (1, rng.FLIP, np.array([True])), (1, rng.FLIP, True),
                                 (1.5, rng.FLIP, 0), (True, rng.FLIP, 0)])
def test_keys_refuse_what_a_cast_would_truncate(bad):
    # np.uint64(1.5) is 1: a float part would silently open stream 1
    with pytest.raises(InvalidArgumentError):
        rng.keys(*bad)


def test_generator_from_a_batch_key_draws_the_stream():
    batch = rng.keys(5, rng.FLIP, 2, np.arange(8))
    for p in (7, 3):
        assert np.array_equal(rng.stream(batch[p]).standard_exponential(9),
                              rng.stream(rng.keys(5, rng.FLIP, 2, p)).standard_exponential(9))
    # ``stream`` hands SFC64 the key as its seed words; the state and the
    # draws, past 10,001 normals, are the seed sequence's.
    old = np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(5, spawn_key=(rng.FLIP, 2, 7))))
    ours = rng.stream(rng.keys(5, rng.FLIP, 2, 7))

    def assert_same_state():
        got, ref = ours.bit_generator.state, old.bit_generator.state
        assert np.array_equal(got.pop("state")["state"], ref.pop("state")["state"])
        assert got == ref

    assert_same_state()
    assert np.array_equal(ours.standard_normal(10_001), old.standard_normal(10_001))
    assert_same_state()


def test_stream_key_must_be_a_row_of_keys():
    # SFC64 reads three words from the key's buffer: a strided view would
    # open another stream, and a shorter key would be read past its end
    batch = rng.keys(5, rng.FLIP, 2, np.arange(8))
    for bad in (batch[:3, 0], batch[0, :2], batch[0].astype(np.int64), batch[:1]):
        with pytest.raises(InvalidArgumentError):
            rng.stream(bad)


def test_keys_and_streams_build_no_seed_sequence(monkeypatch):
    """A batch of keys and the streams opened from them construct no
    ``SeedSequence``, so they draw no OS entropy and stay cheap."""
    def refuse(*args, **kwargs):
        raise AssertionError("SeedSequence built")

    seed_sequence = np.random.SeedSequence
    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    monkeypatch.setattr(np.random.bit_generator, "SeedSequence", refuse)
    batch = rng.keys(2**130 + 7, rng.DIFFUSION, np.arange(64))
    gens = [rng.stream(key) for key in batch]
    assert all(isinstance(g.bit_generator, np.random.SFC64) for g in gens)
    assert not any(isinstance(g.bit_generator.seed_seq, seed_sequence) for g in gens)
    assert gens[0].standard_normal() != gens[1].standard_normal()


# ``derived_seed`` reads a key's first word, the same under SFC64's three words
# as under Philox's two: these values predate SFC64 and must not move.
@pytest.mark.parametrize("master, tag, seed", [
    (1, "bessel-radial", 779031208), (7, "bias", 596067772),
    (20170406, "harmonic-pi", 2236519160), (314, "wall", 4045945805),
    (2**40 + 3, "rotgen", 225931526), (0, "", 1905993885)])
def test_derived_seed_is_pinned(master, tag, seed):
    assert verify.derived_seed(master, tag) == seed


@pytest.mark.parametrize("shape", [(rng.CLOCK, 0), (rng.RETRY,), (rng.CLOCK, 1)],
                         ids=["clock0", "retry", "clock1"])
def test_engine_batch_keys_draw_the_streams(shape):
    """The engine takes a block's clock-threshold, retry and firing keys from
    one ``rng.keys`` call over its paths and builds a path's generator on
    its first draw; each draws what the path's ``rng.stream`` draws."""
    purpose, *rest = shape
    first_path = 4096
    batch = rng.keys(11, purpose, first_path + np.arange(128), *rest)
    for j in (0, 1, 77, 127):
        ours = rng.stream(batch[j])
        ref = rng.stream(rng.keys(11, purpose, first_path + j, *rest))
        assert np.array_equal(ours.standard_exponential(4), ref.standard_exponential(4))
        assert np.array_equal(ours.standard_normal(3), ref.standard_normal(3))
        assert ours.standard_exponential() == ref.standard_exponential()


@pytest.mark.parametrize("buffer", [_engine.NOISE_BUFFER, 7 * 2 * 3, 1, 7 * 2 * 5, 7 * 2 * 17])
def test_engine_noise_is_each_paths_stream(monkeypatch, buffer):
    """With no drift and no wall in reach, x_{t+1} = x_t + 0 + √h·ξ_t, so the
    recorded states pin every increment the engine drew into them.  The
    unrecorded run buffers the same noise in segments of 37, 3, 1, 5 and 17
    steps, each read through tiles that end with it, and ends where the
    recorded one does."""
    monkeypatch.setattr(_engine, "NOISE_BUFFER", buffer)
    system = build_type_b(2)
    tgrid = np.arange(38) * 0.01
    params = _engine.EngineParams(
        positive_roots=system.positive_roots,
        kvec=np.zeros(len(system.positive_roots)),
        x0=np.array([40.0, 20.0]), tgrid=tgrid, seed=11, record=True)
    res = _engine.run_paths(params, 7)
    bare = _engine.run_paths(dataclasses.replace(params, record=False), 7)
    assert res.n_rejected.sum() == bare.n_rejected.sum() == 0
    assert bare.states is None
    assert np.array_equal(bare.final, res.states[:, -1])
    for p in range(7):
        xi = rng.stream(rng.keys(11, rng.DIFFUSION, p)).standard_normal((37, 2))
        x = params.x0
        for step in range(37):
            h = float(tgrid[step + 1]) - float(tgrid[step])
            x = x + np.zeros(2) * h + math.sqrt(h) * xi[step]
            assert np.array_equal(res.states[p, step + 1], x)
        assert np.array_equal(bare.final[p], x)


@pytest.mark.parametrize("case", ["stop_at_t0", "max_halvings"])
def test_recorded_states_keep_no_noise_after_a_stop(monkeypatch, case):
    """A recorded run draws its noise into its states; every grid state from
    a path's stop on is its final state, so no noise is left in a row."""
    from test_contract import ENGINE_CONTRACT, _engine_params

    overrides, constants, _ = ENGINE_CONTRACT[case]
    for name, value in constants.items():
        monkeypatch.setattr(_engine, name, value)
    params = _engine_params(**overrides)
    monkeypatch.setattr(_engine, "DEFAULT_CHUNK", 128)
    res = _engine.run_paths(params, 300)
    stopped = np.flatnonzero(res.termination != _engine.TERM_HORIZON)
    assert stopped.size and np.all(res.stop_index[stopped] < len(params.tgrid) - 1)
    for p in range(300):
        assert (res.states[p, res.stop_index[p]:] == res.final[p]).all()


def test_recorded_rows_after_every_path_stopped():
    """Every path stops at T₀ before the horizon, the last one inside a
    tile: the tile's states are written back before the rows after the last
    stop are filled, and the run ends as the unrecorded one does."""
    from test_contract import _engine_params

    params = _engine_params(k=0.1, stop_at_t0=True, tgrid=np.arange(401) * 0.01, seed=13)
    res = _engine.run_paths(params, 64)
    bare = _engine.run_paths(dataclasses.replace(params, record=False), 64)
    assert (res.termination == _engine.TERM_T0).all()
    assert res.stop_index.max() < 400 and res.stop_index.max() % _engine.TILE
    for name in ("final", "stop_index", "t0_time"):
        assert np.array_equal(getattr(res, name), getattr(bare, name)), name
    for p in range(64):
        assert (res.states[p, res.stop_index[p]:] == res.final[p]).all()


def test_engine_keys_each_block_in_one_batch(monkeypatch):
    """A run of several blocks, the last one short, derives each block's
    ``DIFFUSION`` keys in one array-keyed ``rng.keys`` call and opens one
    ``rng.stream`` per path."""
    key_calls, streams = [], []
    keys, stream = rng.keys, rng.stream

    def counting_keys(seed, purpose, *key):
        key_calls.append((purpose, key))
        return keys(seed, purpose, *key)

    def counting_stream(key):
        streams.append(key)
        return stream(key)

    monkeypatch.setattr(rng, "keys", counting_keys)
    monkeypatch.setattr(rng, "stream", counting_stream)
    system = build_type_b(2)
    params = _engine.EngineParams(
        positive_roots=system.positive_roots,
        kvec=np.zeros(len(system.positive_roots)),
        x0=np.array([40.0, 20.0]), tgrid=np.arange(3) * 0.01, seed=11)
    res = _engine.run_paths(params, 4608)
    assert res.n_rejected.sum() == 0
    chunk = _engine.DEFAULT_CHUNK
    blocks = [(first, min(chunk, 4608 - first)) for first in range(0, 4608, chunk)]
    assert [purpose for purpose, _ in key_calls] == [rng.DIFFUSION] * len(blocks)
    for (_, (paths,)), (first, n) in zip(key_calls, blocks):
        assert np.array_equal(paths, first + np.arange(n))
    assert len(streams) == 4608
