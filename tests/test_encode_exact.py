"""Exactness of the binary-projection encoder's sign bits.

For a ``±1`` projection ``M``, bit ``d`` of a row ``x`` is ``[s >= 0]`` on
the exact real sum ``s = sum_i M_id * x_i``; a NaN sum (a NaN entry, or
``+inf`` and ``-inf`` terms together) gives bit 0.  The encoder computes
it from a certified float32 GEMM, settles the uncertified entries in
float64 and then with ``math.fsum`` / :class:`fractions.Fraction`; these
tests hold every tier to a :class:`~fractions.Fraction` reference that
shares no code with it, on crafted cancelling rows, exact zeros,
subnormal and huge magnitudes, and non-finite entries.

Because the bits are a function of the row alone, a row encodes -- and a
model labels it -- the same in any batch, alone or micro-batched by a
server.  The fused ``sign_pack`` kernel is held to its numpy twin, and
the table-lookup sums of ``sign_encode``, which small batches at a wide
``D`` take, to the GEMM path's packed words.
"""

from __future__ import annotations

import json
import math
import threading
import tracemalloc
import urllib.request
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.config import MEMHDConfig
from repro.core.model import MEMHDModel
from repro.hdc import _packed_kernels as kernels
from repro.hdc import encoders
from repro.hdc.encoders import RandomProjectionEncoder
from repro.runtime.server import ModelServer

_TINY = 2.0**-1022  # smallest normal float64

#: Every float64, subnormals, infinities and NaN included.
any_floats = st.floats(allow_nan=True, allow_infinity=True, width=64)
subnormals = st.floats(min_value=-_TINY, max_value=_TINY)
huge = st.floats(min_value=1e38, max_value=1e300) | st.floats(
    min_value=-1e300, max_value=-1e38
)
#: Mixed magnitudes: sums of huge and tiny terms, and huge sums that cancel.
mixed = st.one_of(st.floats(-4.0, 4.0), subnormals, huge, st.just(0.0))


def _exact_bits(projection: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Reference ``(n, D)`` bits by exact rational arithmetic."""
    projection = projection.astype(int)
    num_features, dimension = projection.shape
    bits = np.zeros((features.shape[0], dimension), dtype=np.int8)
    for r, row in enumerate(features):
        if any(math.isnan(v) for v in row):
            continue  # every sum is NaN: bit 0
        infinite = [i for i in range(num_features) if math.isinf(row[i])]
        for d in range(dimension):
            if infinite:
                signs = {projection[i, d] * math.copysign(1, row[i]) for i in infinite}
                bits[r, d] = signs == {1.0}  # mixed signs: inf - inf, NaN
            else:
                total = sum(
                    Fraction(row[i]) * projection[i, d] for i in range(num_features)
                )
                bits[r, d] = total >= 0
    return bits


def _assert_exact(encoder: RandomProjectionEncoder, features: np.ndarray) -> None:
    features = np.atleast_2d(features)
    expected = _exact_bits(encoder.projection, features)
    with np.errstate(all="ignore"):
        np.testing.assert_array_equal(encoder.encode_binary(features), expected)
        np.testing.assert_array_equal(
            encoder.encode_packed(features).unpack(), expected
        )
        np.testing.assert_array_equal(encoder.encode(features), 2 * expected - 1)


def cancelling_rows(num_features: int, count: int, seed: int) -> np.ndarray:
    """Rows whose projection cancels in about half of the columns.

    Each row is ``c * (e_i ± e_k)`` plus noise ``2^-50`` times smaller:
    in every column where the two large terms cancel, the sign rests on
    noise below float64 resolution of ``c``, so a float64 GEMM's answer
    depends on its summation order.
    """
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(count, num_features)) * 2.0**-50
    for row in rows:
        i, k = rng.choice(num_features, size=2, replace=False)
        scale = 2.0 ** float(rng.integers(-8, 8))
        row *= scale
        row[i] += scale
        row[k] += scale * rng.choice([-1.0, 1.0])
    return rows


@st.composite
def encoder_and_rows(draw, elements=any_floats, max_features=12):
    num_features = draw(st.integers(1, max_features))
    dimension = draw(st.integers(1, 150))
    encoder = RandomProjectionEncoder(
        num_features, dimension, rng=draw(st.integers(0, 2**16))
    )
    shape = (draw(st.integers(1, 4)), num_features)
    rows = draw(hnp.arrays(np.float64, shape, elements=elements))
    return encoder, rows


@st.composite
def encoder_and_cancelling_rows(draw):
    """Rows that cancel (up to a few ulps or a tiny term) in one column."""
    encoder, rows = draw(
        encoder_and_rows(elements=st.floats(-1e6, 1e6), max_features=10)
    )
    num_features = rows.shape[1]
    projection = encoder.projection.astype(np.float64)
    for row in rows:
        d = draw(st.integers(0, encoder.dimension - 1))
        k = draw(st.integers(0, num_features - 1))
        rest = np.dot(np.delete(row, k), np.delete(projection[:, d], k))
        ulps = draw(st.sampled_from([0.0, 1.0, -1.0, 3.0]))
        tiny = draw(st.sampled_from([0.0, 1e-300, -5e-324]))
        row[k] = -projection[k, d] * (rest + ulps * np.spacing(rest) + tiny)
    return encoder, rows


class TestMatchesExactReference:
    @settings(max_examples=150, deadline=None)
    @given(encoder_and_rows())
    def test_any_float_including_nonfinite(self, case):
        _assert_exact(*case)

    @settings(max_examples=150, deadline=None)
    @given(encoder_and_cancelling_rows())
    def test_crafted_cancelling_rows(self, case):
        _assert_exact(*case)

    @settings(max_examples=100, deadline=None)
    @given(encoder_and_rows(elements=subnormals))
    def test_subnormal_magnitudes(self, case):
        _assert_exact(*case)

    @settings(max_examples=100, deadline=None)
    @given(encoder_and_rows(elements=mixed))
    def test_huge_tiny_and_zero_mixtures(self, case):
        _assert_exact(*case)

    def test_exact_zero_rows_are_ties(self):
        encoder = RandomProjectionEncoder(7, 130, rng=1)
        features = np.zeros((3, 7))
        features[1, 2] = -0.0
        assert encoder.encode_binary(features).all()

    def test_nonfinite_rows(self):
        encoder = RandomProjectionEncoder(3, 90, rng=2)
        column_sign = encoder.projection[0] > 0
        features = np.array(
            [
                [np.nan, 1.0, 2.0],
                [np.inf, 1e300, -1e300],
                [-np.inf, 5.0, 0.0],
                [np.inf, np.inf, 0.0],
                [np.inf, -np.inf, 0.0],
            ]
        )
        _assert_exact(encoder, features)
        bits = encoder.encode_binary(features)
        assert not bits[0].any()
        np.testing.assert_array_equal(bits[1], column_sign)
        np.testing.assert_array_equal(bits[2], ~column_sign)

    def test_fsum_overflow_falls_back_to_fraction(self):
        # +1e308 +1e308 -1e308 -1e308 +-1e-300: the exact sum is the tiny
        # term, but a float64 partial sum overflows, inside fsum too.
        encoder = RandomProjectionEncoder.from_projection(
            np.array([[1, 1], [1, -1], [-1, 1], [-1, -1], [1, 1]], dtype=np.int8)
        )
        features = np.full((2, 5), 1e308)
        features[:, 4] = [1e-300, -1e-300]
        _assert_exact(encoder, features)
        np.testing.assert_array_equal(encoder.encode_binary(features)[:, 0], [1, 0])

    def test_out_of_range_and_nonfinite_rows_encode_without_warnings(self):
        # Beyond float32's range the cast overflows and a non-finite row
        # sums to NaN; those rows skip the float tiers, so neither warns.
        encoder = RandomProjectionEncoder(3, 90, rng=2)
        rows = np.array(
            [[np.nan, 1.0, 2.0], [np.inf, 1e300, -1e300], [np.inf, -np.inf, 0.0]]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bits = encoder.encode_binary(rows)
            encoder.encode_packed(rows)
            encoder.encode(rows)
        assert not bits[0].any()

    def test_large_rows_at_real_width(self):
        # f = 784 as in MNIST; the crafted rows leave entries open at both
        # the float32 and the float64 tier.
        encoder = RandomProjectionEncoder(784, 96, rng=3)
        features = cancelling_rows(784, 6, seed=3)
        projection = encoder.projection.astype(np.float64)
        expected = np.array(
            [[math.fsum(row * col) >= 0 for col in projection.T] for row in features]
        )
        np.testing.assert_array_equal(encoder.encode_binary(features), expected)

    @pytest.mark.parametrize("entry", [0, 2, -128])
    def test_rejects_projection_entries_other_than_plus_minus_one(self, entry):
        encoder = RandomProjectionEncoder.from_projection(
            np.array([[1, entry], [1, 1]], dtype=np.int8)
        )
        with pytest.raises(ValueError, match="-1 and \\+1"):
            encoder.encode_packed(np.ones(2))


class TestTiers:
    def test_every_tier_is_reached(self, monkeypatch):
        """Crafted rows need the float64 tier and the fsum tier."""
        calls = {"settle": 0, "fsum": 0}
        settle, exact = encoders._settle_open, encoders._exact_sum_sign

        def counting_settle(*args):
            calls["settle"] += 1
            return settle(*args)

        def counting_exact(products):
            calls["fsum"] += 1
            return exact(products)

        monkeypatch.setattr(encoders, "_settle_open", counting_settle)
        monkeypatch.setattr(encoders, "_exact_sum_sign", counting_exact)
        encoder = RandomProjectionEncoder(24, 256, rng=4)
        encoder.encode_packed(cancelling_rows(24, 8, seed=4))
        assert calls["settle"] == 1
        assert calls["fsum"] > 0

    def test_typical_rows_are_certified_without_the_exact_tier(self):
        rng = np.random.default_rng(5)
        features = rng.random((64, 784))
        encoder = RandomProjectionEncoder(784, 1024, rng=5)
        widened = encoder.widened_projection()
        values = features.astype(np.float32) @ widened
        coefficients = encoders._bound_coefficients(784)
        packer = kernels.SignPacker(widened.T, coefficients, encoders._FAST_LIMIT)
        _, _, count = packer(features, values)
        assert count == 0


class TestBatchInvariance:
    def test_encode_is_a_function_of_the_row(self):
        encoder = RandomProjectionEncoder(784, 1024, rng=0)
        features = cancelling_rows(784, 64, seed=0)
        batch = encoder.encode_packed(features).words
        for i in range(features.shape[0]):
            np.testing.assert_array_equal(
                encoder.encode_packed(features[i : i + 1]).words[0], batch[i]
            )

    @pytest.fixture(scope="class")
    def wide_model(self, tiny_dataset):
        config = MEMHDConfig(dimension=1024, columns=32, epochs=2, seed=6)
        model = MEMHDModel(tiny_dataset.num_features, tiny_dataset.num_classes, config)
        model.fit(tiny_dataset.train_features, tiny_dataset.train_labels)
        return model

    @pytest.mark.parametrize("engine", ["float", "packed"])
    def test_predict_is_a_function_of_the_row(self, wide_model, tiny_dataset, engine):
        features = cancelling_rows(tiny_dataset.num_features, 64, seed=1)
        batch = wide_model.predict(features, engine=engine)
        single = [
            wide_model.predict(features[i : i + 1], engine=engine)[0] for i in range(64)
        ]
        np.testing.assert_array_equal(batch, single)

    def test_served_labels_equal_single_row_predict(self, wide_model, tiny_dataset):
        """Micro-batched serving under concurrent clients labels each row
        as an in-process single-row ``predict`` does."""
        features = cancelling_rows(tiny_dataset.num_features, 64, seed=2)
        expected = [
            int(wide_model.predict(features[i : i + 1], engine="packed")[0])
            for i in range(64)
        ]
        server = ModelServer(
            wide_model, engine="packed", max_batch_size=64, max_wait_ms=5.0, port=0
        ).start()
        served = {}
        failures = []

        def client(rows) -> None:
            try:
                for i in rows:
                    request = urllib.request.Request(
                        server.url + "/predict",
                        data=json.dumps({"features": [features[i].tolist()]}).encode(),
                        headers={"Content-Type": "application/json"},
                    )
                    with urllib.request.urlopen(request, timeout=30) as response:
                        served[i] = json.loads(response.read())["labels"][0]
            except Exception as error:  # noqa: BLE001 - reported below
                failures.append(error)

        try:
            threads = [
                threading.Thread(target=client, args=(range(t, 64, 8),))
                for t in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            server.shutdown()
        assert not failures
        assert [served[i] for i in range(64)] == expected


@pytest.fixture(params=["native", "numpy"])
def pinned_backend(request):
    """Pin each kernel backend in turn (native skipped where unavailable)."""
    if request.param == "native" and kernels.backend_name() != "native":
        pytest.skip("native kernel unavailable on this machine")
    kernels.set_backend(request.param)
    yield request.param
    kernels.set_backend(None)


class TestRowBlocks:
    """A batch past ``_ENCODE_BLOCK_ROWS`` is encoded one row block at a time."""

    BLOCK = 3

    def rows(self, encoder):
        """Seven rows; the later blocks hold rows the exact tier settles."""
        rng = np.random.default_rng(11)
        rows = rng.normal(size=(7, encoder.num_features))
        rows[[3, 6]] = cancelling_rows(encoder.num_features, 2, seed=11)
        rows[4, 2] = np.nan
        rows[5, 1] = np.inf
        return rows

    @pytest.mark.parametrize("count", [2, 3, 4, 7])
    def test_blocks_equal_one_block_and_single_rows(
        self, monkeypatch, pinned_backend, count
    ):
        encoder = RandomProjectionEncoder(24, 130, rng=10)
        features = self.rows(encoder)[:count]
        whole = encoder.encode_packed(features).words
        single = np.vstack(
            [encoder.encode_packed(features[i : i + 1]).words for i in range(count)]
        )
        settled = []
        settle = encoders._settle_open

        def recording_settle(block, columns, words, undecided):
            settled.append(block.shape[0])
            return settle(block, columns, words, undecided)

        monkeypatch.setattr(encoders, "_ENCODE_BLOCK_ROWS", self.BLOCK)
        monkeypatch.setattr(encoders, "_settle_open", recording_settle)
        blocked = encoder.encode_packed(features).words
        assert blocked.dtype == whole.dtype == np.uint64
        np.testing.assert_array_equal(blocked, whole)
        np.testing.assert_array_equal(blocked, single)
        with np.errstate(all="ignore"):
            expected = _exact_bits(encoder.projection, features)
        np.testing.assert_array_equal(_unpack(blocked)[:, :130], expected)
        # Rows 3-6 leave entries open: each later block settles its own.
        assert settled == {2: [], 3: [], 4: [1], 7: [3, 1]}[count]

    def test_blocked_model_predicts_as_one_block(self, monkeypatch, tiny_dataset):
        config = MEMHDConfig(dimension=256, columns=16, epochs=2, seed=3)
        args = (tiny_dataset.num_features, tiny_dataset.num_classes, config)
        whole = MEMHDModel(*args)
        whole.fit(tiny_dataset.train_features, tiny_dataset.train_labels)
        monkeypatch.setattr(encoders, "_ENCODE_BLOCK_ROWS", 7)
        blocked = MEMHDModel(*args)
        blocked.fit(tiny_dataset.train_features, tiny_dataset.train_labels)
        for name in ("fp_memory", "binary_memory", "column_classes"):
            np.testing.assert_array_equal(
                getattr(blocked.associative_memory, name),
                getattr(whole.associative_memory, name),
            )
        np.testing.assert_array_equal(
            blocked.predict(tiny_dataset.test_features, engine="packed"),
            whole.predict(tiny_dataset.test_features, engine="packed"),
        )

    def test_traced_peak_is_one_block(self, monkeypatch, pinned_backend):
        block, num_features, dimension = 256, 512, 256
        monkeypatch.setattr(encoders, "_ENCODE_BLOCK_ROWS", block)
        encoder = RandomProjectionEncoder(num_features, dimension, rng=9)
        features = np.random.default_rng(9).random((16 * block, num_features))
        encoder.encode_packed(features[:1])  # widening and kernel built untraced
        tracemalloc.start()
        try:
            words = encoder.encode_packed(features).words
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One block's float32 cast and sums, and the packer's two word arrays.
        allowance = block * (num_features + dimension) * 4 + 2 * words.nbytes // 16
        if pinned_backend == "numpy":
            allowance += block * num_features * 8  # the twin's float64 |x|
        assert peak <= words.nbytes + allowance + 2**16
        assert peak < features.shape[0] * num_features * 4  # under one whole cast


def _unpack(words: np.ndarray) -> np.ndarray:
    return np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")


def _settled(features, projection, result):
    """The words of one sum path's ``(words, open, count)``, settled."""
    words, undecided, count = result
    words = words.copy()
    if count:
        encoders._settle_open(features, projection, words, undecided)
    return words


def _assert_table_equals_gemm(encoder, features, expected=None):
    """The table lookup's and the GEMM's words, each path settled, are
    equal and are the exact bits (``expected``, by default
    :func:`_exact_bits`); so are each path's certified bits before
    settling."""
    projection, packer = encoder._operands()
    if expected is None:
        with np.errstate(all="ignore"):
            expected = _exact_bits(projection, features)
    with np.errstate(all="ignore"):
        sums = features.astype(np.float32) @ encoder.widened_projection()
    table, gemm = packer.encode(features), packer(features, sums)
    dimension = projection.shape[1]
    for words, undecided, count in (table, gemm):
        decided = _unpack(undecided)[:, :dimension] == 0
        bits = _unpack(words)[:, :dimension]
        np.testing.assert_array_equal(bits[decided], expected[decided])
        assert count == int((~decided).sum())
    table, gemm = (_settled(features, projection, path) for path in (table, gemm))
    np.testing.assert_array_equal(table, gemm)
    np.testing.assert_array_equal(_unpack(table)[:, :dimension], expected)


class TestTableLookup:
    """``SignPacker.encode`` sums from the projection's bits by table lookup;
    its packed words must equal the GEMM path's bit for bit."""

    @pytest.fixture(autouse=True)
    def native_only(self):
        if kernels.backend_name() != "native":
            pytest.skip("the table lookup is a native kernel")

    def rows(self, num_features, seed):
        """Random, integer-valued (exact ties), cancelling, zero, subnormal,
        limit-sized and non-finite rows."""
        rng = np.random.default_rng(seed)
        rows = [
            rng.normal(size=(3, num_features)),
            rng.integers(-2, 3, size=(3, num_features)).astype(np.float64),
            np.zeros((1, num_features)),
            rng.normal(size=(2, num_features)) * 2.0**-1070,
            rng.normal(size=(1, num_features)) * _TINY,
        ]
        if num_features > 1:
            rows.append(cancelling_rows(num_features, 3, seed=seed))
        special = np.tile(rng.normal(size=num_features), (6, 1))
        special[0, 0] = encoders._FAST_LIMIT  # ||x||_1 at the limit and past it
        special[1, 0] = -2.0 * encoders._FAST_LIMIT
        special[2, 0] = 1e300
        special[3, -1] = np.nan
        special[4, 0] = np.inf
        special[5, -1] = -np.inf
        rows.append(special)
        return np.vstack(rows)

    @pytest.mark.parametrize("num_features", [1, 7, 9, 100])
    @pytest.mark.parametrize("dimension", [1, 70, 130])
    def test_words_equal_the_gemm_path(self, num_features, dimension):
        encoder = RandomProjectionEncoder(num_features, dimension, rng=dimension)
        _assert_table_equals_gemm(encoder, self.rows(num_features, seed=num_features))

    def test_words_equal_the_gemm_path_at_real_width(self):
        encoder = RandomProjectionEncoder(784, 1000, rng=12)
        rng = np.random.default_rng(12)
        features = np.vstack([rng.random((8, 784)), cancelling_rows(784, 8, seed=12)])
        projection = encoder.projection.astype(np.float64)
        expected = np.array(
            [[math.fsum(row * col) >= 0 for col in projection.T] for row in features]
        )
        _assert_table_equals_gemm(encoder, features, expected)

    @settings(max_examples=100, deadline=None)
    @given(encoder_and_rows(elements=mixed) | encoder_and_cancelling_rows())
    def test_matches_the_exact_reference(self, case):
        _assert_table_equals_gemm(*case)

    def test_nonfinite_and_huge_rows_are_left_open(self):
        encoder = RandomProjectionEncoder(9, 70, rng=13)
        features = np.ones((4, 9))
        features[0, 3] = np.nan
        features[1, 8] = -np.inf
        features[2, 0] = encoders._FAST_LIMIT
        packer = encoder._operands()[1]
        _, undecided, count = packer.encode(features)
        assert _unpack(undecided)[:3, :70].all()
        assert not _unpack(undecided)[3].any()
        assert count == 3 * 70
        words, undecided, count = packer.encode(np.empty((0, 9)))
        assert words.shape == undecided.shape == (0, 2) and count == 0

    def test_row_bits_alone_equal_bits_in_a_gemm_batch(self, monkeypatch):
        """At a routed shape, a row alone takes the table lookup and a batch
        past the routing threshold takes the GEMM: same bits."""
        num_features, dimension = 100, encoders._TABLE_MIN_DIMENSION + 3
        encoder = RandomProjectionEncoder(num_features, dimension, rng=14)
        rows = np.vstack(
            [self.rows(num_features, seed=14), cancelling_rows(num_features, 8, 14)]
        )
        assert rows.shape[0] > encoders._TABLE_MAX_ROWS
        lookups = []
        encode = kernels.SignPacker.encode

        def recording_encode(packer, features):
            lookups.append(features.shape[0])
            return encode(packer, features)

        monkeypatch.setattr(kernels.SignPacker, "encode", recording_encode)
        single = np.vstack(
            [encoder.encode_packed(rows[i : i + 1]).words for i in range(len(rows))]
        )
        assert lookups == [1] * len(rows) and encoder._widened is None
        batch = encoder.encode_packed(rows).words
        assert lookups == [1] * len(rows) and encoder._widened is not None
        np.testing.assert_array_equal(single, batch)

    def test_routing_reads_rows_and_shape_only(self):
        route = encoders._takes_table_lookup
        wide = encoders._TABLE_MIN_DIMENSION
        assert route(1, 784, wide) and route(encoders._TABLE_MAX_ROWS, 784, 8192)
        assert not route(encoders._TABLE_MAX_ROWS + 1, 784, 8192)
        assert not route(1, 784, wide - 1) and not route(1, 784, 128)
        assert not route(0, 784, 8192)

    def test_concurrent_calls_use_their_own_scratch(self):
        encoder = RandomProjectionEncoder(100, 1030, rng=15)
        rows = cancelling_rows(100, 32, seed=15)
        expected = [encoder.encode_packed(rows[i : i + 1]).words for i in range(32)]
        failures = []

        def worker(offset):
            try:
                for _ in range(5):
                    for i in range(offset, 32, 4):
                        words = encoder.encode_packed(rows[i : i + 1]).words
                        np.testing.assert_array_equal(words, expected[i])
            except AssertionError as error:
                failures.append(error)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures


class TestSignPackKernel:
    LIMIT = 2.0**100

    @pytest.fixture
    def restore_backend(self):
        yield
        kernels.set_backend(None)

    def _cases(self, rng):
        """Kernel operands over odd widths: cancelling, zero, NaN, infinite
        and huge rows, and sums exactly at, or one float32 step inside,
        the float32 bound."""
        for num_features, dimension in [(1, 1), (3, 63), (8, 64), (13, 65), (40, 200)]:
            columns = rng.choice([-1.0, 1.0], size=(dimension, num_features))
            columns = columns.astype(np.float32)
            features = rng.normal(size=(8, num_features))
            if num_features > 1:
                seed = int(rng.integers(99))
                features[:3] = cancelling_rows(num_features, 3, seed=seed)
            features[3] = 0.0
            features[4, 0] = np.nan
            features[5, 0] = -np.inf
            features[6, 0] = 1e200
            with np.errstate(all="ignore"):
                values = features.astype(np.float32) @ columns.T
            coefficients = encoders._bound_coefficients(num_features)
            rel32, abs32 = coefficients[:2]
            norms = kernels._interleaved_sum(np.abs(features[7:]))
            hi = kernels._float32_up(norms * rel32 + abs32)[0]
            ties = np.array([hi, -hi, np.nextafter(hi, 0), -np.nextafter(hi, 0)])
            values[7, : min(4, dimension)] = ties[: min(4, dimension)]
            yield features, values, columns, coefficients

    def test_native_matches_numpy_twin(self, restore_backend):
        if kernels.backend_name() != "native":
            pytest.skip("native kernel unavailable on this machine")
        rng = np.random.default_rng(7)
        for features, values, columns, coefficients in self._cases(rng):
            packer = kernels.SignPacker(columns, coefficients, self.LIMIT)
            kernels.set_backend("native")
            native = packer(features, values)
            kernels.set_backend("numpy")
            twin = packer(features, values)
            np.testing.assert_array_equal(native[0], twin[0])
            np.testing.assert_array_equal(native[1], twin[1])
            assert native[2] == twin[2]

    def test_contract(self):
        rng = np.random.default_rng(8)
        for features, values, columns, coefficients in self._cases(rng):
            packer = kernels.SignPacker(columns, coefficients, self.LIMIT)
            words, undecided, count = packer(features, values)
            dimension = values.shape[1]
            bits, open_bits = _unpack(words), _unpack(undecided)
            assert not bits[:, dimension:].any()
            assert not open_bits[:, dimension:].any()
            assert count == int(open_bits.sum())
            bits, open_bits = bits[:, :dimension], open_bits[:, :dimension]
            # Skipped rows are open throughout; the zero row is all ties.
            assert open_bits[4:7].all() and not bits[4:7].any()
            assert bits[3].all() and not open_bits[3].any()
            # Every decided bit is the exact sign.
            with np.errstate(all="ignore"):
                expected = _exact_bits(columns.T.astype(np.int8), features)
            decided = open_bits == 0
            np.testing.assert_array_equal(bits[decided], expected[decided])
            # A sum at the float32 bound is not certified by that tier.
            rel32, abs32 = coefficients[:2]
            hi = kernels._float32_up(
                kernels._interleaved_sum(np.abs(features[7:])) * rel32 + abs32
            )[0]
            assert (np.abs(values[7]) >= hi).any()

    def test_rounds_the_float32_bound_up(self):
        bound = np.array([1.0 + 2.0**-40, 2.0**-149 / 3, 4.0])
        hi = kernels._float32_up(bound)
        assert hi.dtype == np.float32
        assert (hi.astype(np.float64) >= bound).all()
        assert hi[2] == 4.0 and hi[0] == np.nextafter(np.float32(1.0), np.float32(2.0))

    def test_shapes_are_checked(self):
        packer = kernels.SignPacker(np.zeros((5, 2)), (1.0, 0.0, 1.0, 0.0), 1.0)
        with pytest.raises(ValueError, match="shape mismatch"):
            packer(np.zeros((3, 2)), np.zeros((2, 5), np.float32))
