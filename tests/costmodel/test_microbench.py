"""The Table II micro-benchmark (fast settings)."""

from __future__ import annotations

from repro.costmodel.microbench import measure_constants


def test_measures_all_constants_positive() -> None:
    constants = measure_constants(repeat=2, inner_loops=20)
    us = constants.as_microseconds()
    assert set(us) == {
        "C_sk", "C_RSA", "C_HM1", "C_HM256", "C_A20", "C_A32", "C_M32", "C_M128", "C_MI32",
    }
    assert all(v > 0 for v in us.values())


def test_relative_magnitudes_sane() -> None:
    """Orderings any host must satisfy — they drive the paper's analysis."""
    c = measure_constants(repeat=2, inner_loops=20)
    assert c.c_a32 < c.c_hm1       # an addition is cheaper than an HMAC
    assert c.c_m128 > c.c_m32 * 0.8  # 1024-bit mults cost >= 256-bit ones
    assert c.c_rsa > c.c_m128      # RSA is at least one big multiplication
    assert c.c_mi32 > c.c_m32      # inverses cost more than multiplications


def test_results_are_cached_per_settings() -> None:
    a = measure_constants(repeat=2, inner_loops=20)
    b = measure_constants(repeat=2, inner_loops=20)
    assert a is b


def test_fresh_retimes_and_leaves_the_cache() -> None:
    cached = measure_constants(repeat=2, inner_loops=20)
    fresh = measure_constants(repeat=2, inner_loops=20, fresh=True)
    assert fresh is not cached
    assert set(vars(fresh)) == set(vars(cached))
    assert measure_constants(repeat=2, inner_loops=20) is cached
