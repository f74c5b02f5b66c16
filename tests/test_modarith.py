import pytest

from nttkit import modarith
from nttkit.errors import InvalidRoot, NoSuchRoot, NotInvertible
from nttkit.modarith import (
    BIT_REVERSED,
    NATURAL,
    bitrev,
    bitrev_permutation,
    build_twiddles,
    counting,
    find_root,
    is_primitive_root,
    is_principal_root,
    mod_inv,
    mod_mul,
)


def test_mod_mul_examples():
    assert mod_mul(0, 5, 17) == 0
    assert mod_mul(1, 5, 17) == 5
    # 7680 = -1 mod 7681, squared
    assert mod_mul(7680, 7680, 7681) == 1


def test_mod_inv_examples():
    assert mod_inv(1, 17) == 1
    assert mod_inv(2, 17) == 9  # 2*9 = 18 = 1
    with pytest.raises(NotInvertible):
        mod_inv(2, 8)


def test_mod_inv_involution(rng):
    for _ in range(200):
        m = rng.choice([17, 97, 3329, 7681, 12289])
        a = rng.randrange(1, m)
        assert mod_mul(a, mod_inv(a, m), m) == 1
        assert mod_inv(mod_inv(a, m), m) == a


def test_primitive_root_examples():
    assert is_primitive_root(1, 1, 17)
    assert is_primitive_root(2, 8, 17)  # 2^4 = 16 != 1, 2^8 = 1
    assert not is_primitive_root(4, 8, 17)  # order 4


def test_principal_root_trivia():
    for m in (3, 17, 97):
        assert not is_principal_root(1, 2, m)  # 1 + 1 != 0


def test_primitive_principal_agree_prime_small():
    # quantified over all residues for prime m <= 100, all k | m-1
    for m in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
              53, 59, 61, 67, 71, 73, 79, 83, 89, 97):
        for k in range(1, m):
            if (m - 1) % k:
                continue
            for psi in range(m):
                assert is_primitive_root(psi, k, m) == is_principal_root(psi, k, m), (m, k, psi)


def test_primitive_principal_agree_prime_sampled(rng):
    for m in (3329, 7681, 12289):
        for _ in range(20):
            k = rng.choice([2, 4, 8, 16, 32, 64, 128, 256])
            psi = rng.randrange(m)
            assert is_primitive_root(psi, k, m) == is_principal_root(psi, k, m)


def test_principal_composite_512_vs_256():
    # gcd(7680, 3328) = 256, so no principal 512th root exists mod the product
    N = 7681 * 3329
    from nttkit.bigmod import RnsBasis, find_principal_root_composite

    basis = RnsBasis((7681, 3329))
    with pytest.raises(NoSuchRoot):
        find_principal_root_composite(512, basis)
    r = find_principal_root_composite(256, basis)
    assert is_principal_root(r, 256, N)
    assert not is_principal_root(r, 512, N)


def test_find_root_examples():
    assert find_root(8, 17) == 2
    for m in (17, 97, 3329):
        assert find_root(2, m) == m - 1
    with pytest.raises(NoSuchRoot):
        find_root(512, 3329)  # 512 does not divide 3328


def test_find_root_matches_exhaustive_search():
    # the subgroup-minimum shortcut equals ascending brute force
    for m in (17, 97, 257):
        for k in (1, 2, 4, 8, 16):
            if (m - 1) % k:
                continue
            brute = next(x for x in range(1, m) if is_primitive_root(x, k, m))
            assert find_root(k, m) == brute, (m, k)


def test_find_root_deterministic():
    assert find_root(256, 3329) == find_root(256, 3329)
    assert find_root(512, 7681) == find_root(512, 7681)


def test_bitrev_examples():
    assert bitrev(0, 8) == 0
    assert bitrev(3, 8) == 6  # 011 -> 110
    assert bitrev(1, 8) == 4  # 001 -> 100


def test_bitrev_involution():
    n = 2
    while n <= 1024:
        for b in range(n):
            assert bitrev(bitrev(b, n), n) == b
        n *= 2


def test_bitrev_permutation_matches_bitrev():
    # every twiddle exponent of the transforms comes from the permutation
    for k in range(13):
        n = 1 << k
        assert bitrev_permutation(n) == [bitrev(i, n) for i in range(n)]


def test_build_twiddles_examples():
    assert build_twiddles(1, 1, 17).powers == (1,)
    nat = build_twiddles(2, 8, 17, NATURAL)
    assert nat.powers == (1, 2, 4, 8, 16, 15, 13, 9)
    rev = build_twiddles(2, 8, 17, BIT_REVERSED)
    assert rev.powers == (1, 16, 4, 13, 2, 15, 8, 9)
    # exponent accessor agrees regardless of storage
    for e in range(8):
        assert nat.power_of_base(e) == rev.power_of_base(e) == pow(2, e, 17)


def test_build_twiddles_rejects_bad_root():
    with pytest.raises(InvalidRoot):
        build_twiddles(4, 8, 17)  # order 4, not 8


def test_twiddles_positionwise_inverse():
    fwd = build_twiddles(2, 8, 17, NATURAL)
    inv = build_twiddles(2, 8, 17, NATURAL, inverse=True)
    for x, y in zip(fwd.powers, inv.powers):
        assert x * y % 17 == 1


def test_opcounter_counting():
    with counting() as c:
        mod_mul(3, 4, 17)
        mod_mul(3, 4, 17)
    assert c.mults == 2
    before = c.mults
    mod_mul(3, 4, 17)  # outside the region: not counted
    assert c.mults == before
    c.reset()
    assert c.total() == 0


def test_counter_nesting_restores():
    with counting() as outer:
        mod_mul(1, 1, 5)
        with counting() as inner:
            mod_mul(1, 1, 5)
        mod_mul(1, 1, 5)
    assert inner.mults == 1 and outer.mults == 2


def test_modulus_ceiling():
    with pytest.raises(ValueError):
        modarith.check_modulus(1)
    with pytest.raises(ValueError):
        modarith.check_modulus((1 << 42) + 1)
    assert modarith.check_modulus(549755809793) == 549755809793  # largest preset N fits


def test_counters_are_per_thread():
    # two threads count different products at once; a shared counter
    # would mix their tallies
    import sys
    import threading

    from nttkit.polymul import basecase_mul, make_transform_pair, ntt_multiply
    from nttkit.rings import Poly, RingSpec

    ring = RingSpec("x^n+1", 64, 7681)
    pair = make_transform_pair(ring, 1)
    a = Poly.from_ints(range(64), ring)
    u, v = list(range(1, 9)), list(range(9, 17))
    work = {
        "ntt": lambda: ntt_multiply(a, a, pair, use_karatsuba=True),
        "leaf": lambda: basecase_mul(u, v, 3, 7681, True),
    }
    rounds = 200
    expected = {}
    for name, fn in work.items():
        with counting() as c:
            fn()
        expected[name] = (c.mults * rounds, c.adds * rounds, c.subs * rounds)
    assert expected["ntt"] != expected["leaf"]
    got = {}
    barrier = threading.Barrier(len(work))

    def run(name):
        barrier.wait(timeout=30)
        with counting() as c:
            for _ in range(rounds):
                work[name]()
        got[name] = (c.mults, c.adds, c.subs)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(name,)) for name in work]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert got == expected


def test_new_thread_starts_without_a_counter():
    import threading

    seen = []
    with counting():
        t = threading.Thread(target=lambda: seen.append(modarith.active_counter()))
        t.start()
        t.join(timeout=30)
    assert not t.is_alive() and seen == [None]
