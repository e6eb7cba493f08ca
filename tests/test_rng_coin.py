"""Random streams and the ideal weak coin flip functionality."""

import hashlib
from fractions import Fraction as F

import pytest

from ce_sampler import (
    CheaterRequest,
    RandomStream,
    WcfSpec,
    flip_law,
    run_honest,
    run_with_cheater,
)


class TestRandomStream:
    def test_same_address_same_sequence(self):
        a = RandomStream(42).child(3, 1)
        b = RandomStream(42).child(3, 1)
        assert [a.randbelow(1000) for _ in range(20)] == [b.randbelow(1000) for _ in range(20)]

    def test_children_independent_of_creation_order(self):
        root = RandomStream(7)
        first = root.child(1)
        draws_before = [first.randbelow(100) for _ in range(5)]
        # Creating and consuming a sibling must not disturb child 1.
        other = root.child(0)
        other.randbelow(100)
        again = RandomStream(7).child(1)
        assert [again.randbelow(100) for _ in range(5)] == draws_before

    def test_distinct_paths_differ(self):
        root = RandomStream(42)
        assert [root.child(0).randbelow(10**6)] != [root.child(1).randbelow(10**6)]

    def test_bernoulli_edge_probabilities(self):
        stream = RandomStream(1)
        assert not any(stream.bernoulli(F(0)) for _ in range(50))
        assert all(stream.bernoulli(F(1)) for _ in range(50))
        with pytest.raises(ValueError):
            stream.bernoulli(F(3, 2))

    def test_bernoulli_frequency(self):
        stream = RandomStream(99)
        n = 20_000
        hits = sum(stream.bernoulli(F(1, 5)) for _ in range(n))
        assert abs(hits / n - 0.2) < 0.02

    @pytest.mark.parametrize(
        "p",
        [F(1, 3), F(2, 7), F(31, 60), F(513, 2**10 + 1), F(2**599 // 3, 2**600 + 1)],
        ids=["1/3", "2/7", "31/60", "2^m+1", "wider-than-a-digest"],
    )
    def test_bernoulli_frequency_awkward_denominators(self, p):
        # 2^m + 1 rejects almost half of its draws; a denominator above
        # 2^512 concatenates two digests per draw.
        stream = RandomStream(31)
        n = 20_000
        hits = sum(stream.bernoulli(p) for _ in range(n))
        assert abs(F(hits, n) - p) < F(2, 100)

    KNOWN_ANSWERS = [
        ((0, (), 2), [0, 0, 1, 1, 0, 0]),
        ((20108, (7,), 6), [2, 2, 2, 0, 0, 5]),
        ((-5, (3, 1), 10**6), [313066, 165696, 920477, 612984, 717533, 345749]),
        ((1, (2**70,), 2**64 + 1), [
            8292083924681105866, 68169364233213942, 5804555065578976770,
            2654419449298625734, 2906576713659959520, 9007729119731724968,
        ]),
    ]

    @pytest.mark.parametrize("address, draws", KNOWN_ANSWERS, ids=lambda v: str(v)[:24])
    def test_randbelow_known_answers(self, address, draws):
        seed, path, n = address
        stream = RandomStream(seed, path)
        assert [stream.randbelow(n) for _ in draws] == draws

    def test_wide_bound_concatenates_consecutive_digests(self):
        # Draw c hashes the address and then c as 8 little-endian bytes;
        # a 600-bit bound takes the top 600 bits of draws 0 and 1.
        address = b"ce-sampler counter stream 1;4e8c:5,;"
        digests = [
            hashlib.blake2b(address + c.to_bytes(8, "little")).digest() for c in range(3)
        ]
        stream = RandomStream(20108, (5,))
        assert stream.randbelow(2**600) == int.from_bytes(digests[0] + digests[1], "big") >> 424
        assert stream.randbelow(2) == digests[2][0] >> 7

    def test_nested_children_share_an_address(self):
        flat, nested = RandomStream(5).child(3, 8), RandomStream(5).child(3).child(8)
        assert flat.path == nested.path == (3, 8)
        assert [flat.randbelow(10**9) for _ in range(10)] == [nested.randbelow(10**9) for _ in range(10)]

    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda: RandomStream(1.5), "seed"),
            (lambda: RandomStream(True), "seed"),
            (lambda: RandomStream("1"), "seed"),
            (lambda: RandomStream(1, (2, 1.0)), "path index"),
            (lambda: RandomStream(1, (False,)), "path index"),
            (lambda: RandomStream(1).child(True), "path index"),
        ],
    )
    def test_address_accepts_only_ints(self, make, field):
        with pytest.raises(TypeError, match=f"stream {field} must be an int"):
            make()


class TestHonestFlip:
    def test_fair_within_sampling_error(self):
        spec = WcfSpec(preferred_value_alice=0, bias=F(1, 10))
        stream = RandomStream(5)
        n = 20_000
        zeros = sum(run_honest(spec, stream) == 0 for _ in range(n))
        assert abs(zeros / n - 0.5) < 0.02

    def test_honest_path_ignores_bias(self):
        outcomes_low = [run_honest(WcfSpec(0, F(0)), RandomStream(8).child(i)) for i in range(200)]
        outcomes_high = [run_honest(WcfSpec(0, F(2, 5)), RandomStream(8).child(i)) for i in range(200)]
        assert outcomes_low == outcomes_high

    def test_win_indicator_independent_of_preferred_value(self):
        # The same randomness decides "does Alice win"; the output bit
        # then follows her preferred value.
        for i in range(50):
            got_zero = run_honest(WcfSpec(0, F(0)), RandomStream(3).child(i))
            got_one = run_honest(WcfSpec(1, F(0)), RandomStream(3).child(i))
            assert got_zero == 1 - got_one

    def test_reproducible_given_seed(self):
        spec = WcfSpec(1, F(1, 4))
        assert run_honest(spec, RandomStream(123)) == run_honest(spec, RandomStream(123))

    def test_never_unresolved(self):
        spec = WcfSpec(0, F(1, 8))
        for i in range(100):
            assert run_honest(spec, RandomStream(4).child(i)) in (0, 1)


class TestCheatingFlip:
    def test_win_probability_is_clamped_request(self):
        spec = WcfSpec(preferred_value_alice=0, bias=F(1, 10))
        for w in (F(0), F(1, 4), F(1, 2), F(3, 5), F(1)):
            bit, granted = flip_law(spec, "alice", CheaterRequest(w))
            assert (bit, granted) == (0, min(w, F(1, 2) + F(1, 10)))

    def test_bob_wins_on_opposite_bit(self):
        spec = WcfSpec(preferred_value_alice=0, bias=F(1, 20))
        assert flip_law(spec, "bob", CheaterRequest(F(1))) == (1, F(1, 2) + F(1, 20))

    def test_saturated_request(self):
        spec = WcfSpec(0, F(1, 10))
        assert flip_law(spec, "alice", CheaterRequest(F(1, 2) + F(1, 10))) == (0, F(3, 5))

    def test_deliberate_loss_is_certain(self):
        spec = WcfSpec(0, F(1, 10))
        for i in range(50):
            outcome = run_with_cheater(spec, "alice", CheaterRequest(F(0)), RandomStream(6).child(i))
            assert outcome == 1  # Alice's losing value

    def test_empirical_matches_exact_distribution(self):
        spec = WcfSpec(1, F(1, 8))
        request = CheaterRequest(F(2, 5))
        bit, win = flip_law(spec, "bob", request)
        n = 20_000
        root = RandomStream(77)
        wins = sum(
            run_with_cheater(spec, "bob", request, root.child(i)) == bit
            for i in range(n)
        )
        assert abs(wins / n - float(win)) < 0.02

    @pytest.mark.parametrize("preferred", [0, 1])
    @pytest.mark.parametrize("role", ["alice", "bob"])
    def test_law_names_the_cheaters_bit_and_its_clamped_probability(self, preferred, role):
        spec = WcfSpec(preferred, F(1, 10))
        wins_on = preferred if role == "alice" else 1 - preferred
        assert flip_law(spec) == (preferred, F(1, 2))
        for w in (F(0), F(1, 3), F(3, 5), F(1)):
            granted = min(w, F(3, 5))
            assert flip_law(spec, role, CheaterRequest(w)) == (wins_on, granted)


class TestValidation:
    def test_bias_range(self):
        with pytest.raises(ValueError):
            WcfSpec(0, F(1, 2))
        with pytest.raises(ValueError):
            WcfSpec(0, F(-1, 10))

    def test_preferred_value_is_a_bit(self):
        with pytest.raises(ValueError):
            WcfSpec(2, F(1, 10))

    def test_request_range(self):
        with pytest.raises(ValueError):
            CheaterRequest(F(11, 10))

    def test_unknown_party(self):
        spec = WcfSpec(0, F(1, 10))
        with pytest.raises(ValueError):
            spec.winning_value("carol")
