"""Protocol state machines: rounds, transcripts, behaviors, exact distribution."""

import itertools
import random
import re
import tracemalloc
from fractions import Fraction as F

import pytest

import ce_sampler.protocol as protocol
from ce_sampler import (
    HonestParty,
    JointDistribution,
    JointStrategy,
    PolicyParty,
    PreferenceOracle,
    ProtocolConfig,
    RandomStream,
    ScriptedParty,
    check_ce,
    emulate,
    normalize,
    play_extended_game,
    run_protocol,
    simulate_outputs,
)
from ce_sampler.analysis import honest_output_distribution, worst_case_adversary
from conftest import block_average, preferred_bit, random_distribution, random_rational_game


class ScriptedCoins:
    """Stand-in stream whose bernoulli draws follow a fixed script.

    Lets a test walk the protocol down a chosen branch of the round tree
    and account for its exact probability.
    """

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.consumed = 0

    def bernoulli(self, p: F) -> bool:
        assert p == F(1, 2), "honest rounds flip fair coins"
        self.consumed += 1
        return self.outcomes.pop(0)


def exact_output_distribution(game, p, config, em):
    """Oracle: enumerate every coin script and weight it by (1/2)^flips."""
    dist: dict = {}
    k = config.k
    for script in itertools.product([True, False], repeat=k):
        stream = ScriptedCoins(script)
        transcript = run_protocol(
            game, p, config, HonestParty(), HonestParty(), stream,
            em=em, record_messages=False, warn_not_ce=False,
        )
        # Each distinct run with n consumed flips is enumerated 2^(k-n)
        # times here, so adding 2^-k per enumeration weights it 2^-n.
        dist[transcript.ell] = dist.get(transcript.ell, F(0)) + F(1, 2**k)
    return dist


class TestPreferences:
    def test_bos_root_preferences(self, bos, bos_fair_ce):
        oracle = PreferenceOracle(emulate(bos, bos_fair_ce, F(1, 2)), bos)
        assert oracle.preference(1, ()) == 1
        assert oracle.preference(2, ()) == -1

    def test_tie_prefers_zero(self, bos):
        point = JointDistribution.point_mass(JointStrategy(0, 0))
        oracle = PreferenceOracle(emulate(bos, point, F(1, 2)), bos)
        for player in (1, 2):
            assert oracle.preference(player, ()) == 1

    def test_matches_conditional_utilities(self, bos, bos_fair_ce):
        em = emulate(bos, bos_fair_ce, F(1, 2))
        oracle = PreferenceOracle(em, bos)
        for player in (1, 2):
            expected = 1 if preferred_bit(em, bos, player, ()) == 0 else -1
            assert oracle.preference(player, ()) == expected


class TestFirstRound:
    """The first round of ``run_protocol``: agreement fixes the bit, a mismatch flips for it."""

    @pytest.fixture
    def first_round(self, bos, bos_fair_ce):
        em = emulate(bos, bos_fair_ce, F(1, 2))
        config = ProtocolConfig(F(1, 10), F(1, 2), em.k)

        def first(party1, party2, randomness):
            transcript = run_protocol(
                bos, bos_fair_ce, config, party1, party2, randomness,
                em=em, record_messages=False, warn_not_ce=False,
            )
            return transcript.rounds[0]

        return first

    def test_matching_positive_signs_fix_zero(self, first_round):
        p1 = ScriptedParty(announce={(): 1})
        p2 = ScriptedParty(announce={(): 1})
        record = first_round(p1, p2, RandomStream(0))
        assert (record.index, record.resolution, record.bit) == (1, "agreed", 0)

    def test_matching_negative_signs_fix_one(self, first_round):
        p1 = ScriptedParty(announce={(): -1})
        p2 = ScriptedParty(announce={(): -1})
        record = first_round(p1, p2, RandomStream(0))
        assert (record.index, record.resolution, record.bit) == (1, "agreed", 1)

    def test_disagreement_flips_fairly(self, first_round):
        p1 = HonestParty()
        p2 = HonestParty()
        records = [first_round(p1, p2, RandomStream(0).child(i)) for i in range(40)]
        assert {r.resolution for r in records} == {"coin"}
        assert {r.bit for r in records} == {0, 1}

    def test_both_cheaters_rejected(self, first_round):
        p1 = ScriptedParty(win_request={(): F(1, 2)})
        p2 = ScriptedParty(win_request={(): F(1, 2)})
        with pytest.raises(RuntimeError):
            first_round(p1, p2, RandomStream(0))


class TestRunProtocol:
    def test_honest_run_matches_exact_distribution(self, bos, bos_fair_ce):
        em = emulate(bos, bos_fair_ce, F(1, 2))
        config = ProtocolConfig(F(1, 10), F(1, 2), em.k)
        oracle_dist = exact_output_distribution(bos, bos_fair_ce, config, em)
        assert oracle_dist == honest_output_distribution(em, bos)
        assert oracle_dist == {(0, 0, 0): F(1, 2), (1, 0, 0): F(1, 2)}

    def test_honest_run_matches_exact_distribution_random(self):
        rng = random.Random(101)
        for _ in range(6):
            game = random_rational_game(rng, 2, rng.randint(2, 3))
            p = random_distribution(rng, list(game.cells()))
            em = emulate(game, p, F(1, 2))
            config = ProtocolConfig(F(1, 10), F(1, 2), em.k)
            assert exact_output_distribution(game, p, config, em) == honest_output_distribution(
                em, game
            )

    def test_point_mass_never_flips(self, bos):
        point = JointDistribution.point_mass(JointStrategy(1, 1))
        em = emulate(bos, point, F(1, 2))
        config = ProtocolConfig(F(1, 10), F(1, 2), em.k)
        for seed in range(5):
            transcript = run_protocol(
                bos, point, config, HonestParty(), HonestParty(), RandomStream(seed),
                warn_not_ce=False,
            )
            assert all(r.resolution == "agreed" for r in transcript.rounds)
            assert transcript.output == (1, 1)

    def test_transcript_structure(self, bos, bos_fair_ce):
        em = emulate(bos, bos_fair_ce, F(1, 2))
        config = ProtocolConfig(F(1, 10), F(1, 2), em.k)
        assert config.per_round_bias == F(1, 10) / (2 * 3)
        transcript = run_protocol(
            bos, bos_fair_ce, config, HonestParty(), HonestParty(), RandomStream(2)
        )
        assert len(transcript.rounds) == config.k
        assert transcript.output == em.table[
            sum(b << (em.k - 1 - i) for i, b in enumerate(transcript.ell))
        ]
        preference_messages = [m for m in transcript.messages if m.kind == "preference"]
        assert len(preference_messages) == 2 * config.k
        coin_messages = [m for m in transcript.messages if m.kind == "coin_result"]
        coin_rounds = [r for r in transcript.rounds if r.resolution == "coin"]
        assert len(coin_messages) == 2 * len(coin_rounds)

    def test_rejects_mismatched_round_count(self, bos, bos_fair_ce):
        em = emulate(bos, bos_fair_ce, F(1, 2))
        config = ProtocolConfig(F(1, 10), F(1, 2), em.k + 1)
        with pytest.raises(ValueError):
            run_protocol(bos, bos_fair_ce, config, HonestParty(), HonestParty(),
                         RandomStream(0), em=em)

    def test_warns_on_non_equilibrium_input(self, bos):
        lopsided = JointDistribution.point_mass(JointStrategy(0, 1))
        config = ProtocolConfig.plan(bos, F(1, 10), F(1, 2))
        with pytest.warns(UserWarning):
            run_protocol(bos, lopsided, config, HonestParty(), HonestParty(), RandomStream(0))

    def test_ce_check_runs_once_per_distribution(self, bos, monkeypatch):
        # The emulation is given, but the run binding still keys on ``p``:
        # the verdict is kept per ``p`` object, and every call warns.
        checked = []

        def counting_check_ce(game, p):
            checked.append(p)
            return check_ce(game, p)

        monkeypatch.setattr(protocol, "check_ce", counting_check_ce)
        lopsided = JointDistribution.point_mass(JointStrategy(0, 1))
        config = ProtocolConfig.plan(bos, F(1, 10), F(1, 2))
        em = emulate(bos, lopsided, config.delta)
        parties = (HonestParty(), HonestParty())
        for t in range(3):
            with pytest.warns(UserWarning):
                run_protocol(bos, lopsided, config, *parties, RandomStream(t), em=em)
        assert len(checked) == 1 and checked[0] is lopsided
        again = JointDistribution.point_mass(JointStrategy(0, 1))
        for t in range(2):
            with pytest.warns(UserWarning):
                run_protocol(bos, again, config, *parties, RandomStream(t), em=em)
        assert len(checked) == 2 and checked[1] is again

    def test_one_oracle_per_binding(self, bos, bos_fair_ce, monkeypatch):
        # Trials on the same objects share one binding and so one oracle;
        # a new ``p`` object rebinds, building one more and checking it once.
        built, checked = [], []

        class CountingOracle(PreferenceOracle):
            def __init__(self, em, game):
                built.append(em)
                super().__init__(em, game)

        def counting_check_ce(game, p):
            checked.append(p)
            return check_ce(game, p)

        monkeypatch.setattr(protocol, "PreferenceOracle", CountingOracle)
        monkeypatch.setattr(protocol, "check_ce", counting_check_ce)
        em = emulate(bos, bos_fair_ce, F(1, 2))
        config = ProtocolConfig(F(1, 10), F(1, 2), em.k)
        parties = (HonestParty(), HonestParty())
        for t in range(12):
            play_extended_game(bos, bos_fair_ce, config, *parties, RandomStream(t), em=em)
        assert len(built) == 1 and built[0] is em
        assert len(checked) == 1
        again = JointDistribution(dict(bos_fair_ce.probs))
        for t in range(5):
            play_extended_game(bos, again, config, *parties, RandomStream(t), em=em)
        assert len(built) == 2
        assert len(checked) == 2 and checked[1] is again

    def test_agreed_rounds_improve_both_players(self):
        # Wherever the honest parties agree, the chosen branch must be
        # weakly better than the alternative for both of them.
        rng = random.Random(103)
        for _ in range(8):
            game = random_rational_game(rng, rng.randint(2, 3), rng.randint(2, 3))
            p = random_distribution(rng, list(game.cells()))
            em = emulate(game, p, F(1, 2))
            oracle = PreferenceOracle(em, game)

            def walk(prefix):
                if len(prefix) == em.k:
                    return
                signs = [oracle.preference(pl, prefix) for pl in (1, 2)]
                if signs[0] == signs[1]:
                    chosen = 0 if signs[0] == 1 else 1
                    for player in (1, 2):
                        better = block_average(em, game, player, (*prefix, chosen))
                        worse = block_average(em, game, player, (*prefix, 1 - chosen))
                        assert better >= worse
                walk(prefix + (0,))
                walk(prefix + (1,))

            walk(())


class TestBehaviors:
    @pytest.mark.parametrize(
        "policy",
        [{(): F(3, 2)}, {(0, 1, 1, 1, 1): F(1, 2)}, {(2,): F(1, 2)}],
        ids=["w-above-one", "prefix-too-long", "prefix-not-bits"],
    )
    def test_bad_policy_raises_when_the_run_starts(self, bos, bos_fair_ce, policy):
        em = emulate(bos, bos_fair_ce, F(1, 2))
        config = ProtocolConfig(F(1, 10), F(1, 2), em.k)
        assert em.k == 3
        cheater = PolicyParty(policy)
        (prefix,) = policy
        with pytest.raises(ValueError, match=re.escape(str(prefix))):
            run_protocol(bos, bos_fair_ce, config, cheater, HonestParty(), RandomStream(0), em=em)

    def test_a_node_the_policy_does_not_hold_is_played_as_sigma(self, bos, bos_fair_ce):
        em = emulate(bos, bos_fair_ce, F(1, 2))
        config = ProtocolConfig(F(1, 10), F(1, 2), em.k)

        def sample(party1, party2):
            return simulate_outputs(
                bos, bos_fair_ce, config, party1, party2, RandomStream(3), 400, em=em
            )

        honest = sample(HonestParty(), HonestParty())
        assert set(honest) == {(0, 0, 0), (1, 0, 0)}  # the root is a coin
        assert sample(PolicyParty({}), HonestParty()) == honest
        assert sample(HonestParty(), PolicyParty({})) == honest
        # A held node at w = 0 still throws its flip to the honest side.
        assert sample(PolicyParty({(): 0}), HonestParty()) == {(1, 0, 0): 400}
        assert sample(HonestParty(), PolicyParty({(): 0})) == {(0, 0, 0): 400}

    def test_greedy_party_builds_nothing_of_size_2_to_the_k(self, bos):
        # bos's mixed equilibrium is not dyadic, so its table has mixed nodes at every depth.
        cells = (JointStrategy(0, 0), JointStrategy(0, 1), JointStrategy(1, 0), JointStrategy(1, 1))
        mixed = JointDistribution(dict(zip(cells, (F(2, 9), F(4, 9), F(1, 9), F(2, 9)))))
        delta = F(bos.n_cells, 1 << 18)
        em = emulate(bos, mixed, delta)
        assert em.k == 18
        em.mixed_nodes  # built before tracing: the run scan belongs to the emulation
        config = ProtocolConfig(F(1, 10), delta, em.k)
        adv = worst_case_adversary(em, normalize(bos), config.per_round_bias, 1, power="truthful")
        tracemalloc.start()
        try:
            party = PolicyParty(adv.policy)
            counts = simulate_outputs(
                bos, mixed, config, party, HonestParty(), RandomStream(3), 100, em=em
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(counts.values()) == 100 and set(counts) <= set(adv.leaf_distribution)
        assert peak < 1 << 20, peak

    def test_policy_party_requests_logged(self, bos, bos_fair_ce):
        em = emulate(bos, bos_fair_ce, F(1, 2))
        config = ProtocolConfig(F(1, 10), F(1, 2), em.k)
        adv = worst_case_adversary(em, bos, config.per_round_bias, dishonest=1)
        transcript = run_protocol(
            bos, bos_fair_ce, config, PolicyParty(adv.policy), HonestParty(), RandomStream(11)
        )
        coin_rounds = [r for r in transcript.rounds if r.resolution == "coin"]
        assert coin_rounds and all(r.cheater == 1 for r in coin_rounds)
        assert coin_rounds[0].win_request == F(1, 2) + config.per_round_bias

    def test_scripted_party_defaults_to_honest(self, bos, bos_fair_ce):
        em = emulate(bos, bos_fair_ce, F(1, 2))
        config = ProtocolConfig(F(1, 10), F(1, 2), em.k)
        scripted = ScriptedParty()
        honest_counts = simulate_outputs(
            bos, bos_fair_ce, config, HonestParty(), HonestParty(), RandomStream(21), 500
        )
        scripted_counts = simulate_outputs(
            bos, bos_fair_ce, config, scripted, HonestParty(), RandomStream(21), 500
        )
        assert honest_counts == scripted_counts

    def test_simulation_counts_are_seed_stable(self, bos, bos_fair_ce):
        config = ProtocolConfig.plan(bos, F(1, 10), F(1, 2))
        first = simulate_outputs(
            bos, bos_fair_ce, config, HonestParty(), HonestParty(), RandomStream(31), 400
        )
        second = simulate_outputs(
            bos, bos_fair_ce, config, HonestParty(), HonestParty(), RandomStream(31), 400
        )
        assert first == second
        assert sum(first.values()) == 400

    def test_honest_empirical_frequencies(self, bos, bos_fair_ce):
        config = ProtocolConfig.plan(bos, F(1, 10), F(1, 2))
        counts = simulate_outputs(
            bos, bos_fair_ce, config, HonestParty(), HonestParty(), RandomStream(41), 4000
        )
        assert set(counts) == {(0, 0, 0), (1, 0, 0)}
        assert abs(counts[(0, 0, 0)] / 4000 - 0.5) < 0.05


class TestScriptedPartyValidation:
    """Values a party script file may not hold are rejected in Python too."""

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(announce={(): 2}), "announce"),
            (dict(announce={(0,): "up"}), "announce"),
            (dict(win_request={(1,): F(3, 2)}), "win_request"),
            (dict(win_request={(): "lots"}), "win_request"),
            (dict(move=-1), "game_move"),
            (dict(move="1"), "game_move"),
            (dict(move=True), "game_move"),
            (dict(check="maybe"), "check_move"),
        ],
        ids=["sign", "sign-word", "request-above-one", "request-not-rational",
             "move-negative", "move-str", "move-bool", "check"],
    )
    def test_constructor_rejects(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            ScriptedParty(**kwargs)

    def test_signs_may_be_strings(self):
        assert ScriptedParty(announce={(): "-1"}).script_announce == {(): -1}

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(move=7, check="A"), "game_move"),
            (dict(announce={(0, 1, 0): 1}), "announce"),
            (dict(win_request={(2,): F(1, 2)}), "win_request"),
        ],
        ids=["move-out-of-range", "prefix-too-long", "prefix-not-bits"],
    )
    def test_run_rejects_a_script_that_does_not_fit(self, bos, bos_fair_ce, kwargs, field):
        em = emulate(bos, bos_fair_ce, F(1, 2))
        config = ProtocolConfig(F(1, 10), F(1, 2), em.k)
        with pytest.raises(ValueError, match=field):
            run_protocol(
                bos, bos_fair_ce, config, ScriptedParty(**kwargs), ScriptedParty(**kwargs),
                RandomStream(3), em=em,
            )


class TestConfig:
    def test_plan_derives_round_count(self, bos):
        config = ProtocolConfig.plan(bos, F(1, 10), F(1, 2))
        assert config.k == 3
        assert config.per_round_bias == F(1, 60)

    def test_validation(self):
        with pytest.raises(ValueError):
            ProtocolConfig(F(0), F(1, 2), 3)
        with pytest.raises(ValueError):
            ProtocolConfig(F(1, 10), F(0), 3)

    @pytest.mark.parametrize("k", [2.0, True, "3", None])
    def test_round_count_must_be_an_int(self, k):
        with pytest.raises(TypeError, match="k must be an int"):
            ProtocolConfig(F(1, 10), F(1, 2), k)

    def test_degenerate_zero_round_run(self, bos, bos_fair_ce):
        # A budget wider than the strategy space needs no index bits at
        # all: the table is one entry and the run is deterministic.
        config = ProtocolConfig.plan(bos, F(1, 10), F(8))
        assert config.k == 0
        assert config.per_round_bias == 0
        transcript = run_protocol(
            bos, bos_fair_ce, config, HonestParty(), HonestParty(), RandomStream(1)
        )
        assert transcript.rounds == []
        assert transcript.output == (0, 0)
