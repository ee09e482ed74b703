import random

from deskchain import oracles, tx as txmod
from deskchain.crypto import hash256

from conftest import Bench, make_cfg

QH = hash256(b"is the 100th unit the best one?")


def ask(bench, asker="alice", start=None, end=None):
    start = bench.height if start is None else start
    end = start + 10 if end is None else end
    kp = bench.key(asker)
    counter = bench.counter(asker)
    tx = txmod.OracleRegister(kp.address, QH, start, end, 1, counter)
    receipt = bench.apply(tx, kp)
    assert receipt.status == "applied"
    return oracles.question_id_for(kp.address, counter, QH)


def test_deposit_proportional_to_window(bench):
    # rate 2 per block, window 10 blocks -> deposit 20
    alice_before = bench.balance("alice")
    question_id = ask(bench)
    q = bench.state.oracles[question_id]
    assert q.deposit == 2 * 10
    assert bench.balance("alice") == alice_before - 20 - 1
    assert bench.state.held("oracles") == 20


def test_bad_window_rejected(bench):
    kp = bench.key("alice")
    tx = txmod.OracleRegister(kp.address, QH, 5, 5, 1, 1)
    assert bench.apply(tx, kp).status == "reverted"


def test_two_registrations_distinct_ids(bench):
    q1 = ask(bench)
    q2 = ask(bench)
    assert q1 != q2


def test_answer_by_asker_in_window(bench):
    question_id = ask(bench)
    kp = bench.key("alice")
    tx = txmod.OracleAnswer(kp.address, question_id, True, 1, bench.counter("alice"))
    assert bench.apply(tx, kp).status == "applied"
    assert bench.state.oracles[question_id].phase == "answered"


def test_stranger_cannot_answer(bench):
    question_id = ask(bench)
    kp = bench.key("bob")
    tx = txmod.OracleAnswer(kp.address, question_id, True, 1, bench.counter("bob"))
    assert bench.apply(tx, kp).status == "reverted"


def test_answer_after_window_reverts(bench):
    question_id = ask(bench)
    bench.advance(11)
    kp = bench.key("alice")
    tx = txmod.OracleAnswer(kp.address, question_id, True, 1, bench.counter("alice"))
    assert bench.apply(tx, kp).status == "reverted"


def test_the_asker_answers_up_to_end(bench):
    # the answer window is [start, end]: an answer at end itself is taken
    question_id = ask(bench)
    bench.advance(10)
    _answer(bench, question_id)


def test_the_asker_answers_from_start_on(bench):
    # the answer window is [start, end]: one block before start is refused
    question_id = ask(bench, start=bench.height + 2)
    kp = bench.key("alice")
    bench.advance(1)
    early = txmod.OracleAnswer(kp.address, question_id, True, 1, bench.counter("alice"))
    assert bench.apply(early, kp).reason == "OutsideWindow"
    bench.advance(1)
    _answer(bench, question_id)


def _answer(bench, question_id, asker="alice", bit=True):
    kp = bench.key(asker)
    tx = txmod.OracleAnswer(kp.address, question_id, bit, 1, bench.counter(asker))
    assert bench.apply(tx, kp).status == "applied"


def _counter(bench, question_id, challenger="bob"):
    kp = bench.key(challenger)
    tx = txmod.OracleCounter(kp.address, question_id, 1, bench.counter(challenger))
    return bench.apply(tx, kp)


def _vote(bench, question_id, voter, bit):
    kp = bench.key(voter)
    tx = txmod.OracleVote(kp.address, question_id, bit, 1, bench.counter(voter))
    return bench.apply(tx, kp)


def _resolve(bench, question_id, sender="carol"):
    kp = bench.key(sender)
    tx = txmod.OracleResolve(kp.address, question_id, 1, bench.counter(sender))
    return bench.apply(tx, kp)


def test_counterclaim_requires_exact_deposit(bench):
    question_id = ask(bench)
    _answer(bench, question_id)
    q = bench.state.oracles[question_id]
    # drain bob to below the needed deposit
    kp = bench.key("bob")
    drain = txmod.Spend(kp.address, bench.addr("carol"), bench.balance("bob") - q.deposit, 1, 1)
    assert bench.apply(drain, kp).status == "applied"
    assert bench.balance("bob") == q.deposit - 1
    assert _counter(bench, question_id).status == "reverted"


def test_counterclaim_after_window_too_late(bench):
    question_id = ask(bench)
    _answer(bench, question_id)
    bench.advance(10 + bench.cfg.oracle_challenge_window + 1)
    assert _counter(bench, question_id).status == "reverted"


def test_a_counterclaim_is_taken_at_end_plus_the_challenge_window(bench):
    # an answer can be challenged until end + challenge_window inclusive
    question_id = ask(bench)
    _answer(bench, question_id)
    bench.advance(bench.state.oracles[question_id].end + bench.cfg.oracle_challenge_window - bench.height)
    assert _counter(bench, question_id).status == "applied"


def test_votes_are_taken_before_vote_end_only(bench):
    # a contest is open to votes for vote_window blocks: heights below vote_end
    question_id = ask(bench)
    _answer(bench, question_id)
    assert _counter(bench, question_id).status == "applied"
    bench.advance(bench.state.oracles[question_id].vote_end - 1 - bench.height)
    assert _vote(bench, question_id, "carol", False).status == "applied"
    bench.advance(1)
    assert _vote(bench, question_id, "miner", False).reason == "TooLate"
    assert len(bench.state.oracles[question_id].votes) == 1


def test_a_vote_on_an_uncontested_question_is_not_ready(bench):
    # a ballot opens with a counterclaim; before one it is refused as not
    # ready, not as late
    question_id = ask(bench)
    assert _vote(bench, question_id, "carol", True).reason == "NotReady"
    _answer(bench, question_id)
    assert _vote(bench, question_id, "carol", True).reason == "NotReady"
    assert bench.state.oracles[question_id].votes == ()


def test_a_contested_question_resolves_from_vote_end_on(bench):
    question_id = ask(bench)
    _answer(bench, question_id)
    assert _counter(bench, question_id).status == "applied"
    bench.advance(bench.state.oracles[question_id].vote_end - 1 - bench.height)
    assert _resolve(bench, question_id).reason == "NotReady"
    assert bench.state.oracles[question_id].phase == "contested"
    bench.advance(1)
    assert _resolve(bench, question_id).status == "applied"
    assert bench.state.oracles[question_id].phase == "resolved"


def test_an_unanswered_question_is_burned_from_end_plus_one(bench):
    # the asker may still answer at end, so resolving there is refused
    question_id = ask(bench)
    q = bench.state.oracles[question_id]
    bench.advance(q.end - bench.height)
    assert _resolve(bench, question_id).reason == "NotReady"
    assert bench.state.oracles[question_id].phase == "open"
    burned_before = bench.state.burned_total
    bench.advance(1)
    assert _resolve(bench, question_id).status == "applied"
    assert bench.state.oracles[question_id].phase == "burned"
    assert bench.state.burned_total == burned_before + q.deposit


def test_an_answered_question_resolves_from_end_plus_the_challenge_window_plus_one(bench):
    # a counterclaim is still taken at end + challenge_window, so resolving
    # there is refused; one block later the deposit returns to the asker
    question_id = ask(bench)
    _answer(bench, question_id)
    q = bench.state.oracles[question_id]
    bench.advance(q.end + bench.cfg.oracle_challenge_window - bench.height)
    assert _resolve(bench, question_id).reason == "NotReady"
    assert bench.state.oracles[question_id].phase == "answered"
    alice_before = bench.balance("alice")
    bench.advance(1)
    assert _resolve(bench, question_id).status == "applied"
    assert bench.state.oracles[question_id].phase == "resolved"
    assert bench.balance("alice") == alice_before + q.deposit


def test_accepted_path_returns_deposit(bench):
    question_id = ask(bench)
    alice_after_ask = bench.balance("alice")
    _answer(bench, question_id)
    bench.advance(10 + bench.cfg.oracle_challenge_window + 1)
    assert _resolve(bench, question_id).status == "applied"
    q = bench.state.oracles[question_id]
    assert q.phase == "resolved" and q.resolved_bit is True
    # deposit 20 returned; alice paid only the answer fee since asking
    assert bench.balance("alice") == alice_after_ask + 20 - 1
    assert oracles.read_answer(bench.state, question_id) is True
    assert bench.conservation_ok()


def test_expired_path_burns_deposit(bench):
    question_id = ask(bench)
    burned_before = bench.state.burned_total
    bench.advance(11)
    assert _resolve(bench, question_id).status == "applied"
    q = bench.state.oracles[question_id]
    assert q.phase == "burned"
    assert bench.state.burned_total == burned_before + 20
    assert oracles.read_answer(bench.state, question_id) == oracles.BURNED
    assert bench.conservation_ok()


def test_resolve_not_ready(bench):
    question_id = ask(bench)
    assert _resolve(bench, question_id).status == "reverted"
    _answer(bench, question_id)
    assert _resolve(bench, question_id).status == "reverted"


def test_contested_stake_weighted_tally(bench):
    # three voters with known stakes; brute-force the weighted sums
    question_id = ask(bench)
    _answer(bench, question_id, bit=True)
    assert _counter(bench, question_id).status == "applied"
    q = bench.state.oracles[question_id]
    assert q.phase == "contested"
    assert q.counter_deposit == q.deposit

    assert _vote(bench, question_id, "carol", False).status == "applied"
    assert _vote(bench, question_id, "miner", False).status == "applied"
    # duplicate ballots bounce
    assert _vote(bench, question_id, "carol", True).status == "reverted"

    votes = bench.state.oracles[question_id].votes
    yes_expected = sum(v.weight for v in votes if v.bit)
    no_expected = sum(v.weight for v in votes if not v.bit)
    assert oracles.tally(votes) == (yes_expected, no_expected)
    assert no_expected > yes_expected

    alice_before = bench.balance("alice")
    bob_before = bench.balance("bob")
    burned_before = bench.state.burned_total
    bench.advance(bench.cfg.oracle_vote_window)
    assert _resolve(bench, question_id).status == "applied"
    q = bench.state.oracles[question_id]
    assert q.phase == "resolved" and q.resolved_bit is False
    # challenger wins: counter deposit returned, asker deposit burned
    assert bench.balance("bob") == bob_before + q.counter_deposit
    assert bench.balance("alice") == alice_before
    assert bench.state.burned_total == burned_before + q.deposit
    assert bench.conservation_ok()


def test_contested_asker_wins_on_tie(bench):
    question_id = ask(bench)
    _answer(bench, question_id, bit=True)
    assert _counter(bench, question_id).status == "applied"
    bench.advance(bench.cfg.oracle_vote_window)
    burned_before = bench.state.burned_total
    assert _resolve(bench, question_id).status == "applied"
    q = bench.state.oracles[question_id]
    assert q.resolved_bit is True  # no votes: tie keeps the original answer
    assert bench.state.burned_total == burned_before + q.counter_deposit
    assert bench.conservation_ok()


def test_deposit_flow_exactness_all_paths():
    # returned + burned == escrowed on every terminal path
    for path in ("accepted", "contested-won", "contested-lost", "expired"):
        bench = Bench(make_cfg())
        question_id = ask(bench)
        escrowed = bench.state.oracles[question_id].deposit
        burned_0 = bench.state.burned_total
        if path == "expired":
            bench.advance(11)
            _resolve(bench, question_id)
            assert bench.state.burned_total - burned_0 == escrowed
            continue
        _answer(bench, question_id, bit=True)
        if path == "accepted":
            bench.advance(10 + bench.cfg.oracle_challenge_window + 1)
            _resolve(bench, question_id)
            assert bench.state.burned_total == burned_0
            continue
        assert _counter(bench, question_id).status == "applied"
        escrowed_total = escrowed + bench.state.oracles[question_id].counter_deposit
        if path == "contested-lost":  # challenger wins, asker burned
            _vote(bench, question_id, "carol", False)
        else:  # asker wins on tie
            pass
        bench.advance(bench.cfg.oracle_vote_window)
        _resolve(bench, question_id)
        q = bench.state.oracles[question_id]
        burned = bench.state.burned_total - burned_0
        assert burned == escrowed_total // 2  # exactly one side's deposit burns
        assert q.escrowed() == 0
        assert bench.conservation_ok()


def test_phase_machine_fuzz():
    # random op sequences never reach an undefined transition: every apply
    # either succeeds along the lifecycle graph or reverts cleanly
    LIFECYCLE = {
        ("open", "answer"): "answered",
        ("open", "resolve"): "burned",
        ("answered", "counter"): "contested",
        ("answered", "resolve"): "resolved",
        ("contested", "vote"): "contested",
        ("contested", "resolve"): "resolved",
    }
    rng = random.Random(7)
    for round_no in range(30):
        bench = Bench(make_cfg())
        question_id = ask(bench)
        for _ in range(12):
            op = rng.choice(["answer", "counter", "vote", "resolve", "advance"])
            if op == "advance":
                bench.advance(rng.randrange(1, 8))
                continue
            before = bench.state.oracles[question_id].phase
            if op == "answer":
                kp = bench.key("alice")
                receipt = bench.apply(
                    txmod.OracleAnswer(kp.address, question_id, True, 1, bench.counter("alice")), kp
                )
            elif op == "counter":
                receipt = _counter(bench, question_id)
            elif op == "vote":
                receipt = _vote(bench, question_id, rng.choice(["bob", "carol"]), rng.random() < 0.5)
            else:
                receipt = _resolve(bench, question_id)
            after = bench.state.oracles[question_id].phase
            if receipt.status == "applied":
                assert LIFECYCLE.get((before, op)) == after or (
                    op == "resolve" and before == "open" and after == "burned"
                )
            else:
                assert after == before
            assert bench.conservation_ok()
