import hashlib
import random

import pytest

from deskchain import pow, tx as txmod
from deskchain.crypto import KeyPair, hash256
from deskchain.errors import LedgerError
from deskchain.state import ChainState

from conftest import make_cfg

PARAMS = pow.PowParams(edge_bits=12, cycle_len=8)


def test_params_validation():
    with pytest.raises(LedgerError):
        pow.PowParams(edge_bits=3)
    with pytest.raises(LedgerError):
        pow.PowParams(cycle_len=7)
    with pytest.raises(LedgerError):
        pow.PowParams(cycle_len=2)


def test_params_bounds_are_inclusive():
    for edge_bits in (4, 31):
        assert pow.PowParams(edge_bits=edge_bits).edge_bits == edge_bits
    assert pow.PowParams(cycle_len=4).cycle_len == 4
    for bad in ({"edge_bits": 32}, {"target": b"\xff" * 31}, {"target": b"\xff" * 33}):
        with pytest.raises(LedgerError, match="BadPowParams"):
            pow.PowParams(**bad)


def test_derive_edge_deterministic():
    h = hash256(b"header")
    first = pow.derive_edge(h, 5, 77, 12)
    assert first == pow.derive_edge(h, 5, 77, 12)
    assert first != pow.derive_edge(h, 6, 77, 12)


def test_derive_edge_partition_bounds():
    h = hash256(b"header")
    side = 1 << 11
    endpoints = [pow.derive_edge(h, 0, idx, 12) for idx in range(512)]
    for u, v in endpoints:
        assert 0 <= u < side
        assert 0 <= v < side
    # the edge-hash rule is consensus, so its output is pinned
    assert hashlib.sha256(repr(endpoints).encode()).hexdigest() == (
        "7ce289aa6d2711947a67c1fd12ef2f21597ed134c5c6d74ce5b419d1c0c63507"
    )


def test_degree_histogram_bounded():
    # full-graph degree histogram for one seeded header; with 4096 edges on
    # 2048 nodes per side the mean degree is 2, and the observed max is far
    # below the 40 cutoff
    h = hash256(b"seeded-header")
    degrees: dict[tuple[int, int], int] = {}
    for idx in range(1 << 12):
        u, v = pow.derive_edge(h, 0, idx, 12)
        degrees[(0, u)] = degrees.get((0, u), 0) + 1
        degrees[(1, v)] = degrees.get((1, v), 0) + 1
    assert max(degrees.values()) <= 40


def test_solve_verify_round_trip():
    h = hash256(b"round-trip")
    solution = pow.solve(h, PARAMS, nonce_budget=10_000)
    assert solution is not None
    assert pow.verify(h, solution, PARAMS)
    assert list(solution.edges) == sorted(set(solution.edges))


def test_impossible_target_not_found():
    h = hash256(b"impossible")
    hard = pow.PowParams(edge_bits=8, cycle_len=8, target=b"\x00" * 32)
    assert pow.solve(h, hard, nonce_budget=3) is None


def test_perturbed_edge_rejected():
    h = hash256(b"perturb")
    solution = pow.solve(h, PARAMS, nonce_budget=10_000)
    assert solution is not None
    edges = list(solution.edges)
    edges[3] ^= 1
    bad = pow.CuckooSolution(solution.nonce, tuple(sorted(set(edges))))
    assert not pow.verify(h, bad, PARAMS)


def test_digest_above_target_rejected():
    # craft by lowering the target below the found solution's digest
    h = hash256(b"target-case")
    solution = pow.solve(h, PARAMS, nonce_budget=10_000)
    assert solution is not None
    digest = pow.solution_digest(h, solution.edges)
    lowered = (int.from_bytes(digest, "big") - 1).to_bytes(32, "big")
    harder = pow.PowParams(PARAMS.edge_bits, PARAMS.cycle_len, lowered)
    assert not pow.verify(h, solution, harder)
    assert pow.verify(h, solution, PARAMS)
    # the target is the largest digest that clears it
    assert pow.verify(h, solution, pow.PowParams(PARAMS.edge_bits, PARAMS.cycle_len, digest))


def test_random_forgeries_rejected():
    h = hash256(b"forgery-header")
    rng = random.Random(42)
    rejected = 0
    for _ in range(1000):
        edges = tuple(sorted(rng.sample(range(1 << 12), 8)))
        if pow.verify(h, pow.CuckooSolution(rng.randrange(100), edges), PARAMS):
            continue
        rejected += 1
    assert rejected == 1000


def test_solve_deterministic_across_runs():
    h = hash256(b"determinism")
    a = pow.solve(h, PARAMS, nonce_budget=10_000)
    b = pow.solve(h, PARAMS, nonce_budget=10_000)
    assert a == b


def test_solve_interruptible():
    # stop is polled once before every nonce tried, so a caller can count
    # graphs by its polls
    h = hash256(b"interrupt")
    calls = []

    def poll(k=None):
        def stop():
            calls.append(1)
            return len(calls) == k
        return stop

    for k in (1, 3):  # a stop that returns True at poll k ends the search there
        calls.clear()
        assert pow.solve(h, PARAMS, nonce_budget=100, stop=poll(k)) is None
        assert len(calls) == k

    calls.clear()
    solution = pow.solve(h, PARAMS, nonce_budget=200, stop=poll())
    assert solution is not None
    assert len(calls) == solution.nonce + 1

    calls.clear()  # a miss polls once per nonce of the budget
    hard = pow.PowParams(edge_bits=8, cycle_len=8, target=b"\x00" * 32)
    assert pow.solve(h, hard, nonce_budget=5, stop=poll()) is None
    assert len(calls) == 5


@pytest.mark.parametrize("nonce", [-1, 1 << 64])
def test_nonce_outside_u64_rejected(nonce):
    h = hash256(b"nonce-range")
    assert pow.verify(h, pow.CuckooSolution(nonce, tuple(range(8))), pow.PowParams(8, 8)) is False


def test_coinbase_schedule():
    cfg = make_cfg("coinbase.halving_blocks = 4\n")
    assert pow.coinbase(1, cfg) == 50_000_000
    assert pow.coinbase(4, cfg) == 50_000_000
    assert pow.coinbase(5, cfg) == 25_000_000
    with pytest.raises(LedgerError):
        pow.coinbase(0, cfg)


def emission_through(height: int, cfg) -> int:
    """Closed-form sum of coinbase(1..height)."""
    total = 0
    period = cfg.coinbase_halving_blocks
    k = 0
    remaining = height
    while remaining > 0:
        reward = cfg.coinbase_initial >> k
        if reward == 0:
            break
        span = min(period, remaining)
        total += span * reward
        remaining -= span
        k += 1
    return total


def test_emission_closed_form():
    cfg = make_cfg("coinbase.halving_blocks = 4\n")
    total = 0
    for height in range(1, 13):
        total += pow.coinbase(height, cfg)
        assert emission_through(height, cfg) == total
    # sum over the first two halving periods is H*(50+25) DSD
    assert emission_through(8, cfg) == 4 * (50_000_000 + 25_000_000)


def test_stake_weight_identity(cfg):
    state = ChainState.genesis(cfg)
    alice = KeyPair.from_name("alice").address
    assert pow.stake_weight(state, alice) == 100_000_000
    assert pow.stake_weight(state, b"\x99" * 32) == 0


def test_stake_weight_excludes_channel_locks(bench):
    # locking funds in a channel must drop the stake weight
    alice, bob = bench.key("alice"), bench.key("bob")
    before = pow.stake_weight(bench.state, alice.address)
    tx = txmod.ChannelOpen(alice.address, bob.address, 10_000_000, 5_000_000, 1, 1)
    import dataclasses

    tx = dataclasses.replace(tx, sig_b=bob.sign(tx.signing_bytes()))
    receipt = bench.apply(tx, signer=alice)
    assert receipt.status == "applied"
    after = pow.stake_weight(bench.state, alice.address)
    assert after == before - 10_000_000 - 1  # deposit plus the fee
    assert bench.state.held("channels") == 15_000_000


def _solution_digest(solution) -> str:
    pinned = None if solution is None else (solution.nonce, solution.edges)
    return hashlib.sha256(repr(pinned).encode()).hexdigest()


def _pin_headers(edge_bits: int, count: int) -> list[bytes]:
    return [hash256(b"solution-pin" + bytes([edge_bits]) + i.to_bytes(4, "big")) for i in range(count)]


# sha256 of repr((nonce, edges)) that solve(budget 200) returns for each
# _pin_headers header. The search is a heuristic, so these pin which cycle
# it finds, not only that it finds one; fixture block hashes rest on it.
SOLUTION_DIGESTS = {
    8: (
        "785db9651d2184d2cd2fea53578c8b661d01f95c0577ecf04a9a18dd6c24e61d",
        "f81b9bcb03b432c56befd99707ca0e498d013e31a927f3c611993c700ef2b68a",
        "de6da4d712fd510b7f215d46c631428f6e29e7b07c066cfe78e4d79f8561652e",
        "e79a7490c4d1e71dc9c30738c8774c9d85417cd6b9efed74e4702c86388cfc42",
        "248df4bd07388d636810a8673ce7bc233541f9573d6c1482a604823431bf31f5",
        "d833910c232531751d452fad556047cfe6e35ae9759f9a06ecca627737b3ea4a",
        "6fbd25b2cc0252c9fd0795a6029bb695ce6b0f2a36b02b8e82ae21b97d1dc8e9",
        "4a814d0d35f16a073a2f30fc7f9237148fd213fcfbf716f98b5140c7af026518",
        "85c28159ac87a2d0a9c79158c4472276ce9f721e189cc3e43f16292687244359",
        "b627cb16ff93da589ce196eb730655dcee1b5751cae44c3df24c6f687bcb3d58",
        "bf8194d4244b3b6228cff0fc74f16c1eb1842707db0a4560545e7996518f64ba",
        "cc4df0340e5a8b2c2858be47f50b86ff297fb083c05adc646df4aa713af37e87",
        "1a789fb977e73c0ee94b64af6d124ac551b166a8ae1fd115c5409f1e8267dbef",
        "56c21a687b7606a1bee90b66275865432dacca16eb62ec9a4c53874d7057c689",
        "9958a078d801e2e1d4c7419e619ebe419dec6f07cc800868aa7f81dcf54e65f4",
        "10348136aac3b1961af073d20fada4e374f4cdc5f2a690c7dc5a1263fd2bc231",
        "1da3baff48d41368a6b192861b6e97a606cb79454f2538785c4b37ccfc16a485",
        "546dfbe2bfa6e3a2603e095e6ece2af87fb0b243b02b6eb5837ac79776fb1503",
        "8151365e9ccf12cc820eb5f4387bbf0182dc18d02e3118f5c6764e30c6b5cd00",
        "80400f0cc17a66f7a67c955586f6ab3be5043407f4a0aa2b160d4a1e10d3fa05",
        "8bad0d771cd79effac61d0ce8fc06160d89aef14d94ccd5782cefbcb990d024b",
        "e36f6c80647199ed02f3065ccc8f2e83f939224870953c971e53e4f9512b6c35",
        "f9d79389043634441bb8841ce9a20152dd11777989d77f07625d2f8b29eafcd8",
        "7750b310f7f89d5fcf21a3253184cbe2d9ed78911e32c32f13db68ebbf6d39fd",
        "7b571b70b645b4b447d77aae8cdd92405d3d7e5f6f87babe327042e29f71e883",
        "3866aac7af243120d75406359b69453c4ce961bbf76bd3fa89884ba59492ade3",
        "1be4ffe55f0f788606f6bedc09aec43c3e452da0a4b4c3cd6746ba056756dea4",
        "c0f873d1a6b07ec3c0b2212b6f0766fd4f50c3413e3ffa3125e389a63b538c52",
        "aa0363f43960a3c1eafc1d8f324ffe239660325ed1679bd02c402a5b981a9f7e",
        "3abcaaa6f572bf7dfd4970f2d6daafc6f977fa0e00bfa07df482dbbe0c5b7869",
        "bc935396fb8fdcdd319c7dacf4b55815913290c4653e8db2941d7c23bc3c0311",
        "f426646fdd9086c5a7fb407135747af259f5eecac88926ed0d8502ede4d908f1",
        "e4e098908399d68c97c94d56a7ca4d3ef6e9bd38e59930853661e24e11b281d7",
        "732dddc9a913d66ede80d57b710eef943cc5d7ee29993b91f673bfcfcbcd80b5",
        "a29cb4412a37f850c0f0e243d8e3bcfe812df1d87857511ad6442262b55d0160",
        "33efdc6c38c12c947b21057f7430818cb883438fca4982573e8a24ebb188485d",
        "66ba7c7d94c8e9e51fc21da8072b2292a9257903d6df42fcb4d49de3ef9fb072",
        "8f8b2e6c83b08af4cb78caf91c91ebb329b9b7747d7a907c12002ea995ec19f1",
        "6881475919da50ec43a36b78335e804f610a5b1e3b6e144890819204309d5423",
        "5a7b8d48b82edb1aee0cdb2212003d6f3e99561ba406993d12e222c20e8b9cec",
        "690b580a5779d287419f78da97881d7938b98cca98c4912f3a6d12afa0313574",
        "adf2968f5b556e6819ec1f866d38df1b49b1d9926047e2513863c5eef0b68233",
        "100880ba81e683b889f6d6dd28de1ed021ff06b1e8cee5e8a5ad2be84ff4ceb4",
        "39ffe73864abacc18e29cc80b6e3ffb36f709f1eba5cdcfd8da9e9ce5fb63635",
        "abfa8a4b350cb2c76f05912ff7b3e450163cf4150cac1445740a5326ee2e240e",
        "51e3a4e003cfe63bfe972e970bac3a686e19b9698f9bcd5d41dc29270dff9d96",
        "386952fba9fdd6a5e280f469c47a376028e5f8355f2fd9c41d26a57973da348b",
        "b8d789d03e86b1b595f81327b873763f65837e4d5ae18bf5b04da8686832ba3b",
        "4fdd27d85c3256ce6e212708ce99912429e509b0d3c28d47d15c94dbb44f12ab",
        "5cc5777dcdd69ac4521488caf27afbfc7d22d685ffcd6a8d8eb6824eb6fe3bb4",
        "d2ccdbe964762c3c3902ae9e3b8967082491ab1a9f79a8744bd8044453fc314f",
        "ee904b8411201a4307bdc6f89243d703e4d3fe2b4a21778cb495de632c2b9ca1",
        "534f8f9d45cf2bd160832565837a84eea8c3019f2694b14f2cfb34327d3a659c",
        "b6039fcda96e1fb6aa8c1889dad63c106d76fe844e74ef901d808bcd111d7401",
        "ea752eedfe872739c4fe248bec999c66aa3a9c2d441a81a6ea46dc746a19bd80",
        "961d3e6cc57e23ca066559ac622edfd91e5bf043eeff11c5d779f6d4f7d70ad7",
        "ec10a8ecaf8c36f13f6e278352061f55f0ed4b51db4f7ade23a7006d485ce4e8",
        "d34e3e08c16967ce281b6876d95091f593e312c420e69add5758b1ec344d6a39",
        "f11cb2e601d4745c6af9cb13b68454c41f7b41553c062108bc492db34451a11a",
        "815bc14cb8489d59d4211f9afc31c7aa90c644b75332b71f36f7e964fd591bd8",
        "39597ee4f133181767468690d8e3b4ec1f1e8d1efa1894e36a4e843a7e545648",
        "44a938a6ffe9cc5fe8d0f4f73c28d3125dad03565e14282ed4c061649f4fe4a2",
        "d231c157c549f14402c39b7e70a01602af54af5cae8303f52516704a3ba483eb",
        "07fde31fa427c141af4a8e949deeb04d704933917157c3df619a0af32101ca93",
    ),
    12: (
        "acbe4a23deabac13d4514957339e9edb4ac329ab38679296c4c19f8d002e9239",
        "43dc8894974b3409731fb5f012cf37a5d859e33569625ce248ecd0b89833ee57",
        "c4b18ebc3e780ff76d37224614192460d3dbeaf3731c121ac3249a50a2f0aa92",
        "e63e1fd935fe5e365bd3e4b7e7cbc071fd58a06540cca2356550ffce299180b3",
        "a18981fc02fc748cc9a62bd9ae4659282a2ff9f2c73a31b2fb71239cb256513e",
        "fdefdb071a2d2c51fc18d124b210e37c3cde76561b8aeb4de6ee9a9fa981cbf3",
        "6b4dcea9d245fec8b54a1e4d7248be6bb5d84051abc02bd0653a99bf5bf4995c",
        "92cd4fd02a8f135c430d278a6744937a51953624c80ecc247a972831e7a628f2",
        "478b2f8d54ffae2b3606e4b601369fa3b61933edfd42e973471a8e441bd0cfbd",
        "b8aff1ee99f9369bce44420d711894b7afbea94633aa8c85d546d3203bb98c39",
        "efa741ceb362d44cb1c134065abac47415608b8b399499516851261428ff1b30",
        "34c3c9843b9a92fc1966d5593c4176a967aadbab4dcaa4cf3ed07859778ca903",
        "d3d4f62209332b9b86616072f2556dbe288165038d772e7561d41a0630cafe23",
        "a7815eed4b9f24c87c41489204790160edd48160aff595e78c6170945197a120",
        "29a0662af4cfc7717d3876a3c1c1a116ea7325ebf8a219b54674448447c51616",
        "e25d75c6795ecb64c457b9236896fcd9d33be333ebbb9a8b28f0038b375b9f53",
    ),
}


@pytest.mark.parametrize("edge_bits", sorted(SOLUTION_DIGESTS))
def test_solutions_match_pinned_digests(edge_bits):
    params = pow.PowParams(edge_bits=edge_bits, cycle_len=8)
    pinned = SOLUTION_DIGESTS[edge_bits]
    found = [_solution_digest(pow.solve(h, params, 200)) for h in _pin_headers(edge_bits, len(pinned))]
    assert found == list(pinned)


def test_budget_ends_search_before_a_later_solution():
    params = pow.PowParams(edge_bits=8, cycle_len=8)
    header = _pin_headers(8, 33)[32]  # its pinned solution is at nonce 2
    assert pow.solve(header, params, 3).nonce == 2
    assert pow.solve(header, params, 2) is None


def _reference_solve(header_hash, params, nonce_budget):
    """The solver loop as it stood before bulk derivation and the root fast
    path, deriving each edge with pow.derive_edge: pow.solve must match it."""
    n_edges = 1 << params.edge_bits
    half = n_edges >> 1
    for nonce in range(nonce_budget):
        edges = [pow.derive_edge(header_hash, nonce, idx, params.edge_bits) for idx in range(n_edges)]
        parent = [-1] * n_edges
        via = [0] * n_edges
        for idx, (a, v) in enumerate(edges):
            b = half + v
            pa = [a]
            while (x := parent[pa[-1]]) >= 0:
                pa.append(x)
            pb = [b]
            while (x := parent[pb[-1]]) >= 0:
                pb.append(x)
            if pa[-1] != pb[-1]:
                if len(pa) > 1:
                    for x in pa[1:-1]:
                        parent[x] = -1
                    parent[pa[-1]] = pa[-2]
                    via[pa[-1]] = via[a]
                parent[a] = b
                via[a] = idx
                continue
            ia, ib = len(pa) - 1, len(pb) - 1
            while ia and ib and pa[ia - 1] == pb[ib - 1]:
                ia -= 1
                ib -= 1
            if ia + ib + 1 != params.cycle_len:
                continue
            cycle = tuple(sorted([idx] + [via[x] for x in pa[:ia]] + [via[x] for x in pb[:ib]]))
            if len(set(cycle)) != params.cycle_len:
                continue
            if pow.meets_target(pow.solution_digest(header_hash, cycle), params.target):
                candidate = pow.CuckooSolution(nonce, cycle)
                if pow.verify(header_hash, candidate, params):
                    return candidate
    return None


@pytest.mark.parametrize("edge_bits", range(5, 13))
def test_solve_matches_reference(edge_bits):
    targets = [b"\xff" * 32]
    if edge_bits <= 10:  # the reference derives edge by edge: the largest graphs keep to one target for time
        targets.append(b"\x30" + b"\xff" * 31)
    found = 0
    for cycle_len in (4, 6, 8, 10):
        for target in targets:
            params = pow.PowParams(edge_bits, cycle_len, target)
            header = hash256(b"reference" + bytes([edge_bits, cycle_len, target[0]]))
            expected = _reference_solve(header, params, 4)
            assert pow.solve(header, params, 4) == expected
            found += expected is not None
    assert found  # each graph size compares at least one solution


def test_solve_numbers_each_v_node_after_u():
    # the V endpoints solve walks are derive_edge's v moved past U's 2**(edge_bits - 1) nodes
    rng = random.Random(32)
    for edge_bits in (4, 8, 11, 12):
        h, nonce = rng.randbytes(32), rng.randrange(1 << 64)
        us, vs = pow._endpoints(h, nonce, edge_bits, pow._graph_messages(1 << edge_bits))
        half = 2 ** (edge_bits - 1)
        for idx in rng.sample(range(1 << edge_bits), 8):
            u, v = pow.derive_edge(h, nonce, idx, edge_bits)
            assert (us[idx], vs[idx]) == (u, v + half) and 0 <= v < half


# --- forgeries that only one verify rule refuses ---
#
# Each is built from a cycle that verifies, and is changed so that only the
# rule under test refuses it: the incidence and walk checks still pass, and
# the target is all ones.

SMALL = pow.PowParams(edge_bits=8, cycle_len=8)


@pytest.fixture(scope="module")
def small_cycle():
    h = hash256(b"verify-rules")
    solution = pow.solve(h, SMALL, nonce_budget=10_000)
    assert solution is not None and pow.verify(h, solution, SMALL)
    return h, solution


def test_a_cycle_of_another_length_is_rejected(small_cycle):
    # the walk follows the given edges, so only the count names cycle_len
    h, solution = small_cycle
    for cycle_len in (6, 10):
        assert not pow.verify(h, solution, pow.PowParams(SMALL.edge_bits, cycle_len))


def test_an_edge_index_out_of_range_is_rejected(small_cycle):
    # an index past 2^edge_bits whose endpoints equal the largest edge's
    # closes the same cycle and keeps the edges sorted
    h, solution = small_cycle
    limit = 1 << SMALL.edge_bits
    last = pow.derive_edge(h, solution.nonce, solution.edges[-1], SMALL.edge_bits)
    alias = next(e for e in range(limit, limit + 200_000)
                 if pow.derive_edge(h, solution.nonce, e, SMALL.edge_bits) == last)
    forged = pow.CuckooSolution(solution.nonce, solution.edges[:-1] + (alias,))
    assert not pow.verify(h, forged, SMALL)


def test_the_first_edge_index_out_of_range_is_rejected():
    # index 2^edge_bits, where its endpoints equal the largest edge's
    params = pow.PowParams(edge_bits=4, cycle_len=4)
    limit = 1 << params.edge_bits

    for i in range(100):
        h = hash256(b"edge-at-limit" + i.to_bytes(2, "big"))
        solution = pow.solve(h, params, 20)
        if solution and (pow.derive_edge(h, solution.nonce, limit, params.edge_bits)
                         == pow.derive_edge(h, solution.nonce, solution.edges[-1], params.edge_bits)):
            break
    else:
        pytest.fail("no solution in 100 headers shares its largest edge's endpoints with the limit")
    assert pow.verify(h, solution, params)
    assert not pow.verify(h, pow.CuckooSolution(solution.nonce, solution.edges[:-1] + (limit,)), params)


def test_a_verified_cycle_in_another_edge_order_is_rejected(small_cycle):
    # sorted edges make a cycle's digest unique; any other order of the same
    # cycle would verify with a digest of its own, to be ground against the target
    h, solution = small_cycle
    for edges in (solution.edges[::-1], solution.edges[1:] + solution.edges[:1]):
        assert pow.solution_digest(h, edges) != pow.solution_digest(h, solution.edges)
        assert not pow.verify(h, pow.CuckooSolution(solution.nonce, edges), SMALL)


def test_two_disjoint_cycles_are_rejected_by_the_walk():
    # two double edges on disjoint nodes of one derived graph: every node
    # touches exactly two claimed edges, so only the walk's revisit refuses
    # them, when it comes back to the first double edge
    h, params = hash256(b"two-double-edges"), pow.PowParams(edge_bits=8, cycle_len=4)
    for nonce in range(50):
        us, vs = pow._endpoints(h, nonce, params.edge_bits, pow._graph_messages(1 << params.edge_bits))
        by_pair: dict[tuple[int, int], list[int]] = {}
        for idx, pair in enumerate(zip(us, vs)):
            by_pair.setdefault(pair, []).append(idx)
        doubles = [(pair, hits) for pair, hits in by_pair.items() if len(hits) == 2]
        disjoint = [(x, y) for i, (x, xs) in enumerate(doubles) for y, ys in doubles[i + 1:]
                    if x[0] != y[0] and x[1] != y[1]]
        if disjoint:
            break
    else:
        pytest.fail("no graph in 50 nonces has two double edges on disjoint nodes")
    x, y = disjoint[0]
    edges = tuple(sorted(by_pair[x] + by_pair[y]))
    degrees: dict[tuple[int, int], int] = {}
    for e in edges:
        u, v = pow.derive_edge(h, nonce, e, params.edge_bits)
        degrees[(0, u)] = degrees.get((0, u), 0) + 1
        degrees[(1, v)] = degrees.get((1, v), 0) + 1
    assert sorted(degrees.values()) == [2] * 4
    assert not pow.verify(h, pow.CuckooSolution(nonce, edges), params)


def _canonical_sides(n_edges: int):
    """Every assignment of n_edges edges to n_edges // 2 nodes, two edges per
    node, with nodes numbered in order of first use."""
    def extend(sides, counts):
        if len(sides) == n_edges:
            yield tuple(sides)
            return
        for node, count in enumerate(counts):
            if count < 2:
                yield from extend(sides + [node], counts[:node] + [count + 1] + counts[node + 1:])
        if len(counts) < n_edges // 2:
            yield from extend(sides + [len(counts)], counts + [1])
    return list(extend([], []))


def _one_cycle(us, vs) -> bool:
    """Whether the graph with these edges is connected."""
    reached, frontier = {(0, us[0])}, [(0, us[0])]
    while frontier:
        node = frontier.pop()
        for ends in zip(zip((0,) * len(us), us), zip((1,) * len(vs), vs)):
            if node in ends:
                frontier += [end for end in ends if end not in reached]
                reached.update(ends)
    return len(reached) == len(set(us)) + len(set(vs))


def test_every_two_regular_edge_set_verifies_exactly_when_it_is_one_cycle(monkeypatch):
    # verify's walk either comes back to a used edge or, with every edge used,
    # ends at edge 0's U endpoint: in a 2-regular graph the edges it follows
    # from edge 0 go round that edge's cycle, and it uses them all only when
    # that cycle holds every edge. So no walk needs a closing check.
    h = hash256(b"two-regular")
    seen = {True: 0, False: 0}
    for n_edges in (4, 6, 8):
        params, edges = pow.PowParams(edge_bits=8, cycle_len=n_edges), tuple(range(n_edges))
        for us in _canonical_sides(n_edges):
            for vs in _canonical_sides(n_edges):
                monkeypatch.setattr(pow, "_endpoints", lambda *_: [list(us), list(vs)])
                verified = pow.verify(h, pow.CuckooSolution(0, edges), params)
                assert verified == _one_cycle(us, vs), (us, vs)
                seen[verified] += 1
    assert seen[True] and seen[False]
