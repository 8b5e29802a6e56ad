"""Wiretap-network cut tests with a brute-force cut enumeration oracle."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from smdc import wiretap
from smdc.cli import EXIT_OK, EXIT_USAGE, entry
from smdc.errors import ParameterError
from smdc.wiretap import (
    SOURCE,
    WiretapNetwork,
    achievable_secrecy_rate,
    admissible_by_separation,
    export_edge_list,
    max_flow,
    mincut_to_user,
    mincut_to_wiretap,
)

F = Fraction


def brute_min_cut(graph, source, sink):
    """Enumerate all node bipartitions; None-capacity crossings disqualify."""
    nodes = sorted(set(graph) - {source, sink})
    best = None
    for r in range(len(nodes) + 1):
        for chosen in combinations(nodes, r):
            side = {source, *chosen}
            total = F(0)
            ok = True
            for tail, heads in graph.items():
                for head, cap in heads.items():
                    if tail in side and head not in side:
                        if cap is None:
                            ok = False
                            break
                        total += cap
                if not ok:
                    break
            if ok and (best is None or total < best):
                best = total
    return best


def test_network_validation():
    with pytest.raises(ParameterError):
        WiretapNetwork(3, 2, 2, (1, 1, 1))
    with pytest.raises(ParameterError):
        WiretapNetwork(3, 1, 2, (1, 1))
    with pytest.raises(ParameterError):
        WiretapNetwork(3, 1, 2, (1.0, 1, 1))
    with pytest.raises(ParameterError):
        WiretapNetwork(3, 1, 2, (1, -1, 1))


def test_unbalanced_rates_lose_all_secrecy():
    # doubling one encoder's rate does not help: the adversary taps it
    net = WiretapNetwork(3, 1, 2, (F(2), F(1), F(1)))
    assert [mincut_to_user(net, u) for u in net.users()] == [3, 3, 2]
    assert [mincut_to_wiretap(net, a) for a in net.wiretap_sets()] == [2, 1, 1]
    assert achievable_secrecy_rate(net) == 0
    assert not admissible_by_separation(net, 1)


@pytest.mark.parametrize("shape", [(2, 1, 2), (3, 1, 2), (3, 2, 3),
                                   (4, 1, 3), (4, 2, 3), (5, 2, 4)])
def test_symmetric_rates_support_unit_entropy(shape):
    length, wiretap, threshold = shape
    share = F(1, threshold - wiretap)
    net = WiretapNetwork(length, wiretap, threshold, (share,) * length)
    assert min(mincut_to_user(net, u) for u in net.users()) == \
        F(threshold, threshold - wiretap)
    assert max(mincut_to_wiretap(net, a) for a in net.wiretap_sets()) == \
        F(wiretap, threshold - wiretap)
    assert achievable_secrecy_rate(net) == 1
    assert admissible_by_separation(net, 1)
    assert not admissible_by_separation(net, F(101, 100))


def test_flow_equals_closed_form_and_brute_cut():
    nets = [
        WiretapNetwork(3, 1, 2, (F(2), F(1), F(1))),
        WiretapNetwork(4, 2, 3, (F(1, 2), F(3, 2), F(1), F(2))),
        WiretapNetwork(4, 1, 4, (F(1, 3), F(1, 3), F(1, 3), F(1, 3))),
        WiretapNetwork(5, 2, 3, (F(1), F(2), F(1, 2), F(3), F(1))),
    ]
    for net in nets:
        graph = net.build()
        for u in net.users():
            closed = mincut_to_user(net, u)
            assert mincut_to_user(net, u, via_flow=True) == closed
            assert brute_min_cut(graph, SOURCE, net.user_node(u)) == closed
        for a in net.wiretap_sets():
            closed = mincut_to_wiretap(net, a)
            assert mincut_to_wiretap(net, a, via_flow=True) == closed
        assert achievable_secrecy_rate(net, via_flow=True) == \
            achievable_secrecy_rate(net)


def test_zero_wiretap_reduces_to_erasure_cut():
    net = WiretapNetwork(3, 0, 2, (F(1), F(1, 2), F(2)))
    assert achievable_secrecy_rate(net) == F(3, 2)
    assert admissible_by_separation(net, F(3, 2))


def test_secrecy_rate_can_go_negative():
    net = WiretapNetwork(3, 1, 2, (F(2), F(1), F(0)))
    assert achievable_secrecy_rate(net) == -1


def test_max_flow_rejects_truly_unbounded_route():
    graph = {"s": {"a": None}, "a": {"t": None}, "t": {}}
    with pytest.raises(ParameterError):
        max_flow(graph, "s", "t")


def test_export_edge_list_format():
    net = WiretapNetwork(2, 1, 2, (F(1, 2), F(3)))
    text = export_edge_list(net)
    assert text.splitlines() == [
        "e1 u1_2 inf",
        "e2 u1_2 inf",
        "s e1 1/2",
        "s e2 3",
    ]


def test_subset_validation():
    net = WiretapNetwork(3, 1, 2, (F(1), F(1), F(1)))
    with pytest.raises(ParameterError):
        mincut_to_user(net, (1,))
    with pytest.raises(ParameterError):
        mincut_to_wiretap(net, (1, 2))
    with pytest.raises(ParameterError):
        mincut_to_user(net, (1, 9))


WN_L7_FLOW = ["wn", "--L", "7", "--N", "2", "--m", "5",
              "--rates", "1,1,1,1,1,1,1", "--entropy", "2", "--flow"]


def test_every_flow_runs_on_the_source_the_encoders_and_one_sink(
        monkeypatch, capsys):
    sizes = []

    def counted(graph, source, sink):
        sizes.append(len(graph))
        return max_flow(graph, source, sink)

    monkeypatch.setattr(wiretap, "max_flow", counted)
    assert entry(WN_L7_FLOW) == EXIT_OK
    capsys.readouterr()
    # C(7, 5) user cuts and C(7, 2) tap cuts, each on L + 2 = 9 nodes
    assert len(sizes) == 21 + 21
    assert set(sizes) == {9}


def test_wn_flow_exits_2_when_a_flow_disagrees_with_its_cut(
        monkeypatch, capsys):
    monkeypatch.setattr(wiretap, "max_flow",
                        lambda graph, source, sink: F(-1))
    assert entry(WN_L7_FLOW) == EXIT_USAGE == 2
    captured = capsys.readouterr()
    assert "flow disagrees" in captured.err
    assert captured.out == ""


def random_rates(rng, length):
    """Rates over large pairwise-coprime denominators, zeros included,
    so the common scale runs past 64 bits."""
    primes = [1_000_003, 998_244_353, 1_000_000_007, 2_147_483_647,
              999_999_937, 4_294_967_291, 7, 1]
    return tuple(F(rng.randrange(0, 5 * p), p) if rng.random() > 0.1
                 else F(0) for p in rng.sample(primes, length))


@pytest.mark.parametrize("seed", range(6))
def test_integer_cuts_equal_rational_flows_at_coprime_rates(seed):
    rng = random.Random(seed)
    length = rng.randrange(2, 7)
    wiretap = rng.randrange(0, length)
    threshold = rng.randrange(wiretap + 1, length + 1)
    net = WiretapNetwork(length, wiretap, threshold, random_rates(rng, length))
    graph = net.build()   # Fraction capacities, every user as a sink
    for u in net.users():
        closed = sum((net.rates[l - 1] for l in u), F(0))
        assert mincut_to_user(net, u) == closed
        assert mincut_to_user(net, u, via_flow=True) == closed
        flow = max_flow(graph, SOURCE, net.user_node(u))
        assert flow == closed and (flow == 0 or type(flow) is F)
    for a in net.wiretap_sets():
        closed = sum((net.rates[l - 1] for l in a), F(0))
        assert mincut_to_wiretap(net, a) == closed
        assert mincut_to_wiretap(net, a, via_flow=True) == closed
    for cut in (mincut_to_user(net, next(net.users())),
                mincut_to_user(net, next(net.users()), via_flow=True)):
        assert type(cut) is F


def test_max_flow_takes_fraction_capacities_with_parallel_paths():
    graph = {"s": {"a": F(1, 3), "b": F(2, 7)},
             "a": {"b": F(1, 5), "t": F(1, 11)},
             "b": {"t": None},
             "t": {}}
    # cut {s, a} | {b, t}: 2/7 + 1/5 + 1/11
    assert max_flow(graph, "s", "t") == F(2, 7) + F(1, 5) + F(1, 11)
    assert brute_min_cut(graph, "s", "t") == max_flow(graph, "s", "t")
