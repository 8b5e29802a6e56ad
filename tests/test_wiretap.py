"""Wiretap-network cut tests with a brute-force cut enumeration oracle."""

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
