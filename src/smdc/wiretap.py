"""Cut analysis of the three-layer wiretap network.

The network has a source feeding L encoder nodes (edge l carries rate
R_l), and one user per threshold-subset of encoders, connected by
uncapacitated edges.  An adversary taps some N-subset of the
source-to-encoder edges.  The secrecy rate the network supports is each
user's cut less the strongest tap inside it, at the weakest user: the
sum of the threshold - wiretap smallest rates, as in the single-level
region.  With one source symbol per unit entropy every cut is a plain
rate sum.  The max-flow computation is kept as an independent check,
each cut's flow on that cut's own network: the source, the L encoders
and one sink.  Both run on integers, the rates times their common
denominator, and divide back once per cut.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from typing import Iterator, Mapping

from .errors import ParameterError, as_encoders, as_fraction, as_int

SOURCE = "s"


@dataclass(frozen=True)
class WiretapNetwork:
    length: int
    wiretap: int
    threshold: int
    rates: tuple[Fraction, ...]

    def __post_init__(self):
        for name in ("length", "wiretap", "threshold"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        if not 0 <= self.wiretap < self.threshold <= self.length:
            raise ParameterError(
                f"need 0 <= wiretap < threshold <= length, got "
                f"({self.length}, {self.wiretap}, {self.threshold})")
        rates = tuple(as_fraction(r, "rate") for r in self.rates)
        if any(r < 0 for r in rates):
            raise ParameterError("rates cannot be negative")
        if len(rates) != self.length:
            raise ParameterError(f"need {self.length} rates")
        object.__setattr__(self, "rates", rates)

    @cached_property
    def _scaled_rates(self) -> tuple[int, tuple[int, ...]]:
        """The rates' common denominator, and each rate times it: the
        integer capacities every cut is computed on."""
        scale = lcm(*(r.denominator for r in self.rates))
        return scale, tuple(r.numerator * (scale // r.denominator)
                            for r in self.rates)

    def encoder_node(self, l: int) -> str:
        return f"e{l}"

    def user_node(self, subset: tuple[int, ...]) -> str:
        return "u" + "_".join(str(l) for l in subset)

    def users(self) -> Iterator[tuple[int, ...]]:
        return combinations(range(1, self.length + 1), self.threshold)

    def wiretap_sets(self) -> Iterator[tuple[int, ...]]:
        return combinations(range(1, self.length + 1), self.wiretap)

    def build(self) -> dict[str, dict[str, Fraction | None]]:
        """Adjacency map with Fraction capacities (None = unbounded)."""
        return _network(self, self.rates,
                        {self.user_node(u): u for u in self.users()})


def _network(net: WiretapNetwork, rates, sinks: Mapping[str, tuple[int, ...]]):
    """The source, the L encoders fed at `rates`, and each sink fed by
    unbounded edges from its encoder subset."""
    graph: dict[str, dict[str, Fraction | None]] = {SOURCE: {}}
    for l, rate in enumerate(rates, start=1):
        graph[SOURCE][net.encoder_node(l)] = rate
        graph[net.encoder_node(l)] = {}
    for sink, subset in sinks.items():
        graph[sink] = {}
        for l in subset:
            graph[net.encoder_node(l)][sink] = None
    return graph


def _residual(graph: Mapping[str, Mapping[str, Fraction | None]]):
    res: dict[str, dict[str, Fraction | None]] = {}
    for tail, heads in graph.items():
        res.setdefault(tail, {})
        for head, cap in heads.items():
            res.setdefault(head, {})
            res[tail][head] = cap
            res[head].setdefault(tail, 0)
    return res


def max_flow(graph: Mapping[str, Mapping[str, int | Fraction | None]],
             source: str, sink: str) -> int | Fraction:
    """Edmonds-Karp, exact on int or Fraction capacities; unbounded edges
    allowed as long as every source-sink path crosses some finite edge.
    The flow comes in the capacities' own type: the cuts pass exact
    integers after one common scale, so no step builds a Fraction."""
    res = _residual(graph)
    total = 0
    while True:
        parent = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            node = queue.popleft()
            for head, cap in res[node].items():
                if head not in parent and (cap is None or cap > 0):
                    parent[head] = node
                    queue.append(head)
        if sink not in parent:
            return total
        bottleneck = None
        node = sink
        while parent[node] is not None:
            cap = res[parent[node]][node]
            if cap is not None and (bottleneck is None or cap < bottleneck):
                bottleneck = cap
            node = parent[node]
        if bottleneck is None:
            raise ParameterError("unbounded flow: an all-unbounded path "
                                 "reaches the sink")
        node = sink
        while parent[node] is not None:
            tail = parent[node]
            if res[tail][node] is not None:
                res[tail][node] -= bottleneck
            if res[node][tail] is not None:
                res[node][tail] += bottleneck
            node = tail
        total += bottleneck


def mincut_to_user(net: WiretapNetwork, subset, via_flow: bool = False) -> Fraction:
    """Cut between the source and the user reading encoder `subset`."""
    return _cut(net, subset, net.threshold, via_flow)


def mincut_to_wiretap(net: WiretapNetwork, tapped, via_flow: bool = False) -> Fraction:
    """Cut between the source and an adversary tapping the source edges
    into `tapped`."""
    return _cut(net, tapped, net.wiretap, via_flow)


def _cut(net: WiretapNetwork, subset, size: int, via_flow: bool) -> Fraction:
    """The rate sum over `subset`, or with `via_flow` the max flow to one
    sink fed by it on L + 2 nodes.  User nodes have no out-edges, so this
    is the flow to that user (or tap) in the whole network."""
    subset = tuple(sorted(as_encoders(subset, net.length)))
    if len(set(subset)) != len(subset):
        raise ParameterError("duplicate encoders in subset")
    if len(subset) != size:
        raise ParameterError(f"subset must have exactly {size} encoders")
    scale, rates = net._scaled_rates
    if via_flow:
        return Fraction(max_flow(_network(net, rates, {"t": subset}),
                                 SOURCE, "t"), scale)
    return Fraction(sum(rates[l - 1] for l in subset), scale)


def secrecy_rate(net: WiretapNetwork) -> Fraction:
    """Largest entropy one source can carry with perfect secrecy."""
    return sum(sorted(net.rates)[:net.threshold - net.wiretap], Fraction(0))


def achievable_secrecy_rate(net: WiretapNetwork, via_flow: bool = False) -> Fraction:
    """Separation bound: smallest user cut minus largest adversary cut;
    below `secrecy_rate` when the rates are uneven, and may be negative."""
    user_min = min(mincut_to_user(net, u, via_flow) for u in net.users())
    tap_max = max((mincut_to_wiretap(net, a, via_flow)
                   for a in net.wiretap_sets()), default=Fraction(0))
    return user_min - tap_max


def admissible_by_separation(net: WiretapNetwork, entropy) -> bool:
    """Does the separation bound alone cover a source of this entropy?
    `secrecy_rate` gives the exact answer."""
    return as_fraction(entropy, "entropy") <= achievable_secrecy_rate(net)


def export_edge_list(net: WiretapNetwork) -> str:
    """One line per edge: tail head capacity (capacity `inf` when
    unbounded), deterministic order."""
    graph = net.build()
    return "\n".join(f"{tail} {head} {'inf' if cap is None else cap}"
                     for tail in sorted(graph)
                     for head, cap in sorted(graph[tail].items()))
