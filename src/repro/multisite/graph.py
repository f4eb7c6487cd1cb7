"""The VB site graph and k-clique subgraph identification (§3.1 step 1).

Nodes are VB sites; an edge connects two sites whose estimated RTT is
below the latency threshold (50 ms in the paper).  Candidate subgraphs
for an application are the k-cliques of this graph — site groups where
*every* pair is close — ranked by the coefficient of variation of their
aggregate generation, so the scheduler considers the most complementary
low-latency groups first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

from ..errors import ConfigurationError
from ..traces import PowerTrace
from ..traces.base import aggregate_traces
from ..traces.sites import SiteCatalog
from .latency import DEFAULT_LATENCY_THRESHOLD_MS, latency_matrix_ms


@dataclass(frozen=True)
class CliqueCandidate:
    """One candidate site group for placement.

    Attributes:
        names: Member site names, sorted.
        cov: Coefficient of variation of the group's aggregate trace
            (lower = steadier = better).
        max_latency_ms: Largest pairwise RTT inside the group.
    """

    names: tuple[str, ...]
    cov: float
    max_latency_ms: float

    @property
    def k(self) -> int:
        """Group size."""
        return len(self.names)


class SiteGraph:
    """Latency-thresholded site graph with clique search.

    Args:
        catalog: The sites.
        traces: Per-site generation traces (for cov ranking).
        latency_threshold_ms: Edge threshold (paper: 50 ms).
    """

    def __init__(
        self,
        catalog: SiteCatalog,
        traces: Mapping[str, PowerTrace],
        latency_threshold_ms: float = DEFAULT_LATENCY_THRESHOLD_MS,
    ):
        if latency_threshold_ms <= 0:
            raise ConfigurationError(
                f"latency threshold must be positive: {latency_threshold_ms}"
            )
        missing = [s.name for s in catalog if s.name not in traces]
        if missing:
            raise ConfigurationError(f"sites without traces: {missing}")
        self.catalog = catalog
        self.traces = dict(traces)
        self.latency_threshold_ms = latency_threshold_ms
        self._latency = latency_matrix_ms(catalog)
        self._index = {name: i for i, name in enumerate(catalog.names)}
        import networkx as nx

        self.graph = nx.Graph()
        self.graph.add_nodes_from(catalog.names)
        names = catalog.names
        for i, j in combinations(range(len(names)), 2):
            if self._latency[i, j] <= latency_threshold_ms:
                self.graph.add_edge(
                    names[i], names[j], latency_ms=self._latency[i, j]
                )

    def latency_between(self, a: str, b: str) -> float:
        """RTT between two named sites, milliseconds."""
        return float(self._latency[self._index[a], self._index[b]])

    def neighbors(self, name: str) -> list[str]:
        """Sites within the latency threshold of ``name``."""
        return sorted(self.graph.neighbors(name))

    def aggregate_trace(self, names: Sequence[str]) -> PowerTrace:
        """Combined generation trace of a site group."""
        if not names:
            raise ConfigurationError("cannot aggregate an empty group")
        return aggregate_traces(
            [self.traces[name] for name in names],
            name="+".join(sorted(names)),
        )

    def group_cov(self, names: Sequence[str]) -> float:
        """Coefficient of variation of a group's aggregate generation."""
        return self.aggregate_trace(names).cov()

    def group_max_latency(self, names: Sequence[str]) -> float:
        """Largest pairwise RTT within a group, milliseconds."""
        if len(names) < 2:
            return 0.0
        return max(
            self.latency_between(a, b) for a, b in combinations(names, 2)
        )

    def k_cliques(self, k: int) -> list[tuple[str, ...]]:
        """All k-cliques of the graph (sorted name tuples).

        The paper uses k = 2..5.  Enumeration is exact; the graphs here
        are small (tens of sites), so the well-known exponential worst
        case is not a concern.  ``k = 1`` returns every node.
        """
        if k < 1:
            raise ConfigurationError(f"k must be >= 1: {k}")
        if k == 1:
            return [(name,) for name in self.catalog.names]
        import networkx as nx

        cliques: set[tuple[str, ...]] = set()
        for clique in nx.enumerate_all_cliques(self.graph):
            if len(clique) > k:
                break  # enumerate_all_cliques yields by size, ascending
            if len(clique) == k:
                cliques.add(tuple(sorted(clique)))
        return sorted(cliques)

    def candidates(
        self, k: int, limit: int | None = None
    ) -> list[CliqueCandidate]:
        """K-cliques ranked by aggregate cov, steadiest first (§3.1).

        Args:
            k: Clique size.
            limit: Keep only the best ``limit`` candidates (the paper
                prunes here because clique counts grow quickly).
        """
        scored = [
            CliqueCandidate(
                names,
                self.group_cov(names),
                self.group_max_latency(names),
            )
            for names in self.k_cliques(k)
        ]
        scored.sort(key=lambda c: (c.cov, c.names))
        if limit is not None:
            if limit < 0:
                raise ConfigurationError(f"limit must be >= 0: {limit}")
            scored = scored[:limit]
        return scored

    def candidates_up_to(
        self, max_k: int, per_k_limit: int | None = None
    ) -> list[CliqueCandidate]:
        """Ranked candidates for every k in 2..max_k, concatenated."""
        if max_k < 2:
            raise ConfigurationError(f"max_k must be >= 2: {max_k}")
        result: list[CliqueCandidate] = []
        for k in range(2, max_k + 1):
            result.extend(self.candidates(k, per_k_limit))
        return result
